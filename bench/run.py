"""deontic-mc benchmark: time-to-verdict on one workload.

    python3 bench/run.py --workload random-small --seed 1 --seconds 10 --trace 0

Run from the repository root.  One process, one caller in a closed loop:
the inputs are generated from the seed, set up through the program's
loaders, then checked pass after pass until ``--seconds`` have elapsed (at
least three passes).  The set-up is repeated after every pass and
``setup_s`` is the median of all set-ups.  A check's time is the minimum
over its passes: on a shared 2-vCPU machine the process is slowed from
outside for seconds at a time, and the minimum filters that.

The same machine also runs 1.3-1.7x slower for minutes at a time, longer
than a run.  So every timing metric is reported at reference speed: a fixed
pure-Python job (``calibrate``, the benchmark's own code) is timed three
times after every pass, and each time is scaled by
``CALIBRATION_REF_S / min(calibration times)``.  The unscaled wall-clock
values and the factor are printed on the line before the result.  A check
without a verdict (resource limit, CLI exit 2, escaped exception, or running
past the workload's time limit) is charged the time limit and is not re-run
after the first pass.  Every verdict is compared with a reference that does
not come from the checker under test; a wrong verdict makes the run fail
with exit code 1.  The process re-executes itself with PYTHONHASHSEED=0, so
set iteration order, and with it every traced count, repeats.

``--trace 1`` sets up once, runs one traced pass and one untraced pass, and
reports per-layer metrics instead (see tracing.py).  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_PASSES = 3


class CheckTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    that catches Exception can swallow it."""


# fastest time of calibrate() on the 2-vCPU VM the baseline was taken on
CALIBRATION_REF_S = 0.014


def calibrate():
    """Time a fixed job of tuple hashing, dict updates and Fraction
    comparisons, the kind of work the checker does, without its code."""
    started = time.perf_counter()
    counts = {}
    for i in range(20000):
        key = (i % 97, (i % 13, (i % 7,)))
        counts[key] = counts.get(key, 0) + 1
    sum(Fraction(i, 7) < Fraction(j, 5) for i in range(150) for j in range(20))
    return time.perf_counter() - started


def _alarm(signum, frame):
    raise CheckTimeout()


def _package_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "deontic_mc" or name.startswith("deontic_mc.")}


def fresh_import():
    """Import deontic_mc anew (the previous import, if any, is dropped)."""
    for name in _package_modules():
        del sys.modules[name]
    return importlib.import_module("deontic_mc")


def run_check(fn, limit, limit_error):
    """(verdict or None, cause or None, seconds charged)."""
    signal.setitimer(signal.ITIMER_REAL, limit)
    started = time.perf_counter()
    cause = verdict = None
    try:
        verdict = fn()
    except CheckTimeout:
        cause = "timeout"
    except limit_error:
        cause = "limit"
    except Undecided as exc:
        cause = exc.cause
    except Exception as exc:  # the benchmark survives any crash of a check
        cause = "exception"
        print(f"check raised {type(exc).__name__}: {exc}"[:300],
              file=sys.stderr)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    elapsed = time.perf_counter() - started
    return verdict, cause, (limit if cause else elapsed)


def tail_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it."""
    q = (100 * (n - 10)) // n
    rank = -(-q * n // 100)  # nearest rank, ceil(q n / 100)
    return q, rank


def code_digest(*patterns):
    """Digest of the repository files matching the glob patterns."""
    h = hashlib.sha256()
    for pattern in patterns:
        for path in sorted(ROOT.glob(pattern)):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "deontic_mc").is_dir():
        print(f"error: no deontic_mc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = BENCH / ".work" / f"{wl.name}-{args.seed}"
    (workdir / "inputs").mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)

    inputs = wl.generate(args.seed, str(workdir / "inputs"))
    digest = hashlib.sha256(json.dumps(inputs, sort_keys=True).encode())
    for path in sorted((workdir / "inputs").iterdir()):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    digest = digest.hexdigest()
    print(f"inputs: workload={wl.name} seed={args.seed} sha256={digest}")

    tracer = Tracer() if args.trace else None
    setups = []

    def set_up():
        """Import the package afresh and load the inputs; timed."""
        started = time.perf_counter()
        dm = fresh_import()
        if tracer is not None:
            importlib.import_module("deontic_mc.cli")
            tracer.install(dm)
        state = wl.setup(dm, inputs, str(workdir))
        setups.append(time.perf_counter() - started)
        return dm, state

    def measure_set_up():
        """Set up again for the timing only; the checks, the tracer and the
        reference keep the modules and inputs of the first set-up."""
        set_up()
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(first_import)
        # free the dropped modules now, so peak_rss_mb does not grow with
        # the number of passes
        gc.collect()

    dm, state = set_up()
    first_import = _package_modules()
    checks = wl.checks(dm, state)
    n = len(checks)
    limit_error = dm.ResourceLimitError

    times = [[] for _ in range(n)]
    verdicts = [[] for _ in range(n)]
    causes = [None] * n
    passes = 0
    pass_walls = []

    def one_pass():
        wl.begin_pass(dm, state)
        started = time.perf_counter()
        for i, (cid, fn) in enumerate(checks):
            if causes[i]:  # undecided earlier: charged, not re-run
                times[i].append(wl.limit_s)
                continue
            if tracer is not None:
                tracer.check = cid
            verdict, cause, spent = run_check(fn, wl.limit_s, limit_error)
            times[i].append(spent)
            if cause:
                causes[i] = cause
            else:
                verdicts[i].append(verdict)
        pass_walls.append(time.perf_counter() - started)

    if args.trace:
        one_pass()  # traced
        tracer.uninstall()
        tracer.check = None
        one_pass()  # untraced, for the overhead
        passes = 2
    else:
        calibration = [calibrate() for _ in range(3)]
        started = time.perf_counter()
        while passes < MIN_PASSES or time.perf_counter() - started < args.seconds:
            one_pass()
            passes += 1
            measure_set_up()
            calibration += [calibrate() for _ in range(3)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- correctness ------------------------------------------------------
    oracle = importlib.import_module("oracle")
    # cached per inputs and per code the references are computed with
    ref_path = workdir / ("reference-" + code_digest(
        "src/**/*.py", "tests/oracle.py", "bench/*.py") + digest[:16] + ".json")
    if ref_path.exists():
        expected = json.loads(ref_path.read_text())
    else:
        expected = wl.reference(dm, oracle, inputs, state)
        ref_path.write_text(json.dumps(expected))
    wrong = []
    for i, (cid, _) in enumerate(checks):
        for v in verdicts[i]:
            if v != expected[i]:
                wrong.append(f"{cid}: got {v}, expected {expected[i]}")
                break
    for line in wrong[:20]:
        print(f"WRONG VERDICT {line}", file=sys.stderr)

    undecided = [c for c in causes if c]
    attempted = n * passes
    failed = sum(len(times[i]) - len(verdicts[i]) for i in range(n))
    counts = {c: undecided.count(c)
              for c in ("limit", "exit_2", "exception", "timeout")}
    print(f"checks={n} passes={passes} undecided: "
          + " ".join(f"{k}={v}" for k, v in counts.items()))

    if args.trace:
        metrics = tracer.metrics()
        traced, untraced = n / pass_walls[0], n / pass_walls[1]
        metrics["trace.traced_checks_per_s"] = (traced, "1/s")
        metrics["trace.untraced_checks_per_s"] = (untraced, "1/s")
        metrics["trace.overhead_share"] = ((untraced - traced) / untraced,
                                           "ratio")
        spans_path = workdir / "spans.tsv"
        with open(spans_path, "w", encoding="utf-8") as fp:
            fp.write("index\tname\tstart\tend\tparent\tcheck\n")
            for i, s in enumerate(tracer.spans):
                fp.write(f"{i}\t{s.name}\t{s.start:.9f}\t{s.end:.9f}\t"
                         f"{'' if s.parent is None else s.parent}\t"
                         f"{s.check or ''}\n")
        print(f"spans: {len(tracer.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
        if not check_counts(workdir, digest, metrics):
            return 1
    else:
        per_check = [min(t) for t in times]
        ordered = sorted(per_check)
        q, rank = tail_percentile(n)
        print(f"check_tail_ms is p{q} over {n} checks "
              f"(each the minimum of {passes} passes); setup_s is the median "
              f"of {len(setups)} set-ups")
        clock = {"setup_s": statistics.median(setups),
                "checks_per_s": n / sum(per_check),
                "check_p50_ms": statistics.median(per_check) * 1000.0,
                "check_tail_ms": ordered[rank - 1] * 1000.0}
        scale = CALIBRATION_REF_S / min(calibration)
        print(f"wall clock: {json.dumps(clock)}; machine ran at "
              f"{scale:.3f} of reference speed (calibration "
              f"{min(calibration) * 1000:.2f} ms, reference "
              f"{CALIBRATION_REF_S * 1000:.1f} ms)")
        metrics = {
            "setup_s": (clock["setup_s"] * scale, "s"),
            "checks_per_s": (clock["checks_per_s"] / scale, "1/s"),
            "check_p50_ms": (clock["check_p50_ms"] * scale, "ms"),
            "check_tail_ms": (clock["check_tail_ms"] * scale, "ms"),
            "decided_share": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


def check_counts(workdir, digest, metrics):
    """Two traced runs of the same inputs and program must count alike."""
    counts = {k: metrics[k][0] for k in DETERMINISTIC}
    path = workdir / f"counts-{digest[:16]}-{code_digest('src/**/*.py')}.json"
    if path.exists():
        previous = json.loads(path.read_text())
        diff = {k: (previous.get(k), v) for k, v in counts.items()
                if previous.get(k) != v}
        if diff:
            print(f"traced counts differ from the previous traced run: {diff}",
                  file=sys.stderr)
            return False
        print(f"traced counts identical to the previous traced run "
              f"({len(counts)} counts)")
    else:
        path.write_text(json.dumps(counts, sort_keys=True))
    return True


if __name__ == "__main__":
    # fixed string hashing, so set iteration order and every count repeat
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from tracing import DETERMINISTIC, Tracer
    from workloads import WORKLOADS, Undecided
    sys.exit(main())
