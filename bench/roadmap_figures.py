"""Re-measure the ROADMAP's performance figures (single runs, wall time).

    python3 bench/roadmap_figures.py > figures.json

* criterion 5: 500 acceptance-suite draws, ``check_ought`` against the
  brute-force oracle ``tests/oracle.brute_force_ought`` (total seconds each);
* the rss6 ``BR[n]`` ladder on the two-state merge fixture, n = 3..8;
* one ``random_automaton`` of about 15.6k states, checked with ``F p``.

Takes a few minutes; the benchmark proper is ``bench/run.py``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracle  # noqa: E402
from deontic_mc import ResourceLimitError, rss  # noqa: E402
from deontic_mc.formula import parse_obligation  # noqa: E402
from deontic_mc.generate import random_automaton, random_obligation  # noqa: E402
from deontic_mc.mc import check_ought, check_ought_statement  # noqa: E402


def timed(fn):
    started = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - started


def criterion_5(trials=500):
    algo = brute = 0.0
    for i in range(trials):
        rng = random.Random(5_000_000 + i)
        aut = random_automaton(rng, max_states=6, max_first_actions=3,
                               weights=(1, 2, 3, 4, 5))
        ob = random_obligation(rng, "alpha", 3, ["p", "q"])
        a, t_algo = timed(lambda: check_ought(aut, "alpha", ob).holds)
        b, t_brute = timed(lambda: oracle.brute_force_ought(aut, "alpha", ob))
        assert a == b, i
        algo += t_algo
        brute += t_brute
    return {"trials": trials, "check_ought_s": algo, "oracle_s": brute}


def br_ladder(bounds=range(3, 9)):
    merge = rss.merge_automaton()
    out = {}
    for n in bounds:
        try:
            _, spent = timed(lambda: check_ought_statement(merge,
                                                           rss.rss6("alpha", n)))
            out[f"BR[{n}]"] = spent
        except ResourceLimitError as exc:
            out[f"BR[{n}]"] = f"refused: {exc}"
    return out


def large_random(target=15_600):
    i = 0
    while True:
        rng = random.Random(i)
        if abs(rng.randint(2, 20_000) - target) < 200:
            break
        i += 1
    aut = random_automaton(random.Random(i), max_states=20_000)
    _, spent = timed(lambda: check_ought(aut, "alpha", parse_obligation("F p")))
    return {"seed": i, "states": len(aut.states),
            "transitions": len(aut.transitions), "check_ought_s": spent}


if __name__ == "__main__":
    print(json.dumps({"criterion_5": criterion_5(), "br_ladder": br_ladder(),
                      "large_random": large_random()}, indent=2))
