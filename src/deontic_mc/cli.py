"""Command-line front end.

Subcommands: validate, check, mc, unroll, rss.  Exit codes are a stable
contract: 0 when the input is valid / the checked statement holds, 1 when a
check fails, 2 for usage, parse, or lookup errors and for internal errors.
``--format machine`` emits a JSON report with deterministic key ordering.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

from . import formula as fm
from . import generate, rss
from .automaton import StitAutomaton, unroll
from .errors import DeonticError
from .mc import check_ought_statement
from .tree_model import ExplicitStitModel, check_inference_condition, save_model

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _digest(path) -> str:
    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _load_any(path):
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp, parse_float=Fraction)
    if isinstance(data, dict) and "moments" in data:
        return ExplicitStitModel.from_json(data)
    if isinstance(data, dict) and "states" in data:
        return StitAutomaton.from_json(data)
    raise DeonticError(f"{path}: neither a model nor an automaton file")


class Report:
    def __init__(self, command, inputs):
        self.started = time.perf_counter()
        self.data = {
            "command": command,
            "inputs": {p: _digest(p) for p in inputs},
            "result": {},
        }

    def finish(self, fmt, lines):
        self.data["elapsed_ms"] = round(
            (time.perf_counter() - self.started) * 1000, 3)
        if fmt == "machine":
            print(json.dumps(self.data, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)


def cmd_validate(args) -> int:
    report = Report(["validate", args.path], [args.path])
    obj = _load_any(args.path)
    violations = obj.validate()
    kind = "automaton" if isinstance(obj, StitAutomaton) else "model"
    report.data["result"] = {
        "kind": kind,
        "valid": not violations,
        "violations": sorted(str(v) for v in violations),
    }
    lines = [f"{args.path}: {kind} is "
             + ("valid" if not violations else "INVALID")]
    lines += [f"  {v}" for v in sorted(str(v) for v in violations)]
    report.finish(args.format, lines)
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_check(args) -> int:
    report = Report(["check", args.path, "--at", str(args.at)], [args.path])
    model = _load_any(args.path)
    if not isinstance(model, ExplicitStitModel):
        raise DeonticError("check runs on explicit model files; "
                           "use `mc` for automata")
    statement = fm.parse(args.formula)
    mid = args.at
    hm = sorted(model.histories_through(mid))
    lines = []
    result = {"statement": fm.render(statement), "moment": mid}
    if isinstance(statement, fm.OughtStatement):
        if not (args.history or hm):
            raise DeonticError(f"no history passes through moment {mid}")
        holds = model.satisfies(mid, args.history or hm[0], statement)
        optimal = model.optimal_actions(statement.agents, mid,
                                        statement.condition)
        body_ext = model.extension(mid, statement.body)
        table = [{"action": sorted(k), "guarantees": k <= body_ext}
                 for k in optimal.actions]
        result.update({
            "holds": holds,
            "extension": sorted(body_ext),
            "optimal": [sorted(k) for k in optimal.actions],
            "guarantee_table": table,
        })
        lines.append(f"{fm.render(statement)} at moment {mid}: "
                     + ("holds" if holds else "FAILS"))
        lines.append(f"  |A|_m = {sorted(body_ext)}")
        for row in table:
            mark = "yes" if row["guarantees"] else "NO"
            lines.append(f"  optimal action {row['action']}: guarantees {mark}")
    else:
        per_history = {h: model.satisfies(mid, h, statement)
                       for h in ([args.history] if args.history else hm)}
        holds = all(per_history.values())
        ext = model.extension(mid, statement)
        result.update({
            "holds": holds,
            "per_history": {h: v for h, v in sorted(per_history.items())},
            "extension": sorted(ext),
        })
        lines.append(f"{fm.render(statement)} at moment {mid}: "
                     + ("holds" if holds else "FAILS"))
        for h, v in sorted(per_history.items()):
            lines.append(f"  {h}: {'true' if v else 'false'}")
    report.data["result"] = result
    report.finish(args.format, lines)
    return EXIT_OK if holds else EXIT_FAIL


def cmd_mc(args) -> int:
    report = Report(["mc", args.path, "--agent", args.agent], [args.path])
    aut = _load_any(args.path)
    if not isinstance(aut, StitAutomaton):
        raise DeonticError("mc runs on automaton files; use `check` for models")
    statement = fm.parse_ought(args.ought)
    if statement.agents != (args.agent,):
        raise DeonticError(
            f"--agent {args.agent!r} does not match the statement's agent "
            f"{','.join(statement.agents)!r}")
    verdict = check_ought_statement(aut, statement)
    report.data["result"] = {"statement": fm.render(statement),
                             **verdict.to_json()}
    lines = [f"{fm.render(statement)}: "
             + ("holds" if verdict.holds else "FAILS")
             + (" (vacuously: no optimal action guarantees the condition)"
                if verdict.vacuous else "")]
    for iv in verdict.intervals:
        tag = ""
        if any(a == iv.action for a, _ in verdict.optimal_actions):
            tag = f"  optimal, case={verdict.case_taken.get(iv.action, '-')}"
        lines.append(f"  {iv.action}: [{iv.lo}, {iv.hi}]{tag}")
    if verdict.failing_action:
        lines.append(f"  failing action: {verdict.failing_action}")
    if verdict.counterexample:
        cx = verdict.counterexample
        lines.append(f"  counterexample: stem {list(cx.stem)} "
                     f"loop {list(cx.loop)}")
    report.finish(args.format, lines)
    return EXIT_OK if verdict.holds else EXIT_FAIL


def cmd_unroll(args) -> int:
    report = Report(["unroll", args.path, "--depth", str(args.depth)],
                    [args.path])
    if args.depth < 1:
        raise DeonticError("--depth must be at least 1")
    aut = _load_any(args.path)
    if not isinstance(aut, StitAutomaton):
        raise DeonticError("unroll runs on automaton files")
    model = unroll(aut, args.depth, agent=args.agent)
    save_model(model, args.out)
    report.data["result"] = {
        "out": args.out,
        "moments": len(model.moments),
        "histories": len(model.histories),
        "valid": not model.validate(),
    }
    report.finish(args.format, [
        f"wrote {args.out}: {len(model.moments)} moments, "
        f"{len(model.histories)} histories"])
    return EXIT_OK


def _demo_rss1():
    model = rss.unavoidable_model()
    naive, refined = rss.rss1("alpha", fm.Atom("collision"))
    h = sorted(model.histories_through(0))[0]
    return [
        ("naive rule fails when the collision is unavoidable",
         not model.satisfies(0, h, naive)),
        ("refined (refraining) rule holds",
         model.satisfies(0, h, refined)),
    ]


def _demo_force_others():
    model = rss.force_others_model()
    agents = ("alpha", "beta")
    not_trow = fm.Plain(fm.Not(rss.trow_formula("alpha", agents)))
    not_p = fm.Not(fm.Atom(rss.proceeds_atom("alpha")))
    grow = fm.Atom(rss.grow_atom("beta", "alpha"))
    h = sorted(model.histories_through(0))[0]
    checks = [
        ("no-taking rule holds", model.satisfies(0, h, fm.ought("alpha", not_trow))),
        ("refusing to proceed is impossible (empty extension)",
         not model.extension(0, not_p)),
        ("so the obligation falls on everyone else granting right-of-way",
         model.satisfies(0, h, fm.ought("alpha", fm.Plain(grow)))),
        ("disjunction extension is the union of the extensions",
         model.extension(0, fm.Or(not_p, grow))
         == model.extension(0, not_p) | model.extension(0, grow)),
    ]
    return checks


def _demo_fig2():
    model = rss.fig2_model()
    return [
        ("at the root the derived obligation is stay-in-lane and chi",
         model.satisfies(0, "ha", fm.parse("O[alpha cstit: (A !p) & chi]"))),
        ("after passing, the obligation is to return within two steps",
         model.satisfies(5, "h0", fm.parse("O[alpha cstit: F[0:2] p]"))),
        ("returning within one step is too restrictive (not obligatory)",
         not model.satisfies(5, "h0", fm.parse("O[alpha cstit: F[0:1] p]"))),
        ("the hand-written alternative spec is not an obligation at the root",
         not model.satisfies(0, "ha", fm.parse("O[alpha cstit: E F[1:2] p]"))),
    ]


def _demo_fig3():
    model = rss.fig3_model()
    ok, witnesses = check_inference_condition(model, "alpha", 0,
                                              rss.granted_atom("alpha"),
                                              rss.proceeds_atom("alpha"))
    checks = [("inference condition holds", ok)]
    if witnesses:
        _, h, m2 = witnesses[0]
        checks.append(
            ("the pushy history falls out of the optimal actions later",
             all(h not in cell
                 for cell in model.optimal_actions("alpha", m2).actions)))
    checks.append(("do-not-wait-forever holds at the root",
                   model.satisfies(0, "htilde", rss.rss6("alpha", 2))))
    checks.append(("keep-right-of-way holds at the later choice moment",
                   model.satisfies(1, "hgood", rss.rss3(["alpha"]).prohib[0])))
    return checks


def _demo_refrain(seed, count=100):
    ok = True
    for i in range(count):
        rng = random.Random((seed, i).__hash__() & 0xFFFFFFFF)
        model = generate.random_model(rng, n_agents=rng.randint(1, 2))
        body = generate.random_path_formula(rng, 2, model.atoms)
        agent = model.agents[0]
        once = fm.DstitOf(agent, fm.Plain(body))
        thrice = fm.DstitOf(agent, fm.NegatedObligation(
            fm.DstitOf(agent, fm.NegatedObligation(once))))
        twice = fm.DstitOf(agent, fm.DstitOf(agent, fm.Plain(body)))
        for mid in model.moments:
            for h in model.histories_through(mid):
                if model.satisfies(mid, h, thrice) != model.satisfies(mid, h, once):
                    ok = False
                if model.satisfies(mid, h, twice) != model.satisfies(mid, h, once):
                    ok = False
    return [(f"refrain-from-refraining equals doing on {count} random models",
             ok)]


_DEMOS = {
    "rss1-unavoidable": lambda args: _demo_rss1(),
    "force-others": lambda args: _demo_force_others(),
    "fig2-obligations": lambda args: _demo_fig2(),
    "fig3-inference": lambda args: _demo_fig3(),
    "refrain-refrain": lambda args: _demo_refrain(args.seed),
}


def cmd_rss(args) -> int:
    if args.export:
        written = rss.export_fixtures(args.export)
        for path in written:
            print(f"wrote {path}")
        return EXIT_OK
    if args.name is None:
        raise DeonticError("give a demonstration name or --export DIR; "
                           f"known names: {', '.join(sorted(_DEMOS))}")
    if args.name not in _DEMOS:
        raise DeonticError(f"unknown demonstration {args.name!r}; "
                           f"known names: {', '.join(sorted(_DEMOS))}")
    report = Report(["rss", args.name], [])
    checks = _DEMOS[args.name](args)
    report.data["result"] = {
        "demo": args.name,
        "checks": [{"name": n, "pass": bool(v)} for n, v in checks],
    }
    lines = [f"{'PASS' if v else 'FAIL'}  {n}" for n, v in checks]
    report.finish(args.format, lines)
    return EXIT_OK if all(v for _, v in checks) else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deontic-mc",
        description="Validate stit models/automata and check obligations.")
    parser.add_argument("--format", choices=("human", "machine"),
                        default="human")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check model/automaton axioms")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("check", help="evaluate a statement on a model file")
    p.add_argument("path")
    p.add_argument("--at", type=int, required=True, metavar="MOMENT")
    p.add_argument("--history", default=None)
    p.add_argument("--formula", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("mc", help="model-check an ought on an automaton")
    p.add_argument("path")
    p.add_argument("--agent", required=True)
    p.add_argument("--ought", required=True)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("unroll", help="unroll an automaton into a model file")
    p.add_argument("path")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--agent", default="alpha")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_unroll)

    p = sub.add_parser("rss", help="run a named rule demonstration")
    p.add_argument("name", nargs="?")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export", default=None, metavar="DIR")
    p.set_defaults(func=cmd_rss)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses, built on its first call; every parse
    returns a fresh namespace, so nothing carries over between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DeonticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # a crash must not read as exit 1, "fails"
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
