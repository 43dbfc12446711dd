"""Root-ought decision over automata: intervals, cases, oracle agreement."""

import importlib.util
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from deontic_mc import formula as fm
from deontic_mc import mc
from deontic_mc.automaton import (
    StitAutomaton,
    extremal_values,
    prime_automaton,
    restrict_first_action,
)
from deontic_mc.ctlstar import TransitionSystem, check_universal, strip_weights
from deontic_mc.errors import AutomatonError, GrammarError
from deontic_mc.generate import (
    random_automaton,
    random_obligation,
    random_path_formula,
)
from deontic_mc.mc import (
    check_conditional_ought,
    check_ought,
    check_ought_statement,
)

import oracle
from conftest import make_t0


def counting(owner, name, calls):
    """owner.name, logging its name in calls on each call."""
    func = getattr(owner, name)

    def wrapper(*args):
        calls.append(name)
        return func(*args)
    return wrapper


# ======================== Worked examples ========================

class TestCheckOught:
    def test_gp_on_t0(self, t0):
        v = check_ought(t0, "alpha", fm.parse_obligation("G p"))
        assert v.holds
        assert [(iv.action, iv.lo, iv.hi) for iv in v.intervals] == \
            [("K1", 4, 4), ("K2", 2, 2)]
        assert [a for a, _ in v.optimal_actions] == ["K1"]
        assert v.case_taken == {"K1": "ctls"}

    def test_dstit_future_p(self):
        aut = make_t0(root_label=())
        v = check_ought(aut, "alpha",
                        fm.parse_obligation("[alpha dstit: F p]"))
        assert v.holds
        assert v.case_taken == {"K1": "dstit_positive"}

    def test_equal_weights_fails_with_lasso(self):
        aut = StitAutomaton(
            ["q0", "q1", "q2"], "q0", ["K1", "K2", "stay"], [],
            [("q0", "K1", "q1", 1), ("q1", "stay", "q1", 1),
             ("q0", "K2", "q2", 1), ("q2", "stay", "q2", 1)],
            {"q0": {"p"}, "q1": {"p"}, "q2": set()})
        v = check_ought(aut, "alpha", fm.parse_obligation("G p"))
        assert not v.holds
        assert v.failing_action == "K2"
        assert v.counterexample is not None
        assert any("q2" in q for q in v.counterexample.loop)

    def test_negated_dstit(self, t0):
        # K1 forces G p while q2's branch avoids it, so the refraining
        # obligation fails on the optimal K1
        v = check_ought(t0, "alpha",
                        fm.parse_obligation("![alpha dstit: G p]"))
        assert not v.holds and v.failing_action == "K1"
        assert v.case_taken == {"K1": "dstit_negated"}

    def test_verdict_invariants(self, t0):
        v = check_ought(t0, "alpha", fm.parse_obligation("F p"))
        assert [iv.action for iv in v.intervals] == t0.first_actions()
        for iv in v.intervals:
            assert iv.lo <= iv.hi
            from deontic_mc.automaton import prime_automaton, \
                restrict_first_action
            again = extremal_values(prime_automaton(
                restrict_first_action(t0, iv.action), t0))
            assert (again.lo, again.hi) == (iv.lo, iv.hi)
        if not v.holds:
            assert v.failing_action is not None

    def test_monotonicity_adding_dominated_action(self, t0):
        """A strictly dominated extra first action never flips the verdict."""
        for text in ("G p", "F p", "[alpha dstit: G p]"):
            base = check_ought(t0, "alpha", fm.parse_obligation(text)).holds
            extended = StitAutomaton(
                list(t0.states) + ["q3"], "q0", list(t0.actions) + ["K0"], [],
                list(t0.transitions) + [("q0", "K0", "q3", Fraction(1, 2)),
                                        ("q3", "stay", "q3", Fraction(1, 2))],
                {**t0.labels, "q3": set()})
            assert check_ought(extended, "alpha",
                               fm.parse_obligation(text)).holds == base

    def test_dominated_action_gets_no_root(self, monkeypatch):
        """Only the optimal first actions get a root in the check's system:
        K2 is dominated on t0, so no root leads to its target q2.  The
        system is built on an automaton's first check, so each statement is
        checked on a fresh t0."""
        for text in ("G p", "[alpha dstit: G p]", "![alpha dstit: G p]"):
            expected = check_ought(make_t0(), "alpha", text).to_json()
            targets = []

            def counting(ts, root, succ, label,
                         add=TransitionSystem.add_root):
                targets.append(list(succ))
                return add(ts, root, succ, label)

            monkeypatch.setattr(TransitionSystem, "add_root", counting)
            assert check_ought(make_t0(), "alpha", text).to_json() == expected
            monkeypatch.undo()
            assert targets == [["q1"]], text

    def test_one_tableau_per_distinct_formula(self, t0, monkeypatch):
        """Each check compiles each distinct formula once, however many
        first actions, dstit sides and conditions ask about it."""
        from deontic_mc import ctlstar
        built = []

        def counting(f, build=ctlstar.ltl_to_buchi):
            built.append(f)
            return build(f)

        monkeypatch.setattr(ctlstar, "ltl_to_buchi", counting)
        two_optimal = StitAutomaton(
            ["q0", "q1", "q2"], "q0", ["K1", "K2", "stay"], [],
            [("q0", "K1", "q1", 4), ("q1", "stay", "q1", 5),
             ("q0", "K2", "q2", 4), ("q2", "stay", "q2", 4)],
            {"q0": {"p"}, "q1": {"p"}, "q2": set()})
        for aut in (t0, two_optimal):
            for body, cond, n in (
                    ("G p", None, 1),
                    ("[alpha dstit: G p]", None, 1),
                    ("![alpha dstit: F p]", None, 1),
                    ("F p", "F p", 1),
                    ("[alpha dstit: G p]", "G p", 1),
                    ("![alpha dstit: G p]", "[alpha dstit: G p]", 1),
                    # one tableau for the E F subformula, one for the rest
                    ("G (E F p)", "G (E F p)", 2)):
                built.clear()
                check_conditional_ought(aut, "alpha", body, cond)
                assert len(built) == len(set(built)) == n, (body, cond)

    def test_each_formula_compiled_once(self, t0, monkeypatch):
        """A check compiles each distinct formula once, negated straight to
        normal form, and every pass after that reads the rows: no formula
        is unfolded or normalized."""
        compiled = []

        def counting(f, negated=None, build=fm.compile):
            compiled.append((f, negated))
            return build(f, negated)

        def refuse(*args):
            raise AssertionError("a pass left the compiled rows")

        monkeypatch.setattr(fm, "compile", counting)
        monkeypatch.setattr(fm, "expand_bounded", refuse)
        monkeypatch.setattr(fm, "nnf", refuse)
        check_conditional_ought(t0, "alpha", "G (E F p)", "G (E F p)")
        assert compiled == [(fm.parse_formula("G (E F p)"), True)]

    def test_first_phase_builds_no_copies(self, monkeypatch):
        """check_ought and its conditional variant neither restrict nor
        prime, and strip the user's automaton at most once per check."""
        calls = []
        for name in ("restrict_first_action", "prime_automaton",
                     "strip_weights"):
            monkeypatch.setattr(mc, name, counting(mc, name, calls))
        rng = random.Random(12)
        checks = 0
        for _ in range(60):
            aut = random_automaton(rng)
            ob = random_obligation(rng, "alpha", 2, ["p", "q"])
            cond = random_obligation(rng, "alpha", 2, ["p", "q"])
            for check in (lambda: check_ought(aut, "alpha", ob),
                          lambda: check_conditional_ought(aut, "alpha", ob,
                                                          cond)):
                before = len(calls)
                check()
                assert calls[before:] in ([], ["strip_weights"])
                checks += 1
        assert 0 < calls.count("strip_weights") <= checks

    def test_dead_end_automaton_rejected(self):
        aut = StitAutomaton(["q0", "q1"], "q0", ["K"], [],
                            [("q0", "K", "q1", 1)], {})
        with pytest.raises(AutomatonError):
            check_ought(aut, "alpha", fm.parse_obligation("G p"))

    def test_unreachable_dead_end_gets_a_verdict(self, t0):
        """A state that no execution reaches may be a dead end (validate
        accepts it); every verdict equals the one without that state.  Only
        the work counts may differ: a path quantifier's reduction labels
        every state, reached or not."""
        data = t0.to_json()
        data["states"] += ["qu", "qd"]
        data["transitions"].append(
            {"from": "qu", "action": "stay", "to": "qd", "weight": "9"})
        data["labels"]["qd"] = ["p"]
        with_dead_end = StitAutomaton.from_json(data)
        assert with_dead_end.validate() == []
        for text in ("G p", "F p", "A G p", "E F p", "[alpha dstit: G p]",
                     "![alpha dstit: F p]"):
            ob = fm.parse_obligation(text)
            got, want = (check_ought(aut, "alpha", ob).to_json()
                         for aut in (with_dead_end, t0))
            del got["stats"], want["stats"]
            assert got == want, text

    @pytest.mark.parametrize("obligation,message", [
        ("[beta dstit: p]", "dstit agent 'beta' is not the checked agent "
         "'alpha' [production: obligation]"),
        ("![beta dstit: p]", "dstit agent 'beta' is not the checked agent "
         "'alpha' [production: obligation]"),
        # agent and shape both wrong: the agent error wins when positive
        ("[beta dstit: ![alpha dstit: p]]", "dstit agent 'beta' is not the "
         "checked agent 'alpha' [production: obligation]"),
        ("[alpha dstit: ![alpha dstit: p]]", "obligation does not normalize "
         "to phi, [a dstit: phi] or ![a dstit: phi] [production: obligation]"),
        ("![alpha dstit: [beta dstit: p]]", "obligation does not normalize "
         "to phi, [a dstit: phi] or ![a dstit: phi] [production: obligation]"),
        # and the shape error wins when negated
        ("![beta dstit: [alpha dstit: p]]", "obligation does not normalize "
         "to phi, [a dstit: phi] or ![a dstit: phi] [production: obligation]"),
    ])
    def test_obligation_shape_errors(self, t0, obligation, message):
        with pytest.raises(GrammarError) as err:
            check_ought(t0, "alpha", fm.parse_obligation(obligation))
        assert str(err.value) == message

    def test_unsupported_obligation_shape(self, t0):
        refraining = fm.DstitOf("alpha", fm.NegatedObligation(
            fm.DstitOf("alpha", fm.Plain(fm.Atom("p")))))
        with pytest.raises(GrammarError):
            check_ought(t0, "alpha", refraining)

    def test_wrong_dstit_agent(self, t0):
        with pytest.raises(GrammarError, match="agent"):
            check_ought(t0, "alpha", fm.parse_obligation("[beta dstit: p]"))

    def test_normalized_shapes_accepted(self, t0):
        stacked = fm.parse_obligation("[alpha dstit: [alpha dstit: G p]]")
        direct = fm.parse_obligation("[alpha dstit: G p]")
        assert check_ought(t0, "alpha", stacked).holds == \
            check_ought(t0, "alpha", direct).holds

    @pytest.mark.parametrize("links", [3000, 3001])
    def test_deep_negation_chains_are_decided(self, links):
        """3,000 negated obligations, or 3,000 negations of the formula,
        over [alpha dstit: G p] get the verdict of their one- or two-link
        equivalent: no obligation pass recurses along the chain."""
        dstit = fm.parse_obligation("[alpha dstit: G p]")
        ob, f = dstit, fm.obligation_to_formula(dstit)
        for _ in range(links):
            ob, f = fm.NegatedObligation(ob), fm.Not(f)
        short = dstit if links % 2 == 0 else fm.NegatedObligation(dstit)
        expected = check_ought(make_t0(), "alpha", short).to_json()
        assert expected["optimal"][0]["case"] == (
            mc.CASE_DSTIT_POSITIVE if links % 2 == 0 else mc.CASE_DSTIT_NEGATED)
        for deep in (ob, f):
            assert check_ought(make_t0(), "alpha", deep).to_json() == expected


class TestConditionalOught:
    def test_true_condition_matches_plain_check(self, t0):
        for text in ("G p", "F p"):
            plain = check_ought(t0, "alpha", fm.parse_obligation(text))
            cond = check_conditional_ought(
                t0, "alpha", fm.parse_obligation(text),
                fm.parse_obligation("true"))
            assert cond.holds == plain.holds and not cond.vacuous

    def test_unguaranteeable_condition_is_vacuous(self, t0):
        v = check_conditional_ought(t0, "alpha",
                                    fm.parse_obligation("G p"),
                                    fm.parse_obligation("G !p"))
        assert v.holds and v.vacuous

    def test_merge_scenario(self, merge):
        """The do-not-wait-forever conditional ought holds on the merge
        automaton, where waiting forever is not optimal."""
        from deontic_mc import rss
        v = check_ought_statement(merge, rss.rss6("alpha", 2))
        assert v.holds and not v.vacuous
        assert [a for a, _ in v.optimal_actions] == ["go"]

    def test_group_statement_rejected(self, t0):
        st = fm.ought(("alpha", "beta"), fm.Plain(fm.Atom("p")))
        with pytest.raises(GrammarError):
            check_ought_statement(t0, st)


# ======================== Counterexamples ========================

class TestCounterexamples:
    def test_counterexamples_are_lassos_of_the_automaton(self):
        """Every ought counterexample starts at the user's initial state,
        follows the automaton's transitions (the loop closing too), takes
        the failing action first, and violates its formula under the
        independent scan evaluator."""
        rng = random.Random(31)
        found = 0
        for _ in range(150):
            aut = random_automaton(rng)
            v = check_ought(aut, "alpha",
                            random_obligation(rng, "alpha", 3, ["p", "q"]))
            cx = v.counterexample
            if cx is None:
                continue
            found += 1
            assert cx.stem[0] == aut.initial
            path = cx.stem + cx.loop + cx.loop[:1]
            edges = {(t.src, t.dst): t.action for t in aut.transitions}
            assert all((a, b) in edges for a, b in zip(path, path[1:]))
            assert edges[path[0], path[1]] == v.failing_action
            assert not oracle.scan_eval(cx.formula,
                                        [aut.label(q) for q in cx.stem],
                                        [aut.label(q) for q in cx.loop])
        assert found >= 30


# ======================== Stats ========================

class TestStats:
    def test_counts_are_pinned(self, merge):
        """stats holds the Buchi nodes built and the product nodes explored.
        rss6 BR[3] holds on merge without exploring the product: at the
        root !p_alpha is true, so the negation has no start node there.
        F[0:3] g_alpha fails.  Its negation's chain has one node per
        position 0 to 3, and the last promises nothing, so the search
        explores the product nodes of positions 0 to 2 and decides the
        third's successor on sight: 3 product nodes.  The counterexample's
        walk after it reads T, the fifth Buchi node."""
        from deontic_mc import rss
        v = check_ought_statement(merge, rss.rss6("alpha", 3))
        assert v.holds
        assert v.to_json()["stats"] == {"buchi_states": 3, "product_nodes": 0}
        v = check_ought_statement(
            merge, fm.parse("O[alpha cstit: F[0:3] g_alpha]"))
        assert not v.holds
        assert v.to_json()["stats"] == {"buchi_states": 5, "product_nodes": 3}

    def test_counts_sum_every_product_of_the_check(self, monkeypatch):
        """The counts are the nodes and explored nodes of every product
        that the check built, the reduction's included, and a fresh copy
        of the automaton reads the same counts."""
        from deontic_mc import ctlstar
        built = []

        class Recorded(ctlstar._Product):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(ctlstar, "_Product", Recorded)
        rng = random.Random(32)
        for _ in range(60):
            aut = random_automaton(rng)
            ob = random_obligation(rng, "alpha", 3, ["p", "q"],
                                   allow_quantifiers=True)
            built.clear()
            stats = check_ought(aut, "alpha", ob).to_json()["stats"]
            assert stats == {
                "buchi_states": sum(len(p.buchi.states) for p in built),
                "product_nodes": sum(len(p._succ) for p in built)}
            fresh = StitAutomaton.from_json(aut.to_json())
            assert check_ought(fresh, "alpha", ob).to_json()["stats"] == stats


# ======================== Shared checks ========================

def per_action_verdict(aut, agent, obligation, condition):
    """The ought decided with one check_universal per (action, formula) on
    the stripped primed copy of the automaton, as before the checks were
    shared: (holds, failing action, vacuous, has counterexample)."""
    shape, phi = mc._obligation_shape(mc._coerce_obligation(obligation), agent)
    intervals = [extremal_values(aut, a) for a in aut.first_actions()]
    optimal = [iv.action for iv in intervals
               if not any(o.lo > iv.hi for o in intervals)]

    def forall(action, f):
        ts = strip_weights(aut if action is None else prime_automaton(
            restrict_first_action(aut, action), aut))
        return check_universal(ts, f)[0]

    def guarantees(action, shape, f):
        ok_n = forall(action, f)
        if shape == mc.CASE_CTLS:
            return ok_n, not ok_n
        ok_full = forall(None, f)
        if shape == mc.CASE_DSTIT_POSITIVE:
            return ok_n and not ok_full, not ok_full and not ok_n
        return ok_full or not ok_n, False

    retained = optimal
    if condition is not None:
        cond = mc._obligation_shape(mc._coerce_obligation(condition), agent)
        retained = [a for a in optimal if guarantees(a, *cond)[0]]
    for action in retained:
        ok, refuted = guarantees(action, shape, phi)
        if not ok:
            return False, action, False, refuted
    return True, None, not retained, False


class TestSharedChecks:
    def test_shared_system_matches_per_action_copies(self):
        """One system and one check per formula give, for every optimal
        action and for the full automaton, the verdict of check_universal
        on that action's stripped primed copy; the oughts built from them
        match the per-action decision and, where it applies, the oracle.
        The quantified draws built 521 Buchi states and explored 708
        product nodes when every node was expanded.  461 of those nodes had
        a free Buchi node, T's included.  Now a free one is decided on
        sight, unexpanded, and the T's past it are never met: 247 are left.  118 of the states were T.  As no free node is
        expanded now, T is built only where a mask that is not empty
        expands to it (7 times) or a counterexample's walk reads it (37
        times), which leaves 521 - 118 + 44 = 447."""
        quantified = conditional = oracle_checked = 0
        quantified_stats = [0, 0]
        for i, aut, ob, cond in shared_draws():
            quant = i % 3 == 0
            quantified += quant
            conditional += cond is not None

            pipe = mc._Pipeline(aut)
            for shape_of in (ob,) if cond is None else (ob, cond):
                _, phi = mc._obligation_shape(shape_of, "alpha")
                for iv in pipe.optimal:
                    primed = strip_weights(prime_automaton(
                        restrict_first_action(aut, iv.action), aut))
                    assert pipe._forall(iv.action, phi) == \
                        check_universal(primed, phi)[0]
                assert pipe._forall(None, phi) == \
                    check_universal(strip_weights(aut), phi)[0]

            v = check_conditional_ought(aut, "alpha", ob, cond)
            assert (v.holds, v.failing_action, v.vacuous,
                    v.counterexample is not None) == \
                per_action_verdict(aut, "alpha", ob, cond)
            if quant:
                quantified_stats[0] += v.stats["buchi_states"]
                quantified_stats[1] += v.stats["product_nodes"]
            if cond is None and not quant:
                assert v.holds == oracle.brute_force_ought(aut, "alpha", ob)
                oracle_checked += 1
        assert quantified >= 140 and conditional >= 210
        assert oracle_checked >= 100
        assert quantified_stats == [447, 247]

    def test_lassos_from_a_start_at_t(self):
        """Three draws whose stem reaches a start node at T, the tableau
        node that promises nothing: the walk of live states starts at that
        node's own state, so the run closes its loop through it and the
        stem does not repeat it.  Each lasso is an automaton path (the
        check re-validates that it violates its formula), and the search's
        counts are as before."""
        want = {129: (("q0", "q1"), ("q2", "q0", "q1"), 8, 3),
                289: (("q0",), ("q0",), 3, 1),
                397: (("q0",), ("q1",), 3, 2)}
        for i, aut, ob, cond in shared_draws():
            if i not in want:
                continue
            v = check_conditional_ought(aut, "alpha", ob, cond)
            cx = v.counterexample
            assert (cx.stem, cx.loop, v.stats["buchi_states"],
                    v.stats["product_nodes"]) == want[i]
            path = cx.stem + cx.loop + cx.loop[:1]
            edges = {(t.src, t.dst) for t in aut.transitions}
            assert all((a, b) in edges for a, b in zip(path, path[1:]))


def shared_draws():
    """TestSharedChecks' 420 draws: (index, automaton, obligation, condition
    or None), every third obligation quantified, every second conditional."""
    rng = random.Random(2024)
    for i in range(420):
        aut = random_automaton(rng)
        quant = i % 3 == 0
        ob = random_obligation(rng, "alpha", 3, ["p", "q"], quant)
        cond = None
        if i % 2 == 0:
            cond = random_obligation(rng, "alpha", 2, ["p", "q"], quant)
        yield i, aut, ob, cond


# ======================== First-phase memo ========================

def bench_workloads():
    """The benchmark's workload module, for its wide automaton generator."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def three_shapes(phi):
    dstit = fm.DstitOf("alpha", fm.Plain(phi))
    return [fm.Plain(phi), dstit, fm.NegatedObligation(dstit)]


def check_sequence(bodies, conditions):
    """Every body in the three shapes, unconditional, then each shape of a
    body under a condition of the next shape."""
    out = []
    for phi, cond in zip(bodies, conditions):
        obs, conds = three_shapes(phi), three_shapes(cond)
        out += [(ob, None) for ob in obs]
        out += [(ob, conds[(i + 1) % 3]) for i, ob in enumerate(obs)]
    return out


class TestFirstPhaseMemo:
    def test_repeated_checks_match_fresh_automata(self):
        """Checks in sequence on one automaton, which share its first
        phase, give byte for byte the verdict of a fresh copy of the
        automaton per check, and agree with the oracle: random automata
        and small automata of the benchmark's wide generator, in the three
        shapes and under conditions."""
        rng = random.Random(808)
        cases = []
        for _ in range(60):
            bodies = [random_path_formula(rng, 3, ["p", "q"]) for _ in range(2)]
            conds = [random_path_formula(rng, 2, ["p", "q"]) for _ in range(2)]
            # at most 4 states: the oracle enumerates every lasso per check
            cases.append((random_automaton(rng, max_states=4),
                          check_sequence(bodies, conds)))
        wl = bench_workloads()
        # the wide workload's bodies, each in the three shapes
        bodies = [fm.parse_formula(t)
                  for t in ("G p", "F q", "F r", "G (p | q)", "G F q")]
        for i in range(4):
            aut = StitAutomaton.from_json(wl._wide_automaton(rng, i, 2, 40))
            cases.append((aut, check_sequence(bodies, bodies[1:] + bodies[:1])))
        n_checks = held = 0
        for aut, sequence in cases:
            for ob, cond in sequence:
                v = check_conditional_ought(aut, "alpha", ob, cond)
                fresh = check_conditional_ought(
                    StitAutomaton.from_json(aut.to_json()), "alpha", ob, cond)
                assert json.dumps(v.to_json()) == json.dumps(fresh.to_json())
                assert v.holds == oracle.brute_force_ought(aut, "alpha", ob,
                                                           cond), (ob, cond)
                n_checks += 1
                held += v.holds
        assert n_checks == 60 * 12 + 4 * 30
        assert 0 < held < n_checks

    def test_first_phase_runs_once_per_automaton(self, monkeypatch):
        """Over k checks of one automaton the validation, the intervals,
        the stripping and the roots are computed on the first check only."""
        calls = []
        for owner, name in ((mc, "extremal_values"), (mc, "strip_weights"),
                            (StitAutomaton, "validate"),
                            (TransitionSystem, "add_root")):
            monkeypatch.setattr(owner, name, counting(owner, name, calls))
        aut = make_t0()
        for ob, cond in check_sequence([fm.parse_formula("G p")],
                                       [fm.parse_formula("F p")]):
            check_conditional_ought(aut, "alpha", ob, cond)
        assert sorted(calls) == ["add_root", "extremal_values",
                                 "extremal_values", "strip_weights",
                                 "validate"]

    def test_fields_cannot_change(self, t0):
        for name in ("states", "initial", "actions", "final", "transitions",
                     "labels", "_out"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(t0, name, getattr(t0, name))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(t0, name)
        with pytest.raises(AttributeError):
            t0.states.append("q3")
        with pytest.raises(AttributeError):
            t0.final.add("q1")
        with pytest.raises(TypeError):
            t0.labels["q2"] = frozenset({"p"})
        with pytest.raises(AttributeError):
            t0.out("q0").append(t0.transitions[0])
        assert isinstance(t0.actions, tuple)
        assert isinstance(t0.transitions, tuple)

    def test_returned_results_are_copies(self, t0):
        """Changing what a check or validate() returned changes nothing
        that a later call returns."""
        broken = StitAutomaton(["q0", "q1"], "q0", ["K"], [],
                               [("q0", "K", "q1", 1)], {})
        found = broken.validate()
        assert found
        found.clear()
        assert broken.validate()
        with pytest.raises(AutomatonError, match="no-dead-end"):
            check_ought(broken, "alpha", "G p")

        first = check_ought(t0, "alpha", "G p")
        expected = first.to_json()
        first.intervals.clear()
        first.optimal_actions.append(("K2", first.optimal_actions[0][1]))
        first.case_taken["K2"] = "ctls"
        assert check_ought(t0, "alpha", "G p").to_json() == expected


# ======================== Oracle agreement ========================

class TestOracleAgreement:
    def test_verdict_matches_brute_force(self):
        """check_ought equals the direct lasso-set evaluation of the
        dominance ought (a slice of the acceptance criterion)."""
        rng = random.Random(77)
        for _ in range(60):
            aut = random_automaton(rng)
            ob = random_obligation(rng, "alpha", 3, ["p", "q"])
            assert check_ought(aut, "alpha", ob).holds == \
                oracle.brute_force_ought(aut, "alpha", ob)

    def test_bounded_release_frontier(self, merge):
        """BR[n] unfolds into n next-steps, and the tableau is built only as
        far as the product needs it: rss6 on merge for n in 1..14, and the
        shape O[a cstit: ![a dstit: !p BR[n] q]] on random automata at
        n = 8, 11 and 14, are each decided as the oracle decides them.
        Past the eager tableau's 16 bits, rss6 up to BR[30], F[0:20],
        X^64 and X^8 X^7 are each decided within 0.1 s."""
        from deontic_mc import rss
        for n in range(1, 15):
            st = rss.rss6("alpha", n)
            assert check_ought_statement(merge, st).holds == \
                oracle.brute_force_ought(merge, "alpha", st.body,
                                         st.condition), n
        frontier = [rss.rss6("alpha", n) for n in range(8, 31)]
        frontier += [fm.parse(f"O[alpha cstit: {t}]") for t in (
            "F[0:20] p_alpha", "X^64 p_alpha", "X^8 X^7 p_alpha")]
        for st in frontier:
            started = time.perf_counter()
            check_ought_statement(merge, st)
            assert time.perf_counter() - started < 0.1, fm.render(st)
        rng = random.Random(4)
        automata = [random_automaton(rng) for _ in range(4)]
        for n in (8, 11, 14):
            st = fm.parse(f"O[alpha cstit: ![alpha dstit: !p BR[{n}] q]]")
            verdicts = []
            for aut in automata:
                verdicts.append(check_ought_statement(aut, st).holds)
                assert verdicts[-1] == \
                    oracle.brute_force_ought(aut, "alpha", st.body), n
            assert set(verdicts) == {True, False}, n
