"""Root-ought decision over automata: intervals, cases, oracle agreement."""

import random
from fractions import Fraction

import pytest

from deontic_mc import formula as fm
from deontic_mc import mc
from deontic_mc.automaton import (
    StitAutomaton,
    extremal_values,
    prime_automaton,
    restrict_first_action,
)
from deontic_mc.ctlstar import check_universal, strip_weights
from deontic_mc.errors import AutomatonError, GrammarError
from deontic_mc.generate import random_automaton, random_obligation
from deontic_mc.mc import (
    check_conditional_ought,
    check_ought,
    check_ought_statement,
)

import oracle
from conftest import make_t0


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
                t0.states + ["q3"], "q0", t0.actions + ["K0"], [],
                t0.transitions + [("q0", "K0", "q3", Fraction(1, 2)),
                                  ("q3", "stay", "q3", Fraction(1, 2))],
                {**t0.labels, "q3": set()})
            assert check_ought(extended, "alpha",
                               fm.parse_obligation(text)).holds == base

    def test_dominated_action_gets_no_root(self, t0, monkeypatch):
        """Only the optimal first actions get a root in the check's system:
        K2 is dominated on t0, so no root leads to its target q2."""
        from deontic_mc.ctlstar import TransitionSystem
        for text in ("G p", "[alpha dstit: G p]", "![alpha dstit: G p]"):
            expected = check_ought(t0, "alpha", text).to_json()
            targets = []

            def counting(ts, root, succ, label,
                         add=TransitionSystem.add_root):
                targets.append(list(succ))
                return add(ts, root, succ, label)

            monkeypatch.setattr(TransitionSystem, "add_root", counting)
            assert check_ought(t0, "alpha", text).to_json() == expected
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

    def test_first_phase_builds_no_copies(self, monkeypatch):
        """check_ought and its conditional variant neither restrict nor
        prime, and strip the user's automaton at most once per check."""
        calls = []

        def counted(name):
            func = getattr(mc, name)

            def wrapper(*args):
                calls.append(name)
                return func(*args)
            return wrapper

        for name in ("restrict_first_action", "prime_automaton",
                     "strip_weights"):
            monkeypatch.setattr(mc, name, counted(name))
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
        match the per-action decision and, where it applies, the oracle."""
        rng = random.Random(2024)
        quantified = conditional = oracle_checked = 0
        for i in range(420):
            aut = random_automaton(rng)
            quant = i % 3 == 0
            ob = random_obligation(rng, "alpha", 3, ["p", "q"], quant)
            cond = None
            if i % 2 == 0:
                cond = random_obligation(rng, "alpha", 2, ["p", "q"], quant)
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
            if cond is None and not quant:
                assert v.holds == oracle.brute_force_ought(aut, "alpha", ob)
                oracle_checked += 1
        assert quantified >= 140 and conditional >= 210
        assert oracle_checked >= 100


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
