"""CTL*/LTL layer: Buchi tableau, universality, state labeling, lassos."""

import random

import pytest

from deontic_mc import formula as fm
from deontic_mc.ctlstar import (
    TransitionSystem,
    buchi_accepts,
    check_ctls,
    check_universal,
    eval_on_lasso,
    ltl_to_buchi,
    strip_weights,
)
from deontic_mc.errors import GrammarError, ModelError
from deontic_mc.generate import random_automaton, random_path_formula

import oracle


def rand_word(rng, atoms, stem_max=3, loop_max=3):
    stem = [frozenset(a for a in atoms if rng.random() < .5)
            for _ in range(rng.randint(0, stem_max))]
    loop = [frozenset(a for a in atoms if rng.random() < .5)
            for _ in range(rng.randint(1, loop_max))]
    return stem, loop


def random_system(rng, max_states=5, atoms=("p", "q")):
    aut = random_automaton(rng, max_states=max_states, atoms=atoms)
    return strip_weights(aut)


# ======================== strip_weights ========================

class TestStripWeights:
    def test_t0_becomes_three_state_system(self, t0):
        ts = strip_weights(t0)
        assert sorted(ts.states) == ["q0", "q1", "q2"]
        assert ts.is_total()

    def test_nondeterministic_edges_kept(self):
        from deontic_mc.automaton import StitAutomaton
        aut = StitAutomaton(["q0", "q1", "q2"], "q0", ["K", "s"], [],
                            [("q0", "K", "q1", 1), ("q0", "K", "q2", 1),
                             ("q1", "s", "q1", 1), ("q2", "s", "q2", 1)], {})
        ts = strip_weights(aut)
        assert sorted(ts.successors("q0")) == ["q1", "q2"]

    def test_labels_preserved(self, t0):
        ts = strip_weights(t0)
        assert ts.labels["q0"] == {"p"} and ts.labels["q2"] == frozenset()


# ======================== LTL -> Buchi ========================

class TestLtlToBuchi:
    def test_always_p_language(self):
        buchi = ltl_to_buchi(fm.parse_formula("G p"))
        assert buchi_accepts(buchi, [], [frozenset({"p"})])
        assert not buchi_accepts(buchi, [frozenset()], [frozenset({"p"})])

    def test_eventually_duality(self):
        """F p and !G !p accept the same ultimately periodic words."""
        rng = random.Random(0)
        left = ltl_to_buchi(fm.parse_formula("F p"))
        right = ltl_to_buchi(fm.parse_formula("!G !p"))
        for _ in range(200):
            stem, loop = rand_word(rng, ["p", "q"])
            assert buchi_accepts(left, stem, loop) == \
                buchi_accepts(right, stem, loop)

    def test_until_words(self):
        buchi = ltl_to_buchi(fm.parse_formula("p U q"))
        assert buchi_accepts(buchi, [], [frozenset({"q"})])
        assert not buchi_accepts(buchi, [], [frozenset({"p"})])

    def test_language_matches_direct_evaluation(self):
        rng = random.Random(9)
        for _ in range(60):
            f = random_path_formula(rng, 3, ["p", "q"])
            buchi = ltl_to_buchi(f)
            for _ in range(25):
                stem, loop = rand_word(rng, ["p", "q"])
                assert buchi_accepts(buchi, stem, loop) == \
                    oracle.scan_eval(f, stem, loop)

    def test_standard_identities_as_language_equalities(self):
        """U expansion, R duality, X distribution over conjunction."""
        pairs = [
            ("p U q", "q | (p & X (p U q))"),
            ("p R q", "!(!p U !q)"),
            ("X (p & q)", "X p & X q"),
            ("G p", "!F !p"),
        ]
        rng = random.Random(10)
        for left_text, right_text in pairs:
            left = ltl_to_buchi(fm.parse_formula(left_text))
            right = ltl_to_buchi(fm.parse_formula(right_text))
            for _ in range(150):
                stem, loop = rand_word(rng, ["p", "q"])
                assert buchi_accepts(left, stem, loop) == \
                    buchi_accepts(right, stem, loop), (left_text, stem, loop)

    def test_rejects_quantified_input(self):
        with pytest.raises(GrammarError):
            ltl_to_buchi(fm.parse_formula("(A p)"))


# ======================== check_universal ========================

class TestCheckUniversal:
    def test_gp_fails_through_unlabeled_branch(self, t0):
        ts = strip_weights(t0)
        ok, cx = check_universal(ts, fm.parse_formula("G p"))
        assert not ok
        assert "q2" in cx.stem + cx.loop

    def test_true_holds(self, t0):
        ok, cx = check_universal(strip_weights(t0), fm.TRUE)
        assert ok and cx is None

    def test_restricted_branch_satisfies_gp(self, t0):
        from deontic_mc.automaton import prime_automaton, restrict_first_action
        t1p = prime_automaton(restrict_first_action(t0, "K1"), t0)
        ok, _ = check_universal(strip_weights(t1p), fm.parse_formula("G p"))
        assert ok

    def test_counterexamples_violate_the_formula(self):
        """Returned lassos really violate f under the independent evaluator."""
        rng = random.Random(11)
        found = 0
        for _ in range(80):
            ts = random_system(rng)
            f = random_path_formula(rng, 3, ["p", "q"])
            ok, cx = check_universal(ts, f)
            if ok:
                continue
            found += 1
            stem_labels = [ts.labels[q] for q in cx.stem]
            loop_labels = [ts.labels[q] for q in cx.loop]
            assert not oracle.scan_eval(f, stem_labels, loop_labels)
            # and the lasso is a real path of the system
            walk = list(cx.stem) + list(cx.loop)
            for a, b in zip(walk, walk[1:]):
                assert b in ts.successors(a)
            assert cx.loop[0] in ts.successors(cx.loop[-1])
        assert found > 20

    def test_agrees_with_lasso_enumeration(self):
        """Universality equals 'no ultimately periodic path with stem and
        loop up to 6 violates f' on systems of up to five states."""
        rng = random.Random(12)
        for _ in range(60):
            ts = random_system(rng, max_states=5)
            f = random_path_formula(rng, 4, ["p", "q"])
            expected = True
            for stem, loop in oracle.enumerate_ts_lassos(ts, 6, 6):
                word = ([ts.labels[q] for q in stem],
                        [ts.labels[q] for q in loop])
                if not oracle.scan_eval(f, *word):
                    expected = False
                    break
            assert check_universal(ts, f)[0] == expected

    def test_requires_total_system(self):
        ts = TransitionSystem(["a", "b"], "a", [("a", "b")], {})
        with pytest.raises(ModelError, match="dead ends"):
            check_universal(ts, fm.TRUE)


# ======================== check_ctls ========================

class TestCheckCtls:
    def test_ag_on_one_state_loop(self):
        ts = TransitionSystem(["s"], "s", [("s", "s")], {"s": {"p"}})
        assert check_ctls(ts, fm.parse_formula("A G p")) == {"s"}

    def test_ef_reachability(self):
        ts = TransitionSystem(["s0", "s1", "s2"], "s0",
                              [("s0", "s1"), ("s1", "s2"), ("s2", "s2")],
                              {"s1": {"q"}})
        assert check_ctls(ts, fm.parse_formula("E F q")) == {"s0", "s1"}

    def test_tautology_labels_every_state(self):
        ts = TransitionSystem(["s0", "s1", "s2"], "s0",
                              [("s0", "s1"), ("s1", "s2"), ("s2", "s2")],
                              {"s1": {"p"}})
        got = check_ctls(ts, fm.parse_formula("A (F p | G !p)"))
        assert got == {"s0", "s1", "s2"}

    def test_nested_quantifiers(self):
        ts = TransitionSystem(["s0", "s1"], "s0",
                              [("s0", "s0"), ("s0", "s1"), ("s1", "s1")],
                              {"s1": {"p"}})
        got = check_ctls(ts, fm.parse_formula("E F (A G p)"))
        assert got == {"s0", "s1"}

    def test_agrees_with_rerooted_lasso_enumeration(self):
        """E psi holds at q iff some lasso from q satisfies psi, A psi iff
        every one does, and A psi is the complement of E !psi."""
        rng = random.Random(14)
        for _ in range(60):
            ts = random_system(rng, max_states=4)
            psi = random_path_formula(rng, 3, ["p", "q"])
            exists = check_ctls(ts, fm.ExistsPaths(psi))
            forall = check_ctls(ts, fm.ForallPaths(psi))
            assert forall == set(ts.states) - check_ctls(
                ts, fm.ExistsPaths(fm.Not(psi)))
            edges = [(a, b) for a in ts.states for b in ts.successors(a)]
            for q in ts.states:
                rooted = TransitionSystem(ts.states, q, edges, ts.labels)
                truths = {oracle.scan_eval(psi, [ts.labels[s] for s in stem],
                                           [ts.labels[s] for s in loop])
                          for stem, loop in oracle.enumerate_ts_lassos(rooted)}
                assert (q in exists) == (True in truths), (q, psi)
                assert (q in forall) == (False not in truths), (q, psi)

    def test_stit_rejected(self, t0):
        with pytest.raises(GrammarError):
            check_ctls(strip_weights(t0),
                       fm.parse_formula("[alpha cstit: p]"))

    def test_bare_temporal_rejected_as_state_formula(self, t0):
        with pytest.raises(GrammarError, match="state formula"):
            check_ctls(strip_weights(t0), fm.parse_formula("G p"))


# ======================== eval_on_lasso ========================

class TestEvalOnLasso:
    def test_matches_scan_evaluation(self):
        rng = random.Random(13)
        for _ in range(200):
            f = random_path_formula(rng, 4, ["p", "q"])
            stem, loop = rand_word(rng, ["p", "q"])
            assert eval_on_lasso(f, stem, loop) == \
                oracle.scan_eval(f, stem, loop)

    def test_rejects_empty_loop(self):
        with pytest.raises(ModelError):
            eval_on_lasso(fm.TRUE, [frozenset()], [])
