"""CTL*/LTL layer: Buchi tableau, universality, state labeling, lassos."""

import hashlib
import itertools
import random
import re

import pytest

from deontic_mc import formula as fm
from deontic_mc.ctlstar import (
    TransitionSystem,
    Universality,
    buchi_accepts,
    check_ctls,
    check_universal,
    eval_on_lasso,
    ltl_to_buchi,
    strip_weights,
)
from deontic_mc.errors import GrammarError, ModelError, ResourceLimitError
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


def add_roots(aut, ts):
    """One fresh root per first action, named as the checker names them:
    the initial state's name plus primes, skipping taken names."""
    roots, root = {}, aut.initial
    for action in aut.first_actions():
        root += "'"
        while root in aut.states:
            root += "'"
        ts.add_root(root, [t.dst for t in aut.out(aut.initial)
                           if t.action == action], aut.label(aut.initial))
        roots[action] = root
    return roots


class TestAddRoot:
    def test_roots_equal_the_stripped_primed_automata(self):
        """Behind each first action's root, the multi-root system is the
        stripped primed automaton state for state and edge for edge, and
        the formula's verdict from the root is the primed system's."""
        from deontic_mc.automaton import prime_automaton, restrict_first_action
        rng = random.Random(41)
        for _ in range(80):
            aut = random_automaton(rng)
            ts = strip_weights(aut)
            roots = add_roots(aut, ts)
            f = random_path_formula(rng, 3, ["p", "q"],
                                    allow_quantifiers=True)
            check = Universality(ts, f)
            assert len(set(roots.values())) == len(roots)
            assert not set(roots.values()) & set(aut.states)
            assert not any(r in ts.successors(q)
                           for q in ts.states for r in roots.values())
            for action, root in roots.items():
                primed = strip_weights(prime_automaton(
                    restrict_first_action(aut, action), aut))
                assert ts.successors(root) == \
                    primed.successors(primed.initial)
                assert ts.labels[root] == primed.labels[primed.initial]
                assert all(ts.successors(q) == primed.successors(q)
                           and ts.labels[q] == primed.labels[q]
                           for q in aut.states)
                assert check.holds_from(root) == \
                    check_universal(primed, f)[0]
            assert ts.is_total()

    def test_dead_root_is_reported(self, t0):
        ts = strip_weights(t0)
        ts.add_root("q0'", [], {"p"})
        assert not ts.is_total()
        with pytest.raises(ModelError, match="q0'"):
            ts.require_total()


# ======================== LTL -> Buchi ========================

def valuation_tableau(f):
    """The tableau built valuation by valuation, in the same state numbering
    as ltl_to_buchi: (states, initial, succ, accepting, state_atoms)."""
    f = fm.nnf(fm.expand_bounded(f))
    atoms = sorted(fm.atoms_of(f))
    temporals = list(dict.fromkeys(
        g for g in fm.walk(f) if isinstance(g, (fm.Next, fm.Until, fm.Release))))
    elementary = [fm.Atom(a) for a in atoms] + temporals
    vals = [frozenset(c) for r in range(len(elementary) + 1)
            for c in itertools.combinations(elementary, r)]

    def sat(s, g):
        if isinstance(g, (fm.Atom, fm.Next)):
            return g in s
        if isinstance(g, (fm.TrueFormula, fm.FalseFormula)):
            return isinstance(g, fm.TrueFormula)
        if isinstance(g, fm.Not):
            return not sat(s, g.operand)
        if isinstance(g, fm.And):
            return sat(s, g.left) and sat(s, g.right)
        if isinstance(g, fm.Or):
            return sat(s, g.left) or sat(s, g.right)
        if isinstance(g, fm.Until):
            return sat(s, g.right) or (sat(s, g.left) and g in s)
        return sat(s, g.right) and (sat(s, g.left) or g in s)  # Release

    # what each valuation makes true of the obligations its predecessor
    # promised: X g asks for g, U and R ask for themselves
    next_truth = [frozenset(g for g in temporals if sat(
        s, g.operand if isinstance(g, fm.Next) else g)) for s in vals]
    by_truth: dict = {}
    for j, t in enumerate(next_truth):
        by_truth.setdefault(t, []).append(j)
    succ = {i: by_truth.get(s & frozenset(temporals), [])
            for i, s in enumerate(vals)}
    initial = [i for i, s in enumerate(vals) if sat(s, f)]
    accepting = [frozenset(i for i, s in enumerate(vals)
                           if not sat(s, g) or sat(s, g.right))
                 for g in temporals if isinstance(g, fm.Until)]
    state_atoms = {i: frozenset(a.name for a in s if isinstance(a, fm.Atom))
                   for i, s in enumerate(vals)}
    return list(range(len(vals))), initial, succ, accepting, state_atoms


class TestLtlToBuchi:
    # (formula, states, initial, acceptance-set sizes, sha256 of the sorted
    # successor lists), recorded from the per-valuation construction that
    # the bitset one replaced
    PINNED = [
        ("G p", 4, [3], [],
         "966e849673c1edd8aa3a5897b2e3439154d36db17c7c4560919bee96723bd056"),
        ("p U q", 8, [2, 4, 5, 6, 7], [7],
         "e5a53451a22d4965ace7d02e841bb9213e12fb373d9af8283995084eb30dd4cd"),
        ("p R q", 8, [4, 6, 7], [],
         "b36e60fb84b61fbaf4dbebcf4c62ac7bd4dd55cb36f3ef4080f4ead53435e687"),
        ("X (p & X q)", 16, [3, 6, 8, 10, 11, 13, 14, 15], [],
         "c4a96118e039b7909703e9166216fbe4347ed2e4a049982c3103d348e5a49779"),
        ("!p BR[2] q", 64,
         [0, 2, 3, 4, 5, 6, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 32,
          33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 52, 53, 54,
          55, 56, 57, 58, 59, 60, 62, 63], [],
         "882780ce8fc18821d05097e396bcc7103e5246eed0004c3f99a21f9237600066"),
        ("!(p U (q & X p))", 16, [0, 3, 4, 6, 9, 10, 13, 14, 15], [],
         "92548b8f3f7c328102c1e8a7b388820d46e2a2c673a662aaf381ea4aac5f22d0"),
        ("G F p & F G !q", 64,
         [27, 28, 38, 39, 43, 48, 49, 50, 52, 56, 57, 59, 61, 62, 63], [48, 40],
         "baa995dddaae6f719ee1706bf77e62de258cd419e603020fff70333900f83933"),
    ]

    @pytest.mark.parametrize("text, n_states, initial, acc_sizes, digest",
                             PINNED)
    def test_structure_is_pinned(self, text, n_states, initial, acc_sizes,
                                 digest):
        buchi = ltl_to_buchi(fm.parse_formula(text))
        assert len(buchi.states) == n_states
        assert buchi.initial == initial
        assert [len(a) for a in buchi.accepting] == acc_sizes
        assert hashlib.sha256(repr(sorted(buchi.succ.items())).encode()
                              ).hexdigest() == digest

    def test_matches_valuation_by_valuation_tableau(self):
        rng = random.Random(15)
        formulas = [random_path_formula(rng, 3, ["p", "q"]) for _ in range(40)]
        formulas += [fm.parse_formula(t)
                     for t in ("!p BR[2] q", "F[0:3] p", "X^3 p", "p R X q")]
        for f in formulas + [fm.Not(f) for f in formulas]:
            buchi = ltl_to_buchi(f)
            assert (buchi.states, buchi.initial, buchi.succ, buchi.accepting,
                    buchi.state_atoms) == valuation_tableau(f), fm.render(f)

    def test_reading_projects_each_label_onto_the_atoms(self):
        """reading(label) is the set of states whose atom set equals the
        label restricted to the automaton's atoms, and a label seen before
        is answered from the memo."""
        rng = random.Random(17)
        for _ in range(30):
            buchi = ltl_to_buchi(random_path_formula(rng, 3, ["p", "q"]))
            for _ in range(10):
                label = frozenset(a for a in ("p", "q", "r")
                                  if rng.random() < .5)
                got = buchi.reading(label)
                assert got == {b for b in buchi.states
                               if buchi.state_atoms[b] == label & buchi.atoms}
                assert buchi.reading(label) is got

    def test_cap_is_sixteen_elementary_bits(self):
        assert len(ltl_to_buchi(fm.parse_formula("X^15 p")).states) == 65536
        with pytest.raises(ResourceLimitError, match="17 elementary bits"):
            ltl_to_buchi(fm.parse_formula("X^16 p"))

    @pytest.mark.parametrize("text", ["!p BR[2] q", "F[0:3] p", "X^3 p"])
    def test_bounded_operators_language(self, text):
        rng = random.Random(16)
        f = fm.parse_formula(text)
        for g in (f, fm.Not(f)):
            buchi = ltl_to_buchi(g)
            for _ in range(150):
                stem, loop = rand_word(rng, ["p", "q", "r"], 4, 4)
                assert buchi_accepts(buchi, stem, loop) == \
                    oracle.scan_eval(g, stem, loop), (fm.render(g), stem, loop)

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

    @pytest.mark.parametrize("text,op", [
        ("X^2000 p", "X^2000"), ("F[3:2000] p", "F[3:2000]"),
        ("p BR[2000] q", "BR[2000]"), ("G (q -> X^17 p)", "X^17")])
    def test_bounded_operator_past_the_cap_refused_unexpanded(
            self, t0, text, op):
        """One bounded operator that alone unfolds past the tableau's cap
        is a resource limit, raised before the unfolding (which would
        overflow the recursive passes), in every entry point."""
        f = fm.parse_formula(text)
        match = re.escape(op) + " unfolds into .* capped at 16 elementary bits"
        with pytest.raises(ResourceLimitError, match=match):
            Universality(strip_weights(t0), f)
        with pytest.raises(ResourceLimitError, match=match):
            check_ctls(strip_weights(t0), fm.ExistsPaths(f))
        with pytest.raises(ResourceLimitError, match=match):
            ltl_to_buchi(f)
        with pytest.raises(ResourceLimitError, match=match):
            eval_on_lasso(f, [], [{"p"}])

    def test_bound_at_the_cap_reaches_the_tableau(self, t0):
        """X^16 passes the unexpanded test; its 17 elementary bits are then
        refused by the tableau itself."""
        with pytest.raises(ResourceLimitError, match="17 elementary bits"):
            Universality(strip_weights(t0), fm.parse_formula("X^16 p"))

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

    def test_one_check_answers_every_state(self):
        """One Universality asked from every state in turn agrees with a
        fresh check_universal rooted at that state, and its counterexample
        from a state starts there and violates the formula."""
        rng = random.Random(15)
        for _ in range(60):
            ts = random_system(rng)
            f = random_path_formula(rng, 3, ["p", "q"],
                                    allow_quantifiers=rng.random() < .5)
            check = Universality(ts, f)
            edges = [(a, b) for a in ts.states for b in ts.successors(a)]
            for q in rng.sample(ts.states, len(ts.states)):
                rooted = TransitionSystem(ts.states, q, edges, ts.labels)
                ok, _ = check_universal(rooted, f)
                assert check.holds_from(q) == ok
                cx = check.counterexample(q)
                assert (cx is None) == ok
                if cx is not None and not any(
                        isinstance(g, (fm.ForallPaths, fm.ExistsPaths))
                        for g in fm.walk(f)):
                    assert (cx.stem + cx.loop)[0] == q
                    assert not oracle.scan_eval(
                        f, [ts.labels[s] for s in cx.stem],
                        [ts.labels[s] for s in cx.loop])

    def test_requires_total_system(self):
        ts = TransitionSystem(["a", "b"], "a", [("a", "b")], {})
        with pytest.raises(ModelError, match="dead ends"):
            check_universal(ts, fm.TRUE)
        with pytest.raises(ModelError, match="dead ends"):
            check_ctls(ts, fm.parse_formula("A G p"))


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

    def test_propositional_part_has_no_atom_cap(self):
        """The reduced state formula is evaluated per state, not compiled,
        so it may name more atoms than the tableau has bits."""
        ts = TransitionSystem(["s", "t"], "s", [("s", "t"), ("t", "t")],
                              {"s": {f"p{i}" for i in range(20)}})
        big = fm.and_all(fm.Atom(f"p{i}") for i in range(20))
        assert check_ctls(ts, fm.Or(big, fm.ExistsPaths(
            fm.Next(fm.Atom("p0"))))) == {"s"}
        assert check_ctls(ts, fm.Not(big)) == {"t"}

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
