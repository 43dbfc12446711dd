"""CTL*/LTL layer: Buchi tableau, universality, state labeling, lassos."""

import random
import re
import time

import pytest

from deontic_mc import formula as fm
from deontic_mc.ctlstar import (
    MAX_TABLEAU_STEPS,
    TransitionSystem,
    Universality,
    _Product,
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
from reference_product import TarjanProduct
from reference_tableau import eager_ltl_to_buchi


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
        assert ts.live == set(ts.states)

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
            assert ts.live == set(ts.states)

    def test_dead_root_is_reported(self, t0):
        ts = strip_weights(t0)
        ts.add_root("q0'", [], {"p"})
        assert ts.live != set(ts.states)
        with pytest.raises(ModelError, match="q0'"):
            ts.require_total()


# ======================== LTL -> Buchi ========================

def valuation_tableau(f):
    """The tableau built valuation by valuation: (atoms, initial, succ,
    accepting).  State m is the valuation whose bitmask is m over the
    elementary formulas, the sorted atoms first and then the distinct
    temporal subformulas in post-order, as the eager reference numbers
    them."""
    f = fm.nnf(fm.expand_bounded(f))
    atoms = sorted({g.name for g in fm.walk(f) if isinstance(g, fm.Atom)})
    temporals = []

    def post_order(g):
        for c in fm.children(g):
            post_order(c)
        if isinstance(g, (fm.Next, fm.Until, fm.Release)) \
                and g not in temporals:
            temporals.append(g)

    post_order(f)
    elementary = [fm.Atom(a) for a in atoms] + temporals
    vals = [frozenset(g for i, g in enumerate(elementary) if m >> i & 1)
            for m in range(1 << len(elementary))]

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
    succ = [by_truth.get(s & frozenset(temporals), []) for s in vals]
    initial = [i for i, s in enumerate(vals) if sat(s, f)]
    accepting = [frozenset(i for i, s in enumerate(vals)
                           if not sat(s, g) or sat(s, g.right))
                 for g in temporals if isinstance(g, fm.Until)]
    return atoms, initial, succ, accepting


def acceptance_sets(buchi):
    """The acceptance sets as frozensets of states, read off the states'
    acceptance bits."""
    return [frozenset(m for m in buchi.states if buchi.accepting[m] >> j & 1)
            for j in range(buchi.full.bit_length())]


def assert_same_language(f, rng, words=100):
    """ltl_to_buchi(f) and the eager reference accept exactly the seeded
    lassos on which oracle.scan_eval finds f true; each automaton reads
    every lasso, so the nodes built for one serve the next."""
    buchi, reference = ltl_to_buchi(f), eager_ltl_to_buchi(f)
    for _ in range(words):
        stem, loop = rand_word(rng, ["p", "q", "r"], 4, 4)
        want = oracle.scan_eval(f, stem, loop)
        assert buchi_accepts(buchi, stem, loop) == want, \
            (fm.render(f), stem, loop)
        assert buchi_accepts(reference, stem, loop) == want, \
            (fm.render(f), stem, loop)


class TestLtlToBuchi:
    # (formula, states, initial states, acceptance-set sizes) of the eager
    # reference: the facts that do not depend on how the states are numbered
    PINNED = [
        ("G p", 4, 1, []),
        ("p U q", 8, 5, [7]),
        ("p R q", 8, 3, []),
        ("X (p & X q)", 16, 8, []),
        ("!p BR[2] q", 16, 10, []),
        ("!(p U (q & X p))", 16, 9, []),
        ("G F p & F G !q", 64, 15, [48, 40]),
    ]

    @pytest.mark.parametrize("text, n_states, n_initial, acc_sizes", PINNED)
    def test_sizes_are_pinned(self, text, n_states, n_initial, acc_sizes):
        """The eager reference keeps its sizes, and the automaton built on
        demand accepts its language."""
        f = fm.parse_formula(text)
        reference = eager_ltl_to_buchi(f)
        assert len(reference.states) == n_states
        assert len(reference.initial_states) == n_initial
        assert [len(a) for a in acceptance_sets(reference)] == acc_sizes
        assert_same_language(f, random.Random(text))

    def test_matches_valuation_by_valuation_tableau(self):
        """The eager reference equals the tableau built valuation by
        valuation: its atoms, initial states and acceptance sets, and the
        successors that step lists for every state and every letter.  The
        automaton built on demand accepts the same language."""
        rng = random.Random(15)
        formulas = [random_path_formula(rng, 3, ["p", "q"]) for _ in range(40)]
        formulas += [fm.parse_formula(t)
                     for t in ("!p BR[2] q", "F[0:3] p", "X^3 p", "p R X q")]
        formulas += [fm.Not(f) for f in formulas]
        formulas += [fm.parse_formula(p[0]) for p in self.PINNED]
        for f in formulas:
            atoms, initial, succ, accepting = valuation_tableau(f)
            reference = eager_ltl_to_buchi(f)
            assert (list(reference.atoms), reference.initial_states,
                    acceptance_sets(reference)) == \
                (atoms, initial, accepting), fm.render(f)
            low = reference.low
            for b in reference.states:
                for letter in range(low + 1):
                    assert reference.expand(b & ~low | letter) == \
                        [c for c in succ[b] if c & low == letter], \
                        (fm.render(f), b, letter)
            assert_same_language(f, rng)

    def test_reading_projects_each_label_onto_the_atoms(self):
        """A state reads a label through its letter: letter(label) is the
        bitmask of the automaton's atoms in the label, other names ignored,
        also when the label is asked again."""
        rng = random.Random(17)
        for _ in range(30):
            buchi = ltl_to_buchi(random_path_formula(rng, 3, ["p", "q"]))
            for _ in range(10):
                label = frozenset(a for a in ("p", "q", "r")
                                  if rng.random() < .5)
                want = sum(1 << i for i, a in enumerate(buchi.atoms)
                           if a in label)
                assert buchi.letter(label) == want
                assert buchi.letter(label) == want

    def test_builds_only_the_nodes_a_word_meets(self):
        """X^64 p, past the eager reference's 16 bits, has no node before a
        word is read, and one per position up to p's after it: 64 for the
        X's and one reading p.  That last one promises nothing, so the
        search decides it on sight and never builds T, the node for true
        after p."""
        f = fm.parse_formula("X^64 p")
        with pytest.raises(ResourceLimitError, match="65 elementary bits"):
            eager_ltl_to_buchi(f)
        buchi = ltl_to_buchi(f)
        assert len(buchi.states) == 0
        stem = [frozenset()] * 64 + [frozenset({"p"})]
        assert buchi_accepts(buchi, stem, [frozenset()])
        assert len(buchi.states) == 64 + 1
        assert not buchi_accepts(buchi, stem[1:], [frozenset()])

    def test_work_limit_refuses_nested_eventualities(self):
        """(G F)^k p means G F p, but its tableau grows about fourfold per
        G F: k = 6 stays under MAX_TABLEAU_STEPS expansion steps over 100
        lassos and accepts G F p's language; k = 12 is refused as a
        resource limit, by the automaton and by every check that reads
        it."""
        def nested(k):
            f = fm.parse_formula("p")
            for _ in range(k):
                f = fm.Always(fm.Eventually(f))
            return f

        rng = random.Random(19)
        buchi, shallow = ltl_to_buchi(nested(6)), fm.parse_formula("G F p")
        for _ in range(100):
            stem, loop = rand_word(rng, ["p", "q"], 4, 4)
            assert buchi_accepts(buchi, stem, loop) == \
                oracle.scan_eval(shallow, stem, loop), (stem, loop)
        match = f"more than {MAX_TABLEAU_STEPS} expansion steps"
        ts = random_system(random.Random(20), max_states=5)
        deep = nested(12)
        with pytest.raises(ResourceLimitError, match=match):
            buchi_accepts(ltl_to_buchi(deep), [], [frozenset()])
        with pytest.raises(ResourceLimitError, match=match):
            check_universal(ts, fm.Not(deep))
        with pytest.raises(ResourceLimitError, match=match):
            check_ctls(ts, fm.ExistsPaths(deep))

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

    @pytest.mark.parametrize("bound", range(13))
    def test_bounded_release_language(self, bound):
        """l BR[N] r, unfolded as l | (r & X (l BR[N-1] r)), means what the
        scan evaluates, in the lasso evaluator and in the tableau, on
        lassos long enough to tell the bounds apart.  l is any unbounded
        formula and r a literal; operands are drawn again until the
        formula takes both truth values on the first 40 lassos.  Both
        read those and 60 more."""
        rng = random.Random(100 + bound)
        literals = [fm.parse_formula(t) for t in ("p", "!p", "q", "!q")]

        def word():
            stem, loop = rand_word(rng, ["p", "q"], bound + 2, 3)
            while len(stem) + len(loop) < bound + 2:
                stem.append(frozenset(a for a in ("p", "q")
                                      if rng.random() < .5))
            return stem, loop

        words = [word() for _ in range(40)]
        for _ in range(20):
            f = fm.BoundedRelease(
                bound, random_path_formula(rng, 1, ["p", "q"],
                                           allow_bounded=False),
                rng.choice(literals))
            truth = [oracle.scan_eval(f, *w) for w in words]
            if set(truth) == {True, False}:
                break
        assert set(truth) == {True, False}
        words += [word() for _ in range(60)]
        buchi = ltl_to_buchi(f)
        for w in words:
            want = oracle.scan_eval(f, *w)
            assert eval_on_lasso(f, *w) == want, (fm.render(f), w)
            assert buchi_accepts(buchi, *w) == want, (fm.render(f), w)

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

    def test_reads_only_the_rows_the_formula_reaches(self):
        """A quantified row's sub-automaton has the atoms of its operand
        alone, and the automaton over the reduced rows those of the rows
        its last one reaches, the fresh atom's included."""
        ts = TransitionSystem(["s"], "s", [("s", "s")], {"s": {"p", "q"}})
        check = Universality(ts, fm.parse_formula("(E F p) & G q"))
        inner, outer = check.products
        assert inner.buchi.atoms == ["p"]
        assert outer.buchi.atoms == ["@q0", "q"]
        assert check.holds_from("s")
        stit = fm.compile(fm.parse_formula("X [a cstit: p]"), False)
        with pytest.raises(GrammarError, match="cannot expand Cstit"):
            ltl_to_buchi(stit)


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
        ("p BR[2000] q", "BR[2000]"), ("G (q -> X^65 p)", "X^65")])
    def test_bounded_operator_past_the_cap_refused_unexpanded(
            self, t0, text, op):
        """One bounded operator that alone unfolds past compile's cap is a
        resource limit, raised before the unfolding, in every entry
        point."""
        f = fm.parse_formula(text)
        match = re.escape(op) + " unfolds into .* compile unfolds at most 64"
        with pytest.raises(ResourceLimitError, match=match):
            Universality(strip_weights(t0), f)
        with pytest.raises(ResourceLimitError, match=match):
            check_ctls(strip_weights(t0), fm.ExistsPaths(f))
        with pytest.raises(ResourceLimitError, match=match):
            ltl_to_buchi(f)
        with pytest.raises(ResourceLimitError, match=match):
            eval_on_lasso(f, [], [{"p"}])

    def test_bound_at_the_cap_reaches_the_tableau(self, t0):
        """Bounds at MAX_UNFOLD pass compile's test, and the tableau decides
        them: on t0, X^64 p and F[0:64] !p fail through the unlabeled
        branch and the labeled one, each with a violating lasso, and
        p BR[64] q holds, as the lasso enumeration finds."""
        ts = strip_weights(t0)
        n = fm.MAX_UNFOLD
        for text, want in ((f"X^{n} p", False), (f"F[0:{n}] !p", False),
                           (f"p BR[{n}] q", True)):
            f = fm.parse_formula(text)
            ok, cx = check_universal(ts, f)
            assert ok == want == all(
                oracle.scan_eval(f, [ts.labels[q] for q in stem],
                                 [ts.labels[q] for q in loop])
                for stem, loop in oracle.enumerate_ts_lassos(ts, 3, 3)), text
            if cx is not None:
                assert not oracle.scan_eval(
                    f, [ts.labels[q] for q in cx.stem],
                    [ts.labels[q] for q in cx.loop]), text

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

    def test_labels_are_copied_only_for_a_quantified_row(self):
        """A check without a path quantifier reads the system's labels
        themselves; one with a quantifier labels a copy, and the system's
        stay as they were."""
        rng = random.Random(18)
        ts = random_system(rng)
        before = dict(ts.labels)
        assert Universality(ts, fm.parse_formula("G (p -> F q)")).labels \
            is ts.labels
        check = Universality(ts, fm.parse_formula("G (E F p) | A X q"))
        assert check.labels is not ts.labels
        assert ts.labels == before
        assert all(check.labels[q] - {"@q0", "@q1"} == before[q]
                   for q in ts.states)

    def test_requires_total_system(self):
        ts = TransitionSystem(["a", "b"], "a", [("a", "b")], {})
        with pytest.raises(ModelError, match="dead ends"):
            check_universal(ts, fm.TRUE)
        with pytest.raises(ModelError, match="dead ends"):
            check_ctls(ts, fm.parse_formula("A G p"))


# ======================== product emptiness ========================

class TestProductSearch:
    def test_agrees_with_the_tarjan_reference(self):
        """The early-stopping search answers as a Tarjan over the whole
        product at every state, asked in random order, for random path
        formulas and their negations; each lasso is a run of the product
        from the state whose loop closes and meets every acceptance set,
        the runs that end in T after a free node included."""
        rng = random.Random(16)
        lassos = with_sets = free_ends = 0
        for _ in range(200):
            ts = random_system(rng, max_states=8)
            f = random_path_formula(rng, 3, ["p", "q"])
            for g in (f, fm.Not(f)):
                buchi = ltl_to_buchi(g)
                product = _Product(ts, ts.labels, buchi)
                reference = TarjanProduct(ts, ts.labels, buchi)
                for q in rng.sample(ts.states, len(ts.states)):
                    found = product.nonempty_from(q)
                    assert found == reference.nonempty_from(q), \
                        (fm.render(g), q)
                    if not found:
                        assert product.lasso(q) is None
                        continue
                    stem, loop = product.lasso(q)
                    run = stem + loop + loop[:1]
                    assert run[0] in product.starts(q)
                    for a, b in zip(run, run[1:]):
                        assert b in product.succ(a)
                    bits = 0
                    for n in loop:
                        bits |= buchi.accepting[n[1]]
                    assert bits == buchi.full
                    lassos += 1
                    with_sets += buchi.full != 0
                    free_ends += buchi.free[loop[0][1]]
        assert lassos > 1000 and with_sets > 400 and free_ends >= 100

    def test_stops_at_the_first_accepting_cycle(self):
        """A cycle at q0 through the acceptance set of the negation,
        G F p, searched before a 300-state tail, answers without exploring
        the tail."""
        tail = [f"t{i}" for i in range(300)]
        edges = ([("q0", "q0"), ("q0", tail[0])] + list(zip(tail, tail[1:]))
                 + [(tail[-1], tail[-1])])
        ts = TransitionSystem(["q0"] + tail, "q0", edges, {"q0": {"p"}})
        check = Universality(ts, fm.parse_formula("F G !p"))
        cx = check.counterexample("q0")
        assert (cx.stem, cx.loop) == ((), ("q0",))
        assert len(check.product._succ) < len(tail)

    def test_stops_at_a_node_that_promises_nothing(self):
        """G p on a 300-state cycle where p is false only k steps from s0:
        the negation's node that reads !p there promises nothing, so the
        search decides it on sight, having expanded the k nodes before it,
        and does not walk the cycle to close a loop.  The counterexample
        reaches that state and then goes round the cycle, and violates G p
        under direct evaluation."""
        n, k = 300, 7
        states = [f"s{i}" for i in range(n)]
        ts = TransitionSystem(states, "s0",
                              [(states[i], states[(i + 1) % n])
                               for i in range(n)],
                              {q: {"p"} for q in states if q != states[k]})
        check = Universality(ts, fm.parse_formula("G p"))
        cx = check.counterexample("s0")
        assert check.stats()[1] <= k + 2
        assert cx.stem == tuple(states[:k + 1])
        assert sorted(cx.loop) == sorted(states)
        run = cx.stem + cx.loop + cx.loop[:1]
        assert all(b in ts.successors(a) for a, b in zip(run, run[1:]))
        assert not eval_on_lasso(fm.parse_formula("G p"),
                                 [ts.labels[q] for q in cx.stem],
                                 [ts.labels[q] for q in cx.loop])

    def test_dead_ends_start_no_run(self):
        """A path into a dead end is not a run, so it violates nothing: G p
        holds at a, whose one path ends at b where p is false.  In a chain
        c -> d -> e of two dead ends, d has a successor but is not live
        either, so the node that reads !p at d promises nothing and is
        still bad; f, which also reaches g's loop without p, fails, with
        the lasso through g."""
        ts = TransitionSystem(["a", "b"], "a", [("a", "b")], {"a": {"p"}})
        assert ts.live == set()
        assert Universality(ts, fm.parse_formula("G p")).holds_from("a")
        ts = TransitionSystem("cdefg", "c",
                              [("c", "d"), ("d", "e"), ("f", "d"),
                               ("f", "g"), ("g", "g")],
                              {"c": {"p"}, "f": {"p"}})
        assert ts.live == {"f", "g"}
        check = Universality(ts, fm.parse_formula("G p"))
        assert [check.holds_from(q) for q in "cdefg"] == \
            [True, True, True, False, False]
        cx = check.counterexample("f")
        assert (cx.stem, cx.loop) == (("f", "g"), ("g",))

    def test_agrees_with_the_tarjan_reference_past_dead_ends(self):
        """On 300 random systems with one state's out-edges stripped, the
        search answers as the Tarjan reference at every state: a free node
        at a state that starts no infinite path is bad."""
        rng = random.Random(26)
        dead_free = 0
        for _ in range(300):
            total = random_system(rng, max_states=8)
            cut = rng.choice(total.states)
            ts = TransitionSystem(total.states, total.initial,
                                  [(a, b) for a in total.states if a != cut
                                   for b in total.successors(a)],
                                  total.labels)
            f = random_path_formula(rng, 3, ["p", "q"])
            for g in (f, fm.Not(f)):
                buchi = ltl_to_buchi(g)
                product = _Product(ts, ts.labels, buchi)
                reference = TarjanProduct(ts, ts.labels, buchi)
                for q in ts.states:
                    assert product.nonempty_from(q) == \
                        reference.nonempty_from(q), (fm.render(g), q)
                dead_free += sum(buchi.free[b] and q not in ts.live
                                 for q, b in product.mark)
        assert dead_free >= 100


# ======================== deep formulas ========================

def deep_chain(kind, n=3000):
    """n levels of & (over one atom), ! or F, or n / 250 = 12 pairs G F,
    built with the constructors: the parser stops at MAX_DEPTH."""
    p = fm.Atom("p")
    if kind == "&":
        return fm.and_all([p] * n)
    f = p
    for _ in range(n // 250 if kind == "GF" else n):
        f = (fm.Not(f) if kind == "!" else fm.Eventually(f) if kind == "F"
             else fm.Always(fm.Eventually(f)))
    return f


class TestDeepFormulas:
    @pytest.mark.parametrize("kind, same, refused", [
        ("&", "p", set()), ("!", "p", set()), ("F", "F p", {"ctls"}),
        ("GF", "G F p", {"universal", "counterexample", "ctls", "tableau"})])
    def test_decided_or_refused_never_recursing(self, t0, kind, same,
                                                refused):
        """A 3,000-level chain, or (G F)^12 p, is decided as its shallow
        equivalent within a second, or, where its tableau would need more
        than MAX_TABLEAU_STEPS expansion steps, refused as a resource limit
        within a second; no entry point recurses over it.  The 3,001 rows
        of F^3000 p meet the limit only where the search explores the
        formula itself: its negation's tableau is one node per position."""
        ts = strip_weights(t0)

        def lasso(cx):
            return cx and (cx.stem, cx.loop)

        calls = {
            "universal": lambda f: check_universal(ts, f)[0],
            "counterexample": lambda f: lasso(
                Universality(ts, f).counterexample("q0")),
            "ctls": lambda f: check_ctls(ts, fm.ExistsPaths(f)),
            "lasso": lambda f: eval_on_lasso(f, [{"p"}], [set()]),
            "tableau": lambda f: buchi_accepts(ltl_to_buchi(f), [{"p"}],
                                               [set()]),
        }
        deep, shallow = deep_chain(kind), fm.parse_formula(same)
        for name, call in calls.items():
            started = time.perf_counter()
            if name in refused:
                with pytest.raises(ResourceLimitError,
                                   match="expansion steps, the limit"):
                    call(deep)
            else:
                assert call(deep) == call(shallow), name
            assert time.perf_counter() - started < 1.0, name

    def test_negated_f_chain_is_one_partial_node_per_level(self, t0):
        """F^3000 p is compiled negated straight to G^3000 !p, whose rows
        put G's false below its operand: each of the two masks the search
        meets from q2 expands one partial node per level, 6,001 rows
        taken each, into one Buchi state, and the counterexample is q2's
        loop."""
        check = Universality(strip_weights(t0), deep_chain("F"))
        cx = check.counterexample("q2")
        assert (cx.stem, cx.loop) == ((), ("q2",))
        assert check.stats() == (1, 1)
        assert check.product.buchi._steps == 2 * 6001


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
        """An empty loop is no lasso, to the evaluator and the automaton."""
        with pytest.raises(ModelError, match="loop must be non-empty"):
            eval_on_lasso(fm.TRUE, [frozenset()], [])
        with pytest.raises(ModelError, match="loop must be non-empty"):
            buchi_accepts(ltl_to_buchi(fm.TRUE), [frozenset()], [])

    @pytest.mark.parametrize("text, kind", [
        ("X [a cstit: p]", "Cstit"),
        ("X (A [a cstit: p])", "ExistsPaths"),
        ("[a cstit: p] & [b dstit: X (E q)]", "Cstit"),
        ("p U ((E q) | [a dstit: p])", "ExistsPaths")])
    def test_names_the_outermost_node_it_cannot_evaluate(self, text, kind):
        """The error names the first node, from the root down and left
        first, that is not a path formula, not a node inside it.  A psi
        is compiled as !E !psi, so it is named as the E it becomes."""
        with pytest.raises(GrammarError,
                           match=f"cannot evaluate {kind} on a lasso"):
            eval_on_lasso(fm.parse_formula(text), [], [{"p"}])
