"""Stit automata: validation, products, unrolling, surgeries, values."""

import random
from fractions import Fraction

import pytest

from deontic_mc import automaton
from deontic_mc.automaton import (
    StitAutomaton,
    ValueInterval,
    bounded_traces,
    extremal_values,
    load_automaton,
    prime_automaton,
    product,
    restrict_first_action,
    save_automaton,
    unroll,
)
from deontic_mc.errors import (
    AutomatonError, ParseError, ResourceLimitError, _as_rational)
from deontic_mc.generate import random_automaton
from deontic_mc.tree_model import ExplicitStitModel

import oracle


# ======================== Validation ========================

class TestValidate:
    def test_t0_is_clean(self, t0):
        assert t0.validate() == []

    def test_two_actions_on_one_edge_pair(self):
        bad = StitAutomaton(
            ["q0", "q1"], "q0", ["K1", "K2"], [],
            [("q0", "K1", "q1", 1), ("q0", "K2", "q1", 2),
             ("q1", "K1", "q1", 1)], {})
        assert any(v.axiom == "edge-uniqueness" for v in bad.validate())

    def test_shared_pairs_are_reported_in_sorted_order(self):
        """Only pairs carrying several actions are reported, sorted by
        (src, dst) whatever the order of the transitions."""
        transitions = [("q2", "b", "q0", 1), ("q0", "a", "q1", 1),
                       ("q1", "a", "q2", 1), ("q2", "a", "q0", 1),
                       ("q0", "b", "q1", 1), ("q1", "a", "q1", 1),
                       ("q0", "c", "q1", 1), ("q1", "b", "q1", 1)]
        rng = random.Random(3)
        for _ in range(5):
            rng.shuffle(transitions)
            bad = StitAutomaton(["q0", "q1", "q2"], "q0", ["a", "b", "c"], [],
                                transitions, {})
            assert [str(v) for v in bad.validate()] == [
                "[edge-uniqueness] (state=q0) transitions q0 -> q1 carry distinct "
                "actions ['a', 'b', 'c']",
                "[edge-uniqueness] (state=q1) transitions q1 -> q1 carry distinct "
                "actions ['a', 'b']",
                "[edge-uniqueness] (state=q2) transitions q2 -> q0 carry distinct "
                "actions ['a', 'b']"]

    def test_unknown_states_in_sorted_order(self):
        """[initial], then [final] and [labels] sorted by state, whatever
        the hash seed orders the sets in."""
        names = [f"z{i}" for i in (7, 3, 5, 0, 6, 1, 4, 2)]
        bad = StitAutomaton(["q0"], "qx", ["K"], names + ["q0"],
                            [("q0", "K", "q0", 1)],
                            {**{n: {"p"} for n in reversed(names)},
                             "q0": {"p"}})
        assert [str(v) for v in bad.validate()] == (
            ["[initial] (state=qx) initial state not in state set"]
            + [f"[final] (state=z{i}) final state unknown" for i in range(8)]
            + [f"[labels] (state=z{i}) labeled state unknown"
               for i in range(8)])

    def test_transition_violations(self):
        """Unknown endpoints, undeclared actions and a repeated
        transition, in transition order, before the shared pairs and the
        dead ends.  A reachable transition into an unknown state is one
        violation: the unknown state is not walked into as a dead end."""
        bad = StitAutomaton(
            ["q0", "q1", "q2", "q3"], "q0", ["K"], [],
            [("q0", "K", "q1", 1), ("q9", "K", "q0", 1), ("q1", "L", "q2", 1),
             ("q0", "K", "q1", 2), ("q1", "K", "q8", 1)], {})
        assert [str(v) for v in bad.validate()] == [
            "[endpoints] (state=q9) transition Transition(src='q9', "
            "action='K', dst='q0', weight=Fraction(1, 1)) has unknown endpoint",
            "[actions] (state=q1) transition action 'L' not declared",
            "[edge-uniqueness] (state=q0) duplicate transition q0 -K-> q1",
            "[endpoints] (state=q1) transition Transition(src='q1', "
            "action='K', dst='q8', weight=Fraction(1, 1)) has unknown endpoint",
            "[no-dead-end] (state=q2) reachable state has no outgoing "
            "transition"]

    def test_reachable_dead_end(self):
        bad = StitAutomaton(["q0", "q1"], "q0", ["K"], [],
                            [("q0", "K", "q1", 1)], {})
        assert any(v.axiom == "no-dead-end" for v in bad.validate())

    def test_unreachable_dead_end_is_fine(self):
        aut = StitAutomaton(["q0", "q1"], "q0", ["K"], [],
                            [("q0", "K", "q0", 1)], {})
        assert aut.validate() == []

    def test_random_automata_are_valid(self):
        rng = random.Random(1)
        for _ in range(100):
            assert random_automaton(rng).validate() == []


# ======================== Product ========================

class TestProduct:
    def test_identity_modulo_renaming(self, t0):
        p = product([t0])
        assert len(p.states) == len(t0.states)
        assert len(p.transitions) == len(t0.transitions)
        assert p.label(p.initial) == t0.label(t0.initial)
        assert p.validate() == []

    def test_two_by_two_transition_count(self):
        a = StitAutomaton(["s0", "s1"], "s0", ["x", "y"], [],
                          [("s0", "x", "s1", 1), ("s1", "y", "s0", 2)],
                          {"s0": {"p"}})
        b = StitAutomaton(["t0", "t1"], "t0", ["u", "v"], [],
                          [("t0", "u", "t1", 3), ("t1", "v", "t0", 4)],
                          {"t0": {"p"}})
        p = product([a, b])
        assert len(p.states) == 4
        assert len(p.transitions) == len(a.transitions) * len(b.transitions)
        assert len(p.actions) == 4  # tuple actions over the 2x2 combinations
        assert p.validate() == []

    def test_labels_namespaced(self):
        a = StitAutomaton(["s0"], "s0", ["x"], [], [("s0", "x", "s0", 1)],
                          {"s0": {"p"}})
        b = StitAutomaton(["t0"], "t0", ["u"], [], [("t0", "u", "t0", 1)],
                          {"t0": {"p"}})
        p = product([a, b], names=["left", "right"])
        assert p.label(p.initial) == {"left.p", "right.p"}

    def test_colliding_joint_states_are_refused(self):
        """("a|b", "c") and ("a", "b|c") both join to a|b|c."""
        a = StitAutomaton(["a|b", "a"], "a", ["x"], [],
                          [("a|b", "x", "a", 1), ("a", "x", "a|b", 1)], {})
        b = StitAutomaton(["c", "b|c"], "c", ["y"], [],
                          [("c", "y", "b|c", 1), ("b|c", "y", "c", 1)], {})
        with pytest.raises(AutomatonError, match=r"joint state 'a\|b\|c'"):
            product([a, b])
        assert product([a, a]).validate() == []  # "a|b|a|b" etc. stay apart

    def test_colliding_joint_actions_are_refused(self):
        a = StitAutomaton(["s"], "s", ["a|b", "a"], [],
                          [("s", "a|b", "s", 1), ("s", "a", "s", 2)], {})
        b = StitAutomaton(["t"], "t", ["c", "b|c"], [],
                          [("t", "c", "t", 1), ("t", "b|c", "t", 2)], {})
        with pytest.raises(AutomatonError, match=r"joint action 'a\|b\|c'"):
            product([a, b])
        assert len(product([a, a]).actions) == 4

    def test_joint_weight_is_the_least(self):
        a = StitAutomaton(["s0"], "s0", ["x"], [], [("s0", "x", "s0", 2)], {})
        b = StitAutomaton(["t0"], "t0", ["u"], [], [("t0", "u", "t0", 5)], {})
        assert product([a, b]).transitions[0].weight == 2

    @pytest.mark.parametrize("names", [None, ["car", "ped", "van"]])
    def test_output_is_pinned(self, names):
        """The whole file of a two- and a three-component product, in order:
        states by the components' state order, the last fastest; per
        joint state its joint transitions by the components' transition
        order; actions as first met; labels qualified by name."""
        a = StitAutomaton(["s0", "s1"], "s0", ["go", "stay"], ["s1"],
                          [("s0", "go", "s1", 2), ("s0", "stay", "s0", 1),
                           ("s1", "go", "s0", 3)], {"s0": {"p"}})
        b = StitAutomaton(["t0", "t1"], "t0", ["go", "wait"], ["t0"],
                          [("t0", "wait", "t0", 4), ("t0", "go", "t1", 1),
                           ("t1", "wait", "t0", "1/2")], {"t1": {"q", "p"}})
        c = StitAutomaton(["u0", "u1"], "u0", ["go"], ["u1"],
                          [("u0", "go", "u1", 5), ("u1", "go", "u0", 2)],
                          {"u1": {"p"}})
        x, y, z = names or ["a0", "a1", "a2"]  # sorted, as labels are

        def edges(*rows):
            return [dict(zip(("from", "action", "to", "weight"), r.split()))
                    for r in rows]

        assert product([a, b], names and names[:2]).to_json() == {
            "states": ["s0|t0", "s0|t1", "s1|t0", "s1|t1"],
            "init": "s0|t0",
            "final": ["s1|t0"],
            "actions": ["go|wait", "go|go", "stay|wait", "stay|go"],
            "transitions": edges(
                "s0|t0 go|wait s1|t0 2", "s0|t0 go|go s1|t1 1",
                "s0|t0 stay|wait s0|t0 1", "s0|t0 stay|go s0|t1 1",
                "s0|t1 go|wait s1|t0 0.5", "s0|t1 stay|wait s0|t0 0.5",
                "s1|t0 go|wait s0|t0 3", "s1|t0 go|go s0|t1 1",
                "s1|t1 go|wait s0|t0 0.5"),
            "labels": {"s0|t0": [f"{x}.p"],
                       "s0|t1": [f"{x}.p", f"{y}.p", f"{y}.q"],
                       "s1|t1": [f"{y}.p", f"{y}.q"]},
            "accumulation": "min"}
        assert product([a, b, c], names).to_json() == {
            "states": ["s0|t0|u0", "s0|t0|u1", "s0|t1|u0", "s0|t1|u1",
                       "s1|t0|u0", "s1|t0|u1", "s1|t1|u0", "s1|t1|u1"],
            "init": "s0|t0|u0",
            "final": ["s1|t0|u1"],
            "actions": ["go|wait|go", "go|go|go", "stay|wait|go",
                        "stay|go|go"],
            "transitions": edges(
                "s0|t0|u0 go|wait|go s1|t0|u1 2",
                "s0|t0|u0 go|go|go s1|t1|u1 1",
                "s0|t0|u0 stay|wait|go s0|t0|u1 1",
                "s0|t0|u0 stay|go|go s0|t1|u1 1",
                "s0|t0|u1 go|wait|go s1|t0|u0 2",
                "s0|t0|u1 go|go|go s1|t1|u0 1",
                "s0|t0|u1 stay|wait|go s0|t0|u0 1",
                "s0|t0|u1 stay|go|go s0|t1|u0 1",
                "s0|t1|u0 go|wait|go s1|t0|u1 0.5",
                "s0|t1|u0 stay|wait|go s0|t0|u1 0.5",
                "s0|t1|u1 go|wait|go s1|t0|u0 0.5",
                "s0|t1|u1 stay|wait|go s0|t0|u0 0.5",
                "s1|t0|u0 go|wait|go s0|t0|u1 3",
                "s1|t0|u0 go|go|go s0|t1|u1 1",
                "s1|t0|u1 go|wait|go s0|t0|u0 2",
                "s1|t0|u1 go|go|go s0|t1|u0 1",
                "s1|t1|u0 go|wait|go s0|t0|u1 0.5",
                "s1|t1|u1 go|wait|go s0|t0|u0 0.5"),
            "labels": {
                "s0|t0|u0": [f"{x}.p"],
                "s0|t0|u1": [f"{x}.p", f"{z}.p"],
                "s0|t1|u0": [f"{x}.p", f"{y}.p", f"{y}.q"],
                "s0|t1|u1": [f"{x}.p", f"{y}.p", f"{y}.q", f"{z}.p"],
                "s1|t0|u1": [f"{z}.p"],
                "s1|t1|u0": [f"{y}.p", f"{y}.q"],
                "s1|t1|u1": [f"{y}.p", f"{y}.q", f"{z}.p"]},
            "accumulation": "min"}


# ======================== Unrolling ========================

class TestUnroll:
    def test_depth_one_mirrors_root_choice(self, t0):
        model = unroll(t0, 1)
        cells = model.actions_at("alpha", 0)
        assert len(cells) == 2 and all(len(c) == 1 for c in cells)
        assert model.validate() == []

    def test_depth_zero_rejected(self, t0):
        with pytest.raises(AutomatonError):
            unroll(t0, 0)

    def test_self_loop_value_is_bottleneck_of_prefix(self):
        aut = StitAutomaton(["q0", "q1", "q2", "q3"], "q0", ["K"], [],
                            [("q0", "K", "q1", 7), ("q1", "K", "q2", 3),
                             ("q2", "K", "q3", 5), ("q3", "K", "q3", 9)], {})
        model = unroll(aut, 3)
        assert len(model.histories) == 1
        assert list(model.histories.values())[0].value == Fraction(3)

    def test_labels_copied_from_states(self, t0):
        model = unroll(t0, 2)
        assert model.label(0, sorted(model.histories_through(0))[0]) == {"p"}

    def test_random_unrollings_validate(self):
        """Executing an automaton yields a valid utilitarian stit model."""
        rng = random.Random(2)
        for _ in range(60):
            aut = random_automaton(rng, max_states=4)
            depth = rng.randint(1, 4)
            assert unroll(aut, depth).validate() == []

    def test_deep_unroll_does_not_recurse(self):
        aut = StitAutomaton(["q0"], "q0", ["K"], [], [("q0", "K", "q0", 1)],
                            {})
        model = unroll(aut, 1500)
        assert len(model.histories) == 1 and len(model.moments) == 1501

    def test_moment_cap_counts_before_building(self, monkeypatch):
        """The cap reads the exact moment count: a model of MAX_MOMENTS
        moments is built and one of more is refused; a branching automaton
        at depth 40 (2^41 - 1 moments) is refused before anything is
        built."""
        rng = random.Random(3)
        for _ in range(30):
            aut = random_automaton(rng, max_states=4)
            depth = rng.randint(1, 5)
            n = len(unroll(aut, depth).moments)
            monkeypatch.setattr(automaton, "MAX_MOMENTS", n)
            assert len(unroll(aut, depth).moments) == n
            monkeypatch.setattr(automaton, "MAX_MOMENTS", n - 1)
            with pytest.raises(ResourceLimitError,
                               match=f"more than {n - 1} moments"):
                unroll(aut, depth)
            monkeypatch.undo()
        both = StitAutomaton(["q0", "q1"], "q0", ["x", "y"], [],
                             [(s, a, d, 1) for s in ("q0", "q1")
                              for a, d in (("x", "q0"), ("y", "q1"))], {})
        with pytest.raises(ResourceLimitError, match="depth 40"):
            unroll(both, 40)

    def test_matches_recursive_reference(self):
        """Histories keep their depth-first pre-order numbering h1, h2, ...
        on the acceptance criterion 7 draws."""
        for i in range(200):
            rng = random.Random(7_000_000 + i)
            aut = random_automaton(rng, max_states=4)
            depth = rng.randint(1, 4)
            got, want = unroll(aut, depth), recursive_unroll(aut, depth)
            assert got.to_json() == want.to_json(), i
            # one "*" entry per moment reads as the reference's pairs
            assert list(got.labels.items()) == list(want.labels.items()), i


def recursive_unroll(aut, depth, agent="alpha"):
    """Reference unrolling: moments numbered level by level, histories
    collected by a recursive depth-first descent."""
    moments, state, action, weight = [(0, None)], {0: aut.initial}, {}, {}
    level = [0]
    for _ in range(depth):
        below = []
        for m in level:
            for t in aut.out(state[m]):
                mid = len(moments)
                moments.append((mid, m))
                state[mid], action[mid], weight[mid] = t.dst, t.action, t.weight
                below.append(mid)
        level = below
    children = {}
    for mid, parent in moments[1:]:
        children.setdefault(parent, []).append(mid)
    histories = []

    def descend(path):
        kids = children.get(path[-1])
        if not kids:
            histories.append((f"h{len(histories) + 1}", path,
                              min(weight[m] for m in path[1:])))
        for kid in kids or ():
            descend(path + [kid])

    descend([0])
    through = {}
    for hid, path, _ in histories:
        for m in path:
            through.setdefault(m, []).append(hid)
    choices = {}
    for mid, kids in children.items():
        cells = {}
        for kid in kids:
            cells.setdefault(action[kid], set()).update(through[kid])
        choices[(agent, mid)] = [sorted(cells[a]) for a in
                                 aut.enabled_actions(state[mid]) if a in cells]
    labels = {(m, h): aut.label(state[m]) for m, _ in moments
              for h in through[m]}
    return ExplicitStitModel([agent], aut.atoms(), moments, histories,
                             choices, labels)


# ======================== T_n and T_n' ========================

class TestRestrictPrime:
    def test_restrict_keeps_only_one_first_action(self, t0):
        t1 = restrict_first_action(t0, "K1")
        assert t1.first_actions() == ["K1"]
        assert len(t1.transitions) == len(t0.transitions) - 1

    def test_restrict_unknown_action(self, t0):
        with pytest.raises(AutomatonError):
            restrict_first_action(t0, "K3")

    def test_restrict_single_action_identity(self):
        aut = StitAutomaton(["q0"], "q0", ["K"], [], [("q0", "K", "q0", 1)], {})
        assert restrict_first_action(aut, "K").transitions == aut.transitions

    def test_prime_state_count(self, t0):
        t1p = prime_automaton(restrict_first_action(t0, "K1"), t0)
        assert len(t1p.states) == len(t0.states) + 1
        assert t1p.validate() == []

    def test_prime_traces_equal_first_action_traces(self, t0):
        for action in ("K1", "K2"):
            tnp = prime_automaton(restrict_first_action(t0, action), t0)
            for depth in range(1, 6):
                assert bounded_traces(tnp, depth) == \
                    bounded_traces(t0, depth, first_action=action)

    def test_prime_trace_equivalence_random(self):
        rng = random.Random(3)
        for _ in range(40):
            aut = random_automaton(rng, max_states=4)
            action = aut.first_actions()[0]
            tnp = prime_automaton(restrict_first_action(aut, action), aut)
            assert bounded_traces(tnp, 5) == \
                bounded_traces(aut, 5, first_action=action)

    def test_single_first_action_trace_equivalent_to_whole(self):
        aut = StitAutomaton(["q0", "q1"], "q0", ["K", "m"], [],
                            [("q0", "K", "q1", 1), ("q1", "m", "q0", 2)], {})
        tnp = prime_automaton(restrict_first_action(aut, "K"), aut)
        assert bounded_traces(tnp, 5) == bounded_traces(aut, 5)


# ======================== Extremal values ========================

class TestExtremalValues:
    def test_t0_branches(self, t0):
        k1 = extremal_values(
            prime_automaton(restrict_first_action(t0, "K1"), t0))
        k2 = extremal_values(
            prime_automaton(restrict_first_action(t0, "K2"), t0))
        assert (k1.lo, k1.hi) == (4, 4)
        assert (k2.lo, k2.hi) == (2, 2)

    def test_max_reachable_weight_overapproximates(self):
        """Two lassos under one action: bottlenecks are 1 and 2, so the top
        value is 2 even though a weight-10 transition is reachable."""
        aut = StitAutomaton(
            ["q0", "q1", "q2"], "q0", ["K", "s"], [],
            [("q0", "K", "q1", 10), ("q1", "s", "q1", 1),
             ("q0", "K", "q2", 2), ("q2", "s", "q2", 3)], {})
        iv = extremal_values(aut)
        assert iv.hi == 2 and iv.hi != 10
        assert iv.lo == 1

    def test_constant_weights(self):
        aut = StitAutomaton(["q0"], "q0", ["K"], [],
                            [("q0", "K", "q0", 7)], {})
        iv = extremal_values(aut)
        assert iv.lo == iv.hi == 7

    def test_dead_end_is_an_error(self):
        aut = StitAutomaton(["q0", "q1"], "q0", ["K"], [],
                            [("q0", "K", "q1", 1)], {})
        with pytest.raises(AutomatonError, match="dead end"):
            extremal_values(aut)

    def test_agrees_with_lasso_oracle(self):
        rng = random.Random(4)
        for _ in range(120):
            aut = random_automaton(rng)
            iv = extremal_values(aut)
            lo, hi = oracle.brute_extremal(aut)
            assert (iv.lo, iv.hi) == (lo, hi)

    def test_first_action_intervals(self, t0):
        assert extremal_values(t0, "K1") == ValueInterval("K1", 4, 4)
        assert extremal_values(t0, "K2") == ValueInterval("K2", 2, 2)
        assert extremal_values(t0) == ValueInterval(None, 2, 4)
        with pytest.raises(AutomatonError, match="not enabled"):
            extremal_values(t0, "stay")

    def test_first_action_leaves_through_the_initial_state(self):
        """K's executions may come back to the initial state and leave by
        another action; those transitions count toward K's interval."""
        aut = StitAutomaton(
            ["q0", "q1", "q2"], "q0", ["K1", "K2", "s"], [],
            [("q0", "K1", "q1", 8), ("q1", "s", "q0", 6),
             ("q0", "K2", "q2", 1), ("q2", "s", "q2", 9)], {})
        assert extremal_values(aut, "K1") == ValueInterval("K1", 1, 6)
        assert extremal_values(aut, "K2") == ValueInterval("K2", 1, 1)

    def test_first_action_matches_primed_path_and_oracle(self):
        """On 1000 draws with up to 20 distinct weights, integer and not:
        K's interval on the automaton itself equals the primed automaton's
        and the lasso oracle's on the primed automaton.  The executions
        split by first action, so the whole automaton's interval spans the
        oracle's per-action ones."""
        rng = random.Random(404)
        for i in range(1000):
            pool = [Fraction(rng.randint(-10, 40), rng.choice((1, 1, 2, 3)))
                    for _ in range(rng.randint(1, 20))]
            aut = random_automaton(rng, max_states=4, weights=pool)
            brute = []
            for action in aut.first_actions():
                primed = prime_automaton(restrict_first_action(aut, action),
                                         aut)
                iv = extremal_values(aut, action)
                again = extremal_values(primed)
                assert iv == ValueInterval(action, again.lo, again.hi), i
                brute.append(oracle.brute_extremal(primed))
                assert (iv.lo, iv.hi) == brute[-1], i
            whole = extremal_values(aut)
            assert whole.lo == min(lo for lo, _ in brute), i
            assert whole.hi == max(hi for _, hi in brute), i

    def test_agrees_with_lasso_oracle_on_rational_weights(self):
        rng = random.Random(14)
        weights = (Fraction(1, 2), Fraction(2, 3), 1, Fraction(3, 2), 2)
        for _ in range(60):
            aut = random_automaton(rng, weights=weights)
            iv = extremal_values(aut)
            lo, hi = oracle.brute_extremal(aut)
            assert (iv.lo, iv.hi) == (lo, hi)


# ======================== File format ========================

class TestFileFormat:
    def test_round_trip(self, t0, tmp_path):
        path = tmp_path / "t0.json"
        save_automaton(t0, path)
        again = load_automaton(path)
        assert again.to_json() == t0.to_json()
        assert again.validate() == []

    @pytest.mark.parametrize("opener", ["[", '{"states":'])
    def test_deeply_nested_file_is_a_parse_error(self, tmp_path, opener):
        """A file nested past the parser's recursion limit is malformed."""
        path = tmp_path / "deep.json"
        path.write_text(opener * 100_000)
        with pytest.raises(ParseError, match="malformed file: .*nested too"):
            load_automaton(path)

    def test_decimal_weights_exact(self, tmp_path):
        aut = StitAutomaton(["q0"], "q0", ["K"], [],
                            [("q0", "K", "q0", Fraction(1, 2))], {})
        path = tmp_path / "a.json"
        save_automaton(aut, path)
        again = load_automaton(path)
        assert again.transitions[0].weight == Fraction(1, 2)
        assert aut.to_json()["transitions"][0]["weight"] == "0.5"

    def test_non_decimal_weights_survive(self, tmp_path):
        aut = StitAutomaton(["q0"], "q0", ["K"], [],
                            [("q0", "K", "q0", Fraction(1, 3))], {})
        path = tmp_path / "a.json"
        save_automaton(aut, path)
        assert load_automaton(path).transitions[0].weight == Fraction(1, 3)

    def test_unknown_fields_rejected(self, t0):
        data = t0.to_json()
        data["bonus"] = []
        with pytest.raises(AutomatonError, match="unknown fields"):
            StitAutomaton.from_json(data)

    def test_duplicate_state_rejected(self, t0):
        data = t0.to_json()
        data["states"].insert(1, data["states"][0])
        with pytest.raises(AutomatonError, match="duplicate state 'q0'"):
            StitAutomaton.from_json(data)

    def test_boolean_weight_rejected_after_equal_integer(self, t0):
        """Each distinct weight is parsed once, yet true is no weight even
        after a weight 1 in the same file."""
        data = t0.to_json()
        data["transitions"][0]["weight"] = 1
        assert StitAutomaton.from_json(data).transitions[0].weight == 1
        data["transitions"][1]["weight"] = True
        with pytest.raises(AutomatonError, match="bad weight True"):
            StitAutomaton.from_json(data)

    def test_weights_are_shared_and_exact(self, t0):
        data = t0.to_json()
        for e in data["transitions"]:
            e["weight"] = "0.1"
        data["transitions"][-1]["weight"] = 2
        aut = StitAutomaton.from_json(data)
        w = [t.weight for t in aut.transitions]
        assert w == [Fraction(1, 10)] * 3 + [2] and w[0] is w[2]

    @pytest.mark.parametrize("raw", ["abc", "1/0", [1], None])
    def test_unreadable_weight_is_an_automaton_error(self, t0, raw):
        data = t0.to_json()
        data["transitions"][0]["weight"] = raw
        with pytest.raises(AutomatonError, match="bad weight"):
            StitAutomaton.from_json(data)

    @pytest.mark.parametrize("raw", ["5", "007", "\u0663", "\u00b2",
                                     "\u00bd", " 5", "+5", "5_0", "1e3", "",
                                     "1" * 30])
    def test_string_weight_reads_as_fraction_reads_it(self, raw):
        """Digit-only strings skip Fraction's pattern; every string still
        gives Fraction's value, or is refused where Fraction refuses it."""
        try:
            expected = Fraction(raw)
        except ValueError:
            with pytest.raises(AutomatonError, match="bad weight"):
                _as_rational(raw, "weight", AutomatonError)
        else:
            got = _as_rational(raw, "weight", AutomatonError)
            assert type(got) is Fraction and got == expected

    def test_only_min_accumulation_loads(self, t0):
        data = t0.to_json()
        assert data["accumulation"] == "min"
        data["accumulation"] = "sum"
        with pytest.raises(AutomatonError, match="accumulation 'sum'"):
            StitAutomaton.from_json(data)
