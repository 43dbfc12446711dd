"""Stit automata: validation, products, unrolling, surgeries, values."""

import random
from fractions import Fraction

import pytest

from deontic_mc.automaton import (
    StitAutomaton,
    bounded_traces,
    extremal_values,
    load_automaton,
    prime_automaton,
    product,
    restrict_first_action,
    save_automaton,
    unroll,
)
from deontic_mc.errors import AutomatonError
from deontic_mc.generate import random_automaton

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

    def test_weight_policies(self):
        a = StitAutomaton(["s0"], "s0", ["x"], [], [("s0", "x", "s0", 2)], {})
        b = StitAutomaton(["t0"], "t0", ["u"], [], [("t0", "u", "t0", 5)], {})
        assert product([a, b], "min").transitions[0].weight == 2
        assert product([a, b], "sum").transitions[0].weight == 7


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

    def test_only_min_accumulation_loads(self, t0):
        data = t0.to_json()
        assert data["accumulation"] == "min"
        data["accumulation"] = "sum"
        with pytest.raises(AutomatonError, match="accumulation 'sum'"):
            StitAutomaton.from_json(data)
