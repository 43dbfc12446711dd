"""Explicit stit models: axioms, satisfaction, dominance, file format."""

import json
import random
import warnings
from fractions import Fraction

import pytest

from deontic_mc import formula as fm
from deontic_mc import rss
from deontic_mc.errors import ModelError
from deontic_mc.generate import random_model, random_path_formula
from deontic_mc.tree_model import (
    ExplicitStitModel,
    check_inference_condition,
    load_model,
    save_model,
)


def tiny_two_agent(values=(5, 5, 1, 1), labels=None):
    """2x2 grid model: alpha rows {h1,h2}/{h3,h4}, beta columns {h1,h3}/{h2,h4}."""
    moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
    histories = [("h1", [0, 1], values[0]), ("h2", [0, 2], values[1]),
                 ("h3", [0, 3], values[2]), ("h4", [0, 4], values[3])]
    choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]],
               ("beta", 0): [["h1", "h3"], ["h2", "h4"]]}
    return ExplicitStitModel(["alpha", "beta"], ["p", "g"], moments, histories,
                             choices, labels or {})


# ======================== Validation ========================

class TestValidate:
    def test_fig1_is_clean(self, fig1):
        assert fig1.validate() == []

    def test_partition_violation_when_cells_share_a_history(self, fig1):
        data = fig1.to_json()
        data["choices"][0]["actions"] = [["h1", "h2", "h3", "h4", "h5"],
                                         ["h5", "h6"]]
        bad = ExplicitStitModel.from_json(data)
        axioms = {v.axiom for v in bad.validate()}
        assert "partition" in axioms

    def test_independence_violation(self):
        model = tiny_two_agent()
        model.choices[("beta", 0)] = (frozenset({"h1", "h2"}),
                                      frozenset({"h3", "h4"}))
        axioms = {v.axiom for v in model.validate()}
        # alpha's {h1,h2} never meets beta's {h3,h4}
        assert "independence" in axioms

    def test_undivided_violation(self):
        moments = [(0, None), (1, 0), (2, 1), (3, 1)]
        histories = [("h1", [0, 1, 2], 1), ("h2", [0, 1, 3], 2)]
        choices = {("alpha", 0): [["h1"], ["h2"]]}  # but they share moment 1
        bad = ExplicitStitModel(["alpha"], [], moments, histories, choices, {})
        axioms = {v.axiom for v in bad.validate()}
        assert "undivided" in axioms

    def test_history_must_end_at_leaf(self):
        moments = [(0, None), (1, 0), (2, 1)]
        histories = [("h1", [0, 1], 1), ("h2", [0, 1, 2], 1)]
        bad = ExplicitStitModel(["alpha"], [], moments, histories, {}, {})
        assert any(v.axiom == "history-path" for v in bad.validate())

    def test_random_models_are_valid(self):
        rng = random.Random(42)
        for _ in range(150):
            assert random_model(rng, n_agents=rng.randint(1, 2)).validate() == []


# ======================== Basic structure ========================

class TestStructure:
    def test_histories_through_root(self, fig1):
        assert fig1.histories_through(0) == frozenset(
            {"h1", "h2", "h3", "h4", "h5", "h6"})

    def test_histories_through_m_prime(self, fig1):
        assert fig1.histories_through(1) == frozenset(
            {"h1", "h2", "h3", "h4"})

    def test_leaf_moment_carries_its_history_only(self, fig1):
        assert fig1.histories_through(3) == frozenset({"h5"})

    def test_unknown_moment(self, fig1):
        with pytest.raises(ModelError):
            fig1.histories_through(99)

    def test_background_states_single_agent(self, fig1):
        """With no other agents, the only background state is H_m."""
        got = fig1.background_states("alpha", 0)
        assert got.states == (fig1.histories_through(0),)
        assert got.moment == 0 and got.focal_agent == ("alpha",)

    def test_background_states_two_agents(self):
        model = tiny_two_agent()
        assert set(model.background_states("alpha", 0).states) == {
            frozenset({"h1", "h3"}), frozenset({"h2", "h4"})}


# ======================== Satisfaction ========================

class TestSatisfaction:
    def test_fig2_bounded_examples(self, fig2):
        assert fig2.satisfies_path(5, "h0", fm.parse_formula("F[0:0] p"))
        assert fig2.satisfies_path(5, "h2", fm.parse_formula("F[0:2] p"))

    def test_fig2_forall_eventually_collision(self, fig2):
        assert fig2.satisfies_path(5, "hpi", fm.parse_formula("A F collision"))

    def test_true_everywhere(self, fig1):
        assert fig1.satisfies_path(0, "h1", fm.TRUE)

    def test_satisfies_path_rejects_stit(self, fig1):
        from deontic_mc.errors import GrammarError
        with pytest.raises(GrammarError):
            fig1.satisfies_path(0, "h1", fm.parse_formula("[alpha cstit: A]"))

    def test_extension_fig1(self, fig1):
        assert fig1.extension(0, fm.Plain(fm.Atom("A"))) == frozenset(
            {"h1", "h2", "h3", "h5", "h6"})
        assert fig1.extension(0, fm.Plain(fm.TRUE)) == fig1.histories_through(0)
        assert fig1.extension(0, fm.parse("[alpha dstit: A]")) == frozenset(
            {"h5", "h6"})

    def test_cstit_fig1(self, fig1):
        cstit_a = fm.parse_formula("[alpha cstit: A]")
        assert fig1.satisfies(0, "h5", cstit_a)
        assert not fig1.satisfies(0, "h1", cstit_a)

    def test_dstit_fig1(self, fig1):
        assert fig1.satisfies(0, "h5", fm.parse_formula("[alpha dstit: A]"))

    def test_ought_fig1(self, fig1):
        ought_a = fm.parse("O[alpha cstit: A]")
        assert fig1.satisfies(0, "h5", ought_a)
        assert not fig1.satisfies(1, "h1", ought_a)

    def test_unknown_atom_warns_once_and_is_false(self, fig1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not fig1.satisfies(0, "h1", fm.Atom("nosuch"))
            assert not fig1.satisfies(0, "h2", fm.Atom("nosuch"))
        assert len(caught) == 1

    def test_stutter_next_at_leaf(self, fig1):
        # h5's leaf is moment 3; X A re-evaluates at the leaf
        assert fig1.satisfies(3, "h5", fm.parse_formula("X A")) == \
            fig1.satisfies(3, "h5", fm.Atom("A"))
        assert fig1.satisfies(3, "h5", fm.parse_formula("G A"))


# ======================== Optimality and dominance ========================

class TestOptimal:
    def test_fig1_optimal_sets(self, fig1):
        at_root = fig1.optimal_actions("alpha", 0)
        assert set(at_root.actions) == {frozenset({"h5", "h6"})}
        at_m2 = fig1.optimal_actions("alpha", 1)
        assert set(at_m2.actions) == {frozenset({"h2"}),
                                      frozenset({"h3", "h4"})}

    def test_single_action_is_optimal(self):
        moments = [(0, None), (1, 0), (2, 0)]
        histories = [("h1", [0, 1], 0), ("h2", [0, 2], 9)]
        model = ExplicitStitModel(["alpha"], [], moments, histories, {}, {})
        assert model.optimal_actions("alpha", 0).actions == (
            frozenset({"h1", "h2"}),)

    def test_interval_tie_leaves_both_undominated(self):
        """Values {1,2} against {2,5}: the weak comparison holds but not the
        all-strict one, so neither action is dominated."""
        moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
        histories = [("h1", [0, 1], 1), ("h2", [0, 2], 2),
                     ("h3", [0, 3], 2), ("h4", [0, 4], 5)]
        choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]]}
        model = ExplicitStitModel(["alpha"], [], moments, histories, choices, {})
        assert len(model.optimal_actions("alpha", 0).actions) == 2

    def test_dominance_strict_partial_order(self):
        """Irreflexive and transitive over random valid models."""
        rng = random.Random(21)
        for _ in range(60):
            model = random_model(rng, n_agents=rng.randint(1, 2))
            for agent in model.agents:
                for mid in model.moments:
                    cells = model.actions_at(agent, mid)
                    for k in cells:
                        assert not model.dominates(agent, mid, k, k)
                    for a in cells:
                        for b in cells:
                            for c in cells:
                                if model.dominates(agent, mid, a, b) and \
                                        model.dominates(agent, mid, b, c):
                                    assert model.dominates(agent, mid, a, c)

    def test_optimal_nonempty_on_random_models(self):
        rng = random.Random(22)
        for _ in range(100):
            model = random_model(rng, n_agents=rng.randint(1, 2))
            for agent in model.agents:
                for mid in model.moments:
                    assert model.optimal_actions(agent, mid).actions

    def test_group_actions_are_intersections(self):
        model = tiny_two_agent()
        cells = model.group_actions(("alpha", "beta"), 0)
        assert set(cells) == {frozenset({h}) for h in
                              ("h1", "h2", "h3", "h4")}

    @pytest.mark.filterwarnings("ignore:atom")
    def test_condition_unsatisfiable_is_an_error(self, fig1):
        with pytest.raises(ModelError, match="condition unsatisfiable"):
            fig1.optimal_actions("alpha", 0,
                                 condition=fm.Plain(fm.Atom("nosuch2")))

    def test_condition_excludes_disjoint_actions(self):
        # unconditioned, {h1,h2} is strictly dominated; conditioned on g
        # (only h1) the other action has no g-history and drops out
        moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
        histories = [("h1", [0, 1], 2), ("h2", [0, 2], 0),
                     ("h3", [0, 3], 3), ("h4", [0, 4], 9)]
        choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]]}
        labels = {(0, "h1"): {"g"}}
        model = ExplicitStitModel(["alpha"], ["g"], moments, histories,
                                  choices, labels)
        plain = model.optimal_actions("alpha", 0).actions
        conditioned = model.optimal_actions(
            "alpha", 0, condition=fm.Plain(fm.Atom("g"))).actions
        assert set(plain) == {frozenset({"h3", "h4"})}
        assert set(conditioned) == {frozenset({"h1", "h2"})}

    def test_condition_restricts_value_comparisons(self):
        # unconditioned the actions are incomparable; restricted to the
        # g-histories the comparison becomes 0 against 1
        moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
        histories = [("h1", [0, 1], 5), ("h2", [0, 2], 0),
                     ("h3", [0, 3], 1), ("h4", [0, 4], 4)]
        choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]]}
        labels = {(0, "h2"): {"g"}, (0, "h3"): {"g"}}
        model = ExplicitStitModel(["alpha"], ["g"], moments, histories,
                                  choices, labels)
        assert len(model.optimal_actions("alpha", 0).actions) == 2
        conditioned = model.optimal_actions(
            "alpha", 0, condition=fm.Plain(fm.Atom("g"))).actions
        assert set(conditioned) == {frozenset({"h3", "h4"})}


# ======================== Ought-level properties ========================

class TestOughtProperties:
    def test_history_independence(self):
        rng = random.Random(31)
        for _ in range(60):
            model = random_model(rng, n_agents=rng.randint(1, 2))
            agent = model.agents[0]
            ob = fm.ought(agent, fm.Plain(
                random_path_formula(rng, 2, model.atoms)))
            for mid in model.moments:
                hs = sorted(model.histories_through(mid))
                answers = {model.satisfies(mid, h, ob) for h in hs}
                assert len(answers) == 1

    def test_conjunction_distribution(self):
        rng = random.Random(32)
        for _ in range(60):
            model = random_model(rng, n_agents=1)
            a = random_path_formula(rng, 2, model.atoms)
            b = random_path_formula(rng, 2, model.atoms)
            for mid in model.moments:
                h = sorted(model.histories_through(mid))[0]
                both = (model.satisfies(mid, h, fm.ought("alpha", fm.Plain(a)))
                        and model.satisfies(mid, h,
                                            fm.ought("alpha", fm.Plain(b))))
                joint = model.satisfies(
                    mid, h, fm.ought("alpha", fm.Plain(fm.And(a, b))))
                assert both == joint

    def test_force_others(self):
        """O[a cstit: A|B] with |A|_m empty forces O[a cstit: B]."""
        rng = random.Random(33)
        checked = 0
        for _ in range(200):
            model = random_model(rng, n_agents=1, atoms=("p", "q", "z"),
                                 never_label=("z",))
            a = random_path_formula(rng, 1, ["p", "z"])
            b = random_path_formula(rng, 2, ["p", "q"])
            for mid in model.moments:
                ext_a = model.extension(mid, fm.Plain(a))
                ext_b = model.extension(mid, fm.Plain(b))
                assert model.extension(mid, fm.Plain(fm.Or(a, b))) == \
                    ext_a | ext_b
                if ext_a:
                    continue
                h = sorted(model.histories_through(mid))[0]
                if model.satisfies(mid, h,
                                   fm.ought("alpha", fm.Plain(fm.Or(a, b)))):
                    checked += 1
                    assert model.satisfies(mid, h,
                                           fm.ought("alpha", fm.Plain(b)))
        assert checked > 20

    def test_ought_true_is_a_theorem(self):
        rng = random.Random(34)
        for _ in range(40):
            model = random_model(rng, n_agents=rng.randint(1, 2))
            for agent in model.agents:
                for mid in model.moments:
                    h = sorted(model.histories_through(mid))[0]
                    assert model.satisfies(mid, h,
                                           fm.ought(agent, fm.Plain(fm.TRUE)))

    def test_naive_versus_refraining_under_inevitability(self):
        """When phi covers H_m, forbidding phi fails but refraining holds."""
        rng = random.Random(35)
        for _ in range(60):
            model = random_model(rng, n_agents=1)
            phi = fm.TRUE
            mid = 0
            h = sorted(model.histories_through(mid))[0]
            naive = fm.ought("alpha", fm.Plain(fm.Not(phi)))
            refined = fm.ought("alpha", fm.NegatedObligation(
                fm.DstitOf("alpha", fm.Plain(phi))))
            assert not model.satisfies(mid, h, naive)
            assert model.satisfies(mid, h, refined)

    def test_vacuous_conditional_ought(self):
        model = tiny_two_agent()
        st = fm.ought("alpha", fm.Plain(fm.Atom("p")),
                      condition=fm.Plain(fm.Atom("g")))  # g never labeled
        assert model.satisfies(0, "h1", st)


# ======================== Inference condition ========================

class TestInferenceCondition:
    def test_fig3_holds_with_witness(self, fig3):
        ok, witnesses = check_inference_condition(
            fig3, "alpha", 0, "g_alpha", "p_alpha")
        assert ok
        assert witnesses == [(frozenset({"htilde", "hgood"}), "htilde", 1)]

    @pytest.mark.filterwarnings("ignore:atom")
    def test_fails_when_guard_never_violated(self, fig1):
        ok, witnesses = check_inference_condition(fig1, "alpha", 0, "g", "p")
        assert not ok and witnesses == []

    def test_fails_on_singleton_optimal(self):
        moments = [(0, None), (1, 0), (2, 0)]
        histories = [("h1", [0, 1], 9), ("h2", [0, 2], 0)]
        choices = {("alpha", 0): [["h1"], ["h2"]]}
        labels = {(0, "h1"): {"p_alpha"}}
        model = ExplicitStitModel(["alpha"], ["g_alpha", "p_alpha"], moments,
                                  histories, choices, labels)
        ok, _ = check_inference_condition(model, "alpha", 0,
                                          "g_alpha", "p_alpha")
        assert not ok


# ======================== File format ========================

class TestFileFormat:
    def test_round_trip(self, fig1, tmp_path):
        path = tmp_path / "fig1.json"
        save_model(fig1, path)
        again = load_model(path)
        assert again.to_json() == fig1.to_json()
        assert again.validate() == []
        assert again.histories["h1"].value == Fraction(3)

    def test_unknown_fields_rejected(self, fig1, tmp_path):
        data = fig1.to_json()
        data["extra"] = 1
        with pytest.raises(ModelError, match="unknown fields"):
            ExplicitStitModel.from_json(data)

    def test_unknown_entry_fields_rejected(self, fig1):
        data = fig1.to_json()
        data["moments"][0]["weird"] = True
        with pytest.raises(ModelError, match="unknown fields"):
            ExplicitStitModel.from_json(data)

    def test_missing_fields_rejected(self, fig1):
        data = fig1.to_json()
        del data["labels"]
        with pytest.raises(ModelError, match="missing fields"):
            ExplicitStitModel.from_json(data)

    def test_star_label_expands_to_all_histories_through(self, tmp_path):
        data = {
            "agents": ["alpha"], "atoms": ["p"],
            "moments": [{"id": 0, "parent": None}, {"id": 1, "parent": 0},
                        {"id": 2, "parent": 0}],
            "histories": [{"id": "h1", "moments": [0, 1], "value": "1"},
                          {"id": "h2", "moments": [0, 2], "value": "2"}],
            "choices": [],
            "labels": [{"moment": 0, "history": "*", "atoms": ["p"]}],
        }
        model = ExplicitStitModel.from_json(data)
        assert model.label(0, "h1") == {"p"} and model.label(0, "h2") == {"p"}

    def test_decimal_values_parse_exactly(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({
            "agents": ["alpha"], "atoms": [],
            "moments": [{"id": 0, "parent": None}, {"id": 1, "parent": 0}],
            "histories": [{"id": "h1", "moments": [0, 1], "value": 0.1}],
            "choices": [], "labels": [],
        }))
        model = load_model(path)
        assert model.histories["h1"].value == Fraction(1, 10)


# ======================== The rss3 pieces on explicit models ========================

class TestRss3OnModels:
    def test_group_pos_true_when_someone_granted(self):
        labels = {(0, "h1"): {"g_alpha"}}
        model = tiny_two_agent(labels=labels)
        model.atoms = ["g_alpha", "g_beta"]
        pos = rss.rss3(["alpha", "beta"]).pos
        assert model.satisfies(0, "h1", pos)
        assert model.satisfies(0, "h4", pos)

    def test_group_pos_false_when_nobody_granted(self):
        model = tiny_two_agent()
        model.atoms = ["g_alpha", "g_beta"]
        pos = rss.rss3(["alpha", "beta"]).pos
        assert not model.satisfies(0, "h1", pos)

    def test_prohib_false_when_optimal_action_takes_row(self):
        # optimal action {h1,h2} contains h1 with p and never g
        labels = {(0, "h1"): {"p_alpha"}}
        model = tiny_two_agent(values=(5, 5, 1, 1), labels=labels)
        model.atoms = ["g_alpha", "p_alpha"]
        prohib = rss.rss3(["alpha"]).prohib[0]
        assert not model.satisfies(0, "h1", prohib)
