"""Explicit stit models: axioms, satisfaction, dominance, file format."""

import copy
import itertools
import json
import random
import warnings
from collections import Counter
from fractions import Fraction

import pytest

from deontic_mc import formula as fm
from deontic_mc import rss
from deontic_mc.automaton import StitAutomaton, unroll
from deontic_mc.errors import ModelError, ParseError
from deontic_mc.generate import (
    random_model,
    random_obligation,
    random_path_formula,
)
from deontic_mc.model_index import ModelIndex
from deontic_mc.tree_model import (
    ExplicitStitModel,
    Violation,
    check_inference_condition,
    load_model,
    save_model,
)
from reference_validate import reference_validate


def tiny_two_agent(values=(5, 5, 1, 1), labels=None):
    """2x2 grid model: alpha rows {h1,h2}/{h3,h4}, beta columns {h1,h3}/{h2,h4}."""
    moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
    histories = [("h1", [0, 1], values[0]), ("h2", [0, 2], values[1]),
                 ("h3", [0, 3], values[2]), ("h4", [0, 4], values[3])]
    choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]],
               ("beta", 0): [["h1", "h3"], ["h2", "h4"]]}
    return ExplicitStitModel(["alpha", "beta"], ["p", "g"], moments, histories,
                             choices, labels or {})


def three_agent_grid(rng):
    """An independent three-agent model: at the root alpha splits the
    histories two ways, beta three ways and gamma two ways, and each of the
    12 joint cells holds one or two histories, each ending at a leaf of its
    own.  Values are random with ties, and p labels about half of them."""
    cells = {"alpha": [[], []], "beta": [[], [], []], "gamma": [[], []]}
    histories = []
    for pick in itertools.product(range(2), range(3), range(2)):
        for _ in range(rng.randint(1, 2)):
            hid = f"h{len(histories)}"
            histories.append((hid, [0, len(histories) + 1], rng.randint(0, 6)))
            for agent, i in zip(cells, pick):
                cells[agent][i].append(hid)
    moments = [(0, None)] + [(m, 0) for m in range(1, len(histories) + 1)]
    labels = {(0, hid): {"p"} for hid, _, _ in histories if rng.random() < .5}
    labels[0, "h0"] = {"p"}
    return ExplicitStitModel(list(cells), ["p"], moments, histories,
                             {(agent, 0): c for agent, c in cells.items()},
                             labels)


# ======================== Validation ========================

# history-path cases on the moments 0 -> {1 -> {2, 3}, 4}: the histories
# and the whole expected report, each uncovered leaf as an int
HISTORY_PATH_CASES = [
    ([("h1", [], 1)], [
        "[history-path] history h1 mentions unknown moments", 2, 3, 4]),
    ([("h1", [0, 1, 9], 1)], [
        "[history-path] history h1 mentions unknown moments", 2, 3, 4]),
    ([("h1", [1, 2], 1)], [
        "[history-path] (moment=1) history h1 does not start at the root",
        2, 3, 4]),
    ([("h1", [0, 2, 4], 1)], [
        "[history-path] (moment=2) history h1: 2 is not a child of 0",
        2, 3, 4]),
    ([("h1", [0, 1], 1)], [
        "[history-path] (moment=1) history h1 ends at a non-leaf moment",
        2, 3, 4]),
    ([("h0", [0, 4], 1), ("h1", [], 1), ("h2", [9, 1, 2], 1),
      ("h3", [1, 3], 1), ("h4", [0, 2], 1), ("h5", [0, 1], 1),
      ("h6", [0, 1, 3], 1)], [
        "[history-path] history h1 mentions unknown moments",
        "[history-path] history h2 mentions unknown moments",
        "[history-path] (moment=1) history h3 does not start at the root",
        "[history-path] (moment=2) history h4: 2 is not a child of 0",
        "[history-path] (moment=1) history h5 ends at a non-leaf moment",
        2]),
]
HISTORY_PATH_IDS = ["empty", "unknown-moment", "not-at-root", "broken-link",
                    "non-leaf-end", "mixed"]


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

    def test_root_parent_and_unknown_partition_violations(self):
        """Two roots, a parent that is not a moment, and choices for an
        unknown agent and at an unknown moment."""
        moments = [(0, None), (1, 0), (5, None), (6, 9)]
        histories = [("h1", [0, 1], 1)]
        choices = {("alpha", 0): [["h1"]], ("beta", 0): [["h1"]],
                   ("alpha", 7): [["h1"]]}
        bad = ExplicitStitModel(["alpha"], [], moments, histories, choices, {})
        assert [str(v) for v in bad.validate()
                if v.axiom in ("root", "parent", "partition")] == [
            "[root] expected a unique root moment 0, found [0, 5]",
            "[parent] (moment=6) parent 9 does not exist",
            "[partition] (agent=alpha, moment=7) unknown moment",
            "[partition] (agent=beta, moment=0) unknown agent"]
        single = ExplicitStitModel(["alpha"], [], [(3, None), (4, 3)],
                                   [("h1", [3, 4], 1)], {}, {})
        assert [str(v) for v in single.validate() if v.axiom == "root"] == [
            "[root] expected a unique root moment 0, found [3]"]

    def test_depth_counts_declared_ancestors(self):
        model = ExplicitStitModel(["alpha"], [], [(0, None), (1, 0), (2, 1),
                                                  (3, 9), (4, 3)], [], {}, {})
        assert {m.id: m.depth for m in model.moments.values()} == {
            0: 0, 1: 1, 2: 2, 3: 0, 4: 1}

    def test_cyclic_parent_chain_is_rejected(self):
        with pytest.raises(ModelError, match="cyclic parent chain at moment 1"):
            ExplicitStitModel(["alpha"], [], [(0, None), (1, 2), (2, 3),
                                              (3, 2)], [], {}, {})

    @pytest.mark.parametrize("moments", [
        [(0, None), (1, 0), (2, 2), (3, 2), (4, 1)],
        [(0, None), (4, 5), (5, 6), (1, 0), (6, 7), (7, 6)],
        [(0, None), (2, 1), (1, 0), (3, 9), (4, 3), (5, 8), (6, 5), (7, 6)],
        [(0, None), (3, 9), (10, 11), (11, 10), (12, 3)],
    ], ids=["self-parent", "chain-into-a-cycle", "orphans",
            "orphan-and-cycle"])
    def test_depths_match_an_upward_walk(self, moments):
        """Depths, or the moment a cycle is named at, as a walk up each
        moment's parent chain finds them."""
        self._same_depths(moments)

    def test_depths_match_an_upward_walk_on_random_parents(self):
        rng = random.Random(52)
        for _ in range(300):
            ids = rng.sample(range(12), rng.randint(1, 8))
            self._same_depths([(m, rng.choice(ids + [None, 99]))
                               for m in ids])

    @staticmethod
    def _upward_depths(parents):
        """Each moment's depth by a walk up its parent chain to an
        undeclared parent, or the error naming the first moment whose walk
        comes back on itself."""
        depths = {}
        for mid in parents:
            seen, cur = {mid}, mid
            while parents[cur] in parents:
                cur = parents[cur]
                if cur in seen:
                    return f"cyclic parent chain at moment {mid}"
                seen.add(cur)
            depths[mid] = len(seen) - 1
        return depths

    def _same_depths(self, moments):
        try:
            model = ExplicitStitModel(["alpha"], [], moments, [], {}, {})
        except ModelError as e:
            got = str(e)
        else:
            got = {m.id: m.depth for m in model.moments.values()}
        assert got == self._upward_depths(dict(moments)), moments

    def test_label_entries_that_match_nothing(self, fig1):
        """An entry at an undeclared moment, or for a history that is not
        declared or does not pass through its moment, is reported in entry
        order; a "*" entry at a declared moment is not."""
        data = fig1.to_json()
        data["labels"] += [
            {"moment": 0, "history": "h99", "atoms": ["A"]},
            {"moment": 77, "history": "h1", "atoms": ["A"]},
            {"moment": 77, "history": "*", "atoms": ["A"]},
            {"moment": 3, "history": "h1", "atoms": ["A"]},
            {"moment": 1, "history": "*", "atoms": ["A"]}]
        model = ExplicitStitModel.from_json(data)
        got = model.validate()
        assert [str(v) for v in got] == [
            f"[labels] (moment={m}) label entry for {h} names no history "
            f"through a declared moment"
            for m, h in ((0, "h99"), (77, "h1"), (77, "*"), (3, "h1"))]
        assert got == reference_validate(model)

    def test_history_must_end_at_leaf(self):
        moments = [(0, None), (1, 0), (2, 1)]
        histories = [("h1", [0, 1], 1), ("h2", [0, 1, 2], 1)]
        bad = ExplicitStitModel(["alpha"], [], moments, histories, {}, {})
        assert any(v.axiom == "history-path" for v in bad.validate())

    @pytest.mark.parametrize("histories,expected", HISTORY_PATH_CASES,
                             ids=HISTORY_PATH_IDS)
    def test_history_path_report(self, histories, expected):
        """The whole list, in order: at most one history-path violation per
        history, then each leaf (an int in expected) that no valid history
        ends at."""
        moments = [(0, None), (1, 0), (2, 1), (3, 1), (4, 0)]
        bad = ExplicitStitModel(["alpha"], [], moments, histories, {}, {})
        assert [str(v) for v in bad.validate()] == [
            f"[leaf-covered] (moment={e}) no history ends at this leaf"
            if isinstance(e, int) else e for e in expected]

    @pytest.mark.parametrize("path,expected", [
        ([9], "history h1 mentions unknown moments"),
        ([0, 1, 0, 4], "(moment=0) history h1: 0 is not a child of 1"),
        ([0], "(moment=0) history h1 ends at a non-leaf moment"),
        ([5, 6], "(moment=5) history h1 does not start at the root"),
        ([], "history h1 mentions unknown moments"),
    ], ids=["undeclared-moment-alone", "back-to-the-root", "inner-end",
            "through-an-orphan", "no-moments"])
    def test_path_checked_by_its_leaf(self, path, expected):
        """A linked path is its leaf's path from the root: each of these is
        not, and is reported, grouped and evaluated as the path-by-path
        reference has it.  Moment 5's parent 9 is not declared."""
        moments = [(0, None), (1, 0), (2, 1), (3, 1), (4, 0), (5, 9), (6, 5)]
        histories = [("h0", [0, 1, 2], 1), ("h1", path, 2), ("h2", [0, 4], 3)]
        labels = {(0, "*"): {"q"}, (1, "h0"): {"p"}, (4, "*"): {"p"},
                  (6, "*"): {"p"}, (9, "*"): {"q"}}
        model = ExplicitStitModel(["alpha"], ["p", "q"], moments, histories,
                                  {}, labels)
        got = model.validate()
        assert got == reference_validate(model)
        assert [str(v) for v in got if v.axiom == "history-path"] == [
            f"[history-path] {expected}"]
        assert list(model._index().broken) == ["h1"]
        ref = RecursiveReference(model)
        for f in map(fm.parse_formula, ("F p", "G q", "X p", "q U p")):
            for mid in model.moments:
                for h in sorted(model.histories_through(mid)):
                    assert model.satisfies(mid, h, f) == ref.sat(mid, h, f), \
                        (fm.render(f), mid, h)

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

    def test_three_agents_match_the_reference(self):
        """Background states of a group with one or two agents outside it
        (random_model draws at most two agents): optimal actions, with and
        without a condition, and dominance on every pair of the group's
        cells, against the all-pairs reference."""
        rng = random.Random(61)
        cond = fm.parse_formula("p")
        seen = Counter()
        for _ in range(15):
            model = three_agent_grid(rng)
            assert model.validate() == []
            ref = RecursiveReference(model)
            for size in (1, 2, 3):
                for group in itertools.combinations(model.agents, size):
                    for c in (None, cond):
                        got = model.optimal_actions(group, 0, c).actions
                        assert got == ref.optimal(group, 0, c)
                        seen["optimal", size] += len(got) < len(
                            model.group_actions(group, 0))
                        cells = model.group_actions(group, 0)
                        for lo, hi in itertools.product(cells, repeat=2):
                            want = ref.dominates(group, 0, lo, hi, c)
                            assert model.dominates(group, 0, lo, hi, c) == want
                            seen[want, size] += 1
        assert all(seen[key] for key in itertools.product(
            ("optimal", True, False), (1, 2, 3))), seen

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

    @pytest.mark.parametrize("opener", ["[", '{"moments":'])
    def test_deeply_nested_file_is_a_parse_error(self, tmp_path, opener):
        """A file nested past the parser's recursion limit is malformed."""
        path = tmp_path / "deep.json"
        path.write_text(opener * 100_000)
        with pytest.raises(ParseError, match="malformed file: .*nested too"):
            load_model(path)

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

    def test_duplicate_history_id_rejected(self):
        """Two histories named h1 are a file error, not one history whose
        other leaf validate() would blame."""
        data = {
            "agents": ["alpha"], "atoms": [],
            "moments": [{"id": 0, "parent": None}, {"id": 1, "parent": 0},
                        {"id": 2, "parent": 0}],
            "histories": [{"id": "h1", "moments": [0, 1], "value": "1"},
                          {"id": "h1", "moments": [0, 2], "value": "2"}],
            "choices": [], "labels": [],
        }
        with pytest.raises(ModelError, match="duplicate history id 'h1'"):
            ExplicitStitModel.from_json(data)

    def test_duplicate_moment_id_rejected(self, fig1):
        data = fig1.to_json()
        data["moments"].append({"id": 1, "parent": 0})
        with pytest.raises(ModelError, match="duplicate moment id 1"):
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


# ======================== Recursive reference ========================

class RecursiveReference:
    """The satisfaction relation computed one (moment, history, formula) at a
    time, recursively and memoised, with all-pairs value scans for
    dominance: the evaluation the bitmask index replaced.  It reads only the
    model's structure (H_m, step, choices, labels and values)."""

    def __init__(self, model):
        self.model = model
        self.cache = {}

    def extension(self, mid, a):
        return frozenset(h for h in self.model.histories_through(mid)
                         if self.sat(mid, h, a))

    def sat(self, mid, hid, x):
        key = (mid, hid, x)
        if key not in self.cache:
            self.cache[key] = self._raw(mid, hid, x)
        return self.cache[key]

    def _raw(self, mid, hid, x):
        model, sat = self.model, self.sat
        if isinstance(x, fm.OughtStatement):
            return self._ought(mid, x)
        if isinstance(x, fm.Plain):
            return sat(mid, hid, x.formula)
        if isinstance(x, (fm.Dstit, fm.DstitOf)):
            ext = self.extension(mid, x.body)
            return (ext != model.histories_through(mid)
                    and model.choice_of(x.agent, mid, hid) <= ext)
        if isinstance(x, fm.Cstit):
            return model.choice_of(x.agent, mid, hid) <= self.extension(
                mid, x.body)
        if isinstance(x, fm.NegatedObligation):
            return not sat(mid, hid, x.body)
        if isinstance(x, fm.Atom):
            return x.name in model.label(mid, hid)
        if isinstance(x, fm.TrueFormula):
            return True
        if isinstance(x, fm.FalseFormula):
            return False
        if isinstance(x, fm.Not):
            return not sat(mid, hid, x.operand)
        if isinstance(x, fm.And):
            return sat(mid, hid, x.left) and sat(mid, hid, x.right)
        if isinstance(x, fm.Or):
            return sat(mid, hid, x.left) or sat(mid, hid, x.right)
        if isinstance(x, fm.Implies):
            return (not sat(mid, hid, x.left)) or sat(mid, hid, x.right)
        if isinstance(x, fm.Next):
            return sat(model.step(mid, hid), hid, x.operand)
        if isinstance(x, fm.NextPow):
            return sat(self._step_n(mid, hid, x.steps), hid, x.operand)
        if isinstance(x, fm.Until):
            return self._until(mid, hid, x.left, x.right)
        if isinstance(x, fm.Release):
            return self._release(mid, hid, x.left, x.right)
        if isinstance(x, fm.Eventually):
            return self._until(mid, hid, fm.TRUE, x.operand)
        if isinstance(x, fm.Always):
            return self._release(mid, hid, fm.FALSE, x.operand)
        if isinstance(x, fm.EventuallyBounded):
            return any(sat(self._step_n(mid, hid, t), hid, x.operand)
                       for t in range(x.lo, x.hi + 1))
        if isinstance(x, fm.BoundedRelease):
            # l | (r & X l) | ... | (r & ... & X^(N-1) r & X^N l)
            #   | (r & X r & ... & X^N r)
            if sat(mid, hid, x.left):
                return True
            cur = mid
            for _ in range(x.bound):
                if not sat(cur, hid, x.right):
                    return False
                cur = model.step(cur, hid)
                if sat(cur, hid, x.left):
                    return True
            return sat(cur, hid, x.right)
        if isinstance(x, fm.ForallPaths):
            return all(sat(mid, h, x.operand)
                       for h in model.histories_through(mid))
        if isinstance(x, fm.ExistsPaths):
            return any(sat(mid, h, x.operand)
                       for h in model.histories_through(mid))
        raise AssertionError(f"cannot evaluate {type(x).__name__}")

    def _step_n(self, mid, hid, n):
        for _ in range(n):
            mid = self.model.step(mid, hid)
        return mid

    def _until(self, mid, hid, left, right):
        while True:
            if self.sat(mid, hid, right):
                return True
            if not self.sat(mid, hid, left):
                return False
            nxt = self.model.step(mid, hid)
            if nxt == mid:
                return False
            mid = nxt

    def _release(self, mid, hid, left, right):
        while True:
            if not self.sat(mid, hid, right):
                return False
            if self.sat(mid, hid, left):
                return True
            nxt = self.model.step(mid, hid)
            if nxt == mid:
                return True
            mid = nxt

    def _ought(self, mid, st):
        if st.condition is not None and not self.extension(mid, st.condition):
            return True  # no conditionally optimal actions: vacuous
        body = self.extension(mid, st.body)
        return all(k <= body
                   for k in self.optimal(st.agents, mid, st.condition))

    def optimal(self, agents, mid, condition=None):
        cells = self.model.group_actions(agents, mid)
        if condition is not None:
            ext = self.extension(mid, condition)
            cells = tuple(k for k in cells if k & ext)
        return tuple(
            k for k in cells
            if not any(k2 != k and self.dominates(agents, mid, k, k2, condition)
                       for k2 in cells))

    def dominates(self, agents, mid, k_low, k_high, condition=None):
        states = self.model.background_states(agents, mid).states
        restrict = None
        if condition is not None:
            restrict = self.extension(mid, condition)
        strict_some = False
        for s in states:
            lo, hi = k_low & s, k_high & s
            if restrict is not None:
                lo, hi = lo & restrict, hi & restrict
            lo_v = [self.model.histories[h].value for h in lo]
            hi_v = [self.model.histories[h].value for h in hi]
            if any(a > b for a in lo_v for b in hi_v):
                return False
            if lo_v and hi_v and all(a < b for a in lo_v for b in hi_v):
                strict_some = True
        return strict_some


def reference_undivided(model):
    """The undivided-histories axiom checked on every pair of histories of
    every choice entry."""
    out = []
    for (agent, mid), cells in sorted(model.choices.items()):
        if mid not in model.moments:
            continue
        cell_of = {}
        for i, cell in enumerate(cells):
            for h in cell:
                cell_of[h] = i
        for h1, h2 in itertools.combinations(sorted(cell_of), 2):
            if cell_of[h1] != cell_of[h2] and \
                    _share_later_moment(model, mid, h1, h2):
                out.append(Violation(
                    "undivided", agent, mid,
                    f"histories {h1} and {h2} share a later moment but "
                    f"sit in different actions"))
    return out


def reference_independence(model):
    """The independence axiom checked by intersecting every selection of one
    cell per agent, single agents included."""
    out = []
    for mid in model.moments:
        per_agent = [model.actions_at(a, mid) for a in model.agents]
        if any(len(cells) > 1 for cells in per_agent):
            for pick in itertools.product(*per_agent):
                if not frozenset.intersection(*pick):
                    out.append(Violation(
                        "independence", None, mid,
                        "a selection of one action per agent has empty "
                        "intersection: "
                        + " x ".join(str(sorted(c)) for c in pick)))
    return out


def _share_later_moment(model, mid, h1, h2):
    later = []
    for h in (h1, h2):
        if h not in model.histories or mid not in model.histories[h].moments:
            return False
        ms = model.histories[h].moments
        pos = len(ms) - 1 - ms[::-1].index(mid)  # the last visit counts
        later.append(set(ms[pos + 1:]))
    return bool(later[0] & later[1])


def random_statements(rng, model):
    """Formulas with A/E and bounded operators, stit formulas (one under X),
    an obligation, an ought and a conditional ought over the model."""
    agent = model.agents[0]
    atoms = model.atoms

    def formula(depth):
        return random_path_formula(rng, depth, atoms, allow_quantifiers=True)

    def obligation(depth):
        return random_obligation(rng, agent, depth, atoms,
                                 allow_quantifiers=True)

    return [formula(3),
            fm.Cstit(agent, fm.Plain(formula(2))),
            fm.Next(fm.Dstit(agent, fm.Plain(formula(2)))),
            obligation(3),
            fm.ought(agent, obligation(3)),
            fm.ought(rng.choice([agent, model.agents]), obligation(2),
                     condition=obligation(2))]


def binary_automaton(rng, n_states=8):
    """Two successors under actions x and y from every state, so depth d
    unrolls to 2^d histories with a two-way choice at every inner moment."""
    states = [f"q{i}" for i in range(n_states)]
    transitions = []
    for s in states:
        a, b = rng.sample(states, 2)
        transitions += [(s, "x", a, rng.randint(1, 9)),
                        (s, "y", b, rng.randint(1, 9))]
    labels = {s: {atom for atom in ("p", "q") if rng.random() < .5}
              for s in states}
    return StitAutomaton(states, "q0", ["x", "y"], [], transitions, labels)


def assert_agrees_with_reference(model, statements, tally):
    ref = RecursiveReference(model)
    for st in statements:
        for mid in sorted(model.moments):
            ext = model.extension(mid, st)
            assert ext == ref.extension(mid, st), (fm.render(st), mid)
            for h in sorted(model.histories_through(mid)):
                got = model.satisfies(mid, h, st)
                assert got == (h in ext), (fm.render(st), mid, h)
                tally[type(st).__name__, got] += 1
    condition = fm.Plain(fm.Atom(model.atoms[0]))
    for agent in model.agents:
        for mid in model.moments:
            assert model.optimal_actions(agent, mid).actions == \
                ref.optimal((agent,), mid)
            if ref.extension(mid, condition):
                assert model.optimal_actions(agent, mid, condition).actions \
                    == ref.optimal((agent,), mid, condition)
            cells = model.actions_at(agent, mid)
            for k_low, k_high in itertools.product(cells, repeat=2):
                for cond in (None, condition):
                    got = model.dominates(agent, mid, k_low, k_high, cond)
                    assert got == ref.dominates((agent,), mid, k_low, k_high,
                                                cond)
                    tally["dominates", got] += 1


class TestBitmaskEvaluation:
    """satisfies, extension and optimal_actions against the recursive
    reference."""

    @pytest.mark.filterwarnings("ignore:atom")
    def test_agrees_with_recursive_reference_on_random_models(self):
        rng = random.Random(41)
        tally = Counter()
        for _ in range(500):
            model = random_model(rng, max_depth=rng.randint(1, 4),
                                 max_histories=rng.randint(2, 8),
                                 n_agents=rng.randint(1, 2))
            assert_agrees_with_reference(model, random_statements(rng, model),
                                         tally)
        # both verdicts occur for every kind of statement and for dominance
        for kind in ("OughtStatement", "Cstit", "Next", "dominates"):
            assert tally[kind, True] > 100 and tally[kind, False] > 100, tally

    def test_agrees_on_unrolled_binary_models(self):
        rng = random.Random(42)
        tally = Counter()
        for _ in range(6):
            model = unroll(binary_automaton(rng), 5)
            agent = model.agents[0]
            statements = [fm.parse(t.format(a=agent)) for t in (
                "O[{a} cstit: F p]", "O[{a} cstit: G q / p]",
                "O[{a} cstit: q U p]", "O[{a} cstit: ![{a} dstit: G q]]",
                "[{a} cstit: X p]", "[{a} dstit: F q]", "A (p R q)",
                "E F[1:3] (p & X^2 q)", "p BR[3] q")]
            assert_agrees_with_reference(
                model, statements + random_statements(rng, model), tally)
        assert tally["OughtStatement", True] and \
            tally["OughtStatement", False]

    @pytest.mark.filterwarnings("ignore:atom")
    def test_bounds_past_the_leaves(self):
        """X^7, F[3:9] and BR[12] reach past the leaves, or start beyond
        them: alone, under G and F and under a stit, at every moment of
        fig2, of random models and of depth-5 unrollings."""
        rng = random.Random(53)
        models = [rss.fig2_model()]
        models += [random_model(rng, max_depth=rng.randint(1, 4),
                                max_histories=rng.randint(2, 8),
                                n_agents=rng.randint(1, 2)) for _ in range(40)]
        models += [unroll(binary_automaton(rng), 5) for _ in range(3)]
        tally = Counter()
        for model in models:
            ref = RecursiveReference(model)
            a, p, q = model.agents[0], model.atoms[0], model.atoms[-1]
            for body in (f"X^7 {p}", f"F[3:9] {q}", f"{p} BR[12] {q}"):
                for text in (body, f"G ({body})", f"F ({body})",
                             f"[{a} cstit: {body}]"):
                    f = fm.parse_formula(text)
                    for mid in model.moments:
                        for h in sorted(model.histories_through(mid)):
                            got = model.satisfies(mid, h, f)
                            assert got == ref.sat(mid, h, f), (text, mid, h)
                            tally[got] += 1
        assert tally[True] > 1000 and tally[False] > 1000, tally

    def test_repeated_ids_in_a_cell_count_once(self, fig1):
        """A cell given to dominates with an id named twice is the same
        cell, with and without a condition."""
        k, k2 = (sorted(c) for c in fig1.actions_at("alpha", 0))
        assert fig1.dominates("alpha", 0, k, k2)
        assert fig1.dominates("alpha", 0, k + k, k2)
        seen = Counter()
        for model in (fig1, rss.fig2_model(), rss.fig3_model(),
                      tiny_two_agent(values=(5, 5, 5, 1))):
            ref, agent = RecursiveReference(model), model.agents[0]
            cells = [sorted(c) for c in model.actions_at(agent, 0)]
            for lo, hi in itertools.product(cells, repeat=2):
                for cond in (None, fm.parse_formula(f"!{model.atoms[0]}")):
                    want = ref.dominates((agent,), 0, frozenset(lo),
                                         frozenset(hi), cond)
                    for args in ((lo + lo, hi), (lo, hi[::-1] + hi),
                                 (lo + lo[:1], hi + hi)):
                        assert model.dominates(agent, 0, *args, cond) == want
                    seen[want] += 1
        assert seen[True] and seen[False], seen

    @pytest.mark.filterwarnings("ignore:atom")
    @pytest.mark.parametrize("name", ["fig1", "fig2", "fig3"])
    def test_agrees_on_the_figures(self, name):
        model = getattr(rss, f"{name}_model")()
        statements = [fm.parse(t) for t in (
            "[alpha cstit: A]", "O[alpha cstit: A]", "[alpha dstit: A]",
            "O[alpha cstit: (A !p) & chi]", "O[alpha cstit: F[0:2] p]",
            "O[alpha cstit: F[0:1] p]", "O[alpha cstit: E F[1:2] p]",
            "O[alpha cstit: ![alpha dstit: !p_alpha BR[2] g_alpha] / w_alpha]",
            "O[alpha cstit: G (!g_alpha -> !p_alpha)]", "A F collision")]
        rng = random.Random(43)
        for _ in range(10):
            statements += random_statements(rng, model)
        assert_agrees_with_reference(model, statements, Counter())


class TestUndividedByGrouping:
    @staticmethod
    def scrambled(rng):
        """A random model with some choice cells regrouped and some history
        paths swapped, repeated, extended by unknown moments or cut."""
        model = random_model(rng, max_depth=rng.randint(1, 4),
                             max_histories=rng.randint(2, 10),
                             n_agents=rng.randint(1, 2))
        moments = [(m.id, m.parent) for m in model.moments.values()]
        ids = sorted(model.histories)
        histories = []
        keep_paths = rng.random() < .5
        for hid in ids:
            ms = list(model.histories[hid].moments)
            roll = 1 if keep_paths else rng.random()
            if roll < .15 and len(ms) > 1:
                i, j = rng.sample(range(len(ms)), 2)
                ms[i], ms[j] = ms[j], ms[i]
            elif roll < .25:
                ms.insert(rng.randrange(len(ms) + 1), rng.choice(ms))
            elif roll < .35:
                ms.insert(rng.randrange(len(ms) + 1),
                          rng.choice([99, rng.choice(list(model.moments))]))
            elif roll < .4:
                ms = ms[:rng.randint(1, len(ms))]
            histories.append((hid, ms, model.histories[hid].value))
        choices = {key: [list(c) for c in cells]
                   for key, cells in model.choices.items()}
        for mid in model.moments:
            if rng.random() < .6:
                agent = rng.choice(model.agents)
                through = sorted(model.histories_through(mid))
                n = rng.randint(1, 3)
                cells = [[] for _ in range(n)]
                for h in through + (["hz"] if rng.random() < .1 else []):
                    rng.choice(cells).append(h)
                choices[agent, mid] = cells
        return ExplicitStitModel(model.agents, model.atoms, moments, histories,
                                 choices, model.labels)

    def test_same_violations_as_all_pairs(self):
        rng = random.Random(44)
        found = Counter()
        for _ in range(1000):
            model = self.scrambled(rng)
            violations = model.validate()
            got = [v for v in violations if v.axiom == "undivided"]
            assert got == reference_undivided(model)
            paths_broken = any(v.axiom == "history-path" for v in violations)
            found[paths_broken] += bool(got)
        # both ways of grouping (next moment only, every later moment) are
        # exercised on models that do break the axiom
        assert found[False] > 80 and found[True] > 50, found

    def test_same_independence_violations_as_intersections(self):
        rng = random.Random(44)
        found = Counter()
        for _ in range(1000):
            model = self.scrambled(rng)
            got = [v for v in model.validate() if v.axiom == "independence"]
            assert got == reference_independence(model)
            found["two agents"] += len(model.agents) == 2
            found["empty cell"] += any(
                not cell for cells in model.choices.values() for cell in cells)
            found["violated"] += bool(got)
        assert min(found.values()) > 50, found

    @pytest.mark.filterwarnings("ignore:atom")
    def test_temporal_formulas_agree_on_scrambled_models(self):
        """Where histories disagree on the order of moments, or pass
        unknown ones, U, R, F, G and the bounded operators are still
        decided history by history, as the reference does."""
        rng = random.Random(46)
        for _ in range(300):
            model = self.scrambled(rng)
            ref = RecursiveReference(model)
            formulas = [random_path_formula(rng, 3, model.atoms)
                        for _ in range(3)]
            formulas += [fm.parse_formula(t) for t in ("G p", "F q", "p U q",
                                                       "q R p", "p BR[2] q")]
            for f in formulas:
                for mid in model.moments:
                    for h in sorted(model.histories_through(mid)):
                        assert model.satisfies(mid, h, f) == \
                            ref.sat(mid, h, f), (fm.render(f), mid, h)

    @pytest.mark.filterwarnings("ignore:atom")
    def test_statements_agree_or_refuse_on_scrambled_models(self):
        """Stit, ought and quantifier bodies, and U, F and G over them, on
        the same models: wherever satisfies decides, it agrees with the
        reference, and elsewhere it raises ModelError."""
        rng = random.Random(47)
        tally = Counter()
        for _ in range(300):
            model = self.scrambled(rng)
            ref = RecursiveReference(model)
            a = model.agents[0]
            statements = random_statements(rng, model) + [
                fm.parse_formula(t) for t in (
                    f"G [{a} cstit: p]", "F (A q)", f"p U [{a} dstit: q]")]
            for st in statements:
                for mid in model.moments:
                    for h in sorted(model.histories_through(mid)):
                        try:
                            got = model.satisfies(mid, h, st)
                        except ModelError:
                            tally["refused"] += 1
                            continue
                        assert got == ref.sat(mid, h, st), \
                            (fm.render(st), mid, h)
                        tally["decided"] += 1
        # pinned: an evaluation that swept moments beyond the asked ones'
        # reach would refuse more of these (an unknown moment out there)
        assert tally == Counter(decided=25392, refused=573)


class TestEvaluationEdges:
    def test_dominance_needs_only_one_strict_state(self):
        """A tie in one background state and a strict win in the other is
        dominance; a tie in both is not."""
        model = tiny_two_agent(values=(5, 5, 5, 1))
        rows = model.actions_at("alpha", 0)
        assert model.dominates("alpha", 0, rows[1], rows[0])
        assert model.optimal_actions("alpha", 0).actions == (rows[0],)
        tied = tiny_two_agent(values=(5, 5, 5, 5))
        assert not tied.dominates("alpha", 0, rows[1], rows[0])

    def test_overlapping_cells_follow_the_first_cell(self):
        """On a model whose cells overlap (it fails validate()), a history
        acts by the first cell that contains it, as choice_of says."""
        model = ExplicitStitModel(
            ["alpha"], ["p"], [(0, None), (1, 0), (2, 0), (3, 0)],
            [("h1", [0, 1], 1), ("h2", [0, 2], 1), ("h3", [0, 3], 1)],
            {("alpha", 0): [["h1", "h2"], ["h2", "h3"]]},
            {(0, "h2"): {"p"}, (0, "h3"): {"p"}})
        cstit = fm.parse_formula("[alpha cstit: p]")
        assert model.extension(0, cstit) == frozenset({"h3"})
        assert model.extension(0, cstit) == \
            RecursiveReference(model).extension(0, cstit)

    def test_history_outside_every_cell_raises(self):
        model = tiny_two_agent()
        model.choices[("alpha", 0)] = (frozenset({"h1", "h2"}),
                                       frozenset({"h3"}))
        with pytest.raises(ModelError, match="do not cover 'h4'"):
            model.satisfies(0, "h4", fm.parse_formula("[alpha cstit: p]"))

    def test_undeclared_atom_warns_once_per_model(self, fig1):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for mid in fig1.moments:
                for h in fig1.histories_through(mid):
                    fig1.satisfies(mid, h, fm.parse_formula("G nosuch"))
                    fig1.satisfies(mid, h, fm.parse_formula("X !nosuch"))
                fig1.extension(mid, fm.parse("nosuch U A"))
        assert [str(w.message) for w in caught] == [
            "atom 'nosuch' is not declared in the model; it is false "
            "everywhere"]

    def test_deep_unroll_evaluates_without_recursion(self):
        """A 1,501-moment chain, asked at the root and, on a fresh
        unrolling, at moment 700, whose block starts inside the order."""
        aut = StitAutomaton(["q0", "q1"], "q0", ["a"], [],
                            [("q0", "a", "q1", 1), ("q1", "a", "q1", 1)],
                            {"q0": {"p"}, "q1": {"p", "q"}})
        for mid, cases in (
                (0, (("G p", True), ("F p", True), ("p U q", True),
                     ("G q", False), ("F !p", False), ("p R q", False),
                     ("X^1499 q", True))),
                (700, (("F p", True), ("G p", True), ("p U q", True)))):
            model = unroll(aut, 1500)
            assert len(model.moments) == 1501
            assert model.moments[mid].depth == mid
            h = next(iter(model.histories))
            for text, expected in cases:
                assert model.satisfies(mid, h, fm.parse_formula(text)) \
                    is expected, (mid, text)


def walked(ix, ms, t):
    """The moments reachable from ms that t lacks, by a walk along the
    next-moment groups: the reference for ModelIndex.reach's blocks."""
    reach, todo = set(ms), [m for m in ms if m not in t]
    while todo:
        for n, _ in ix.succ[todo.pop()]:
            if n not in reach and n not in t:
                reach.add(n)
                todo.append(n)
    return reach


class TestReachByBlocks:
    """U, R, F and G fill the subtree blocks of the asked moments, read off
    the index's order: exactly the moments a walk reaches, and never a
    moment outside them."""

    @pytest.mark.filterwarnings("ignore:atom")
    def test_blocks_fill_what_the_walk_reaches(self):
        rng = random.Random(54)
        models = [random_model(rng, max_depth=rng.randint(1, 4),
                               max_histories=rng.randint(2, 8),
                               n_agents=rng.randint(1, 2))
                  for _ in range(300)]
        models += _unrolled_workload_models()
        models += [getattr(rss, f"fig{i}_model")() for i in (1, 2, 3)]
        seen = Counter()
        for model in models:
            for text in ("F p", "G q", "q U p", "F (G q)"):
                f = fm.parse_formula(text)
                fresh = copy.deepcopy(model)
                ix, filled = fresh._index(), set()
                for mid in rng.sample(list(model.moments), len(model.moments)):
                    filled |= walked(ix, [mid], filled)
                    fresh.extension(mid, f)
                    # the formula and each operand, on the same moments
                    for g in (f, *vars(f).values()):
                        assert set(ix.masks[g]) == filled, (text, mid, g)
                    seen[len(filled) < len(model.moments)] += 1
        assert seen[True] > 1000 and seen[False] > 1000, seen

    def test_operands_stay_inside_the_asked_subtree(self):
        """alpha's cells at moment 2 leave out h4, so [alpha cstit: p] is
        refused there.  Asked under moment 1, F of it never reaches moment
        2 and is decided; asked at 2 or at the root, it is refused."""
        model = ExplicitStitModel(
            ["alpha"], ["p"],
            [(0, None), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 2)],
            [("h1", [0, 1, 3], 1), ("h2", [0, 1, 4], 2),
             ("h3", [0, 2, 5], 3), ("h4", [0, 2, 6], 4)],
            {("alpha", 1): [["h1"], ["h2"]], ("alpha", 2): [["h3"]]},
            {(3, "*"): {"p"}, (5, "*"): {"p"}})
        assert {v.axiom for v in model.validate()} == {"partition"}
        f = fm.parse_formula("F [alpha cstit: p]")
        ref, tally = RecursiveReference(model), Counter()
        for mid in (3, 1, 4):
            for h in sorted(model.histories_through(mid)):
                got = model.satisfies(mid, h, f)
                assert got == ref.sat(mid, h, f), (mid, h)
                tally[got] += 1
        assert tally[True] and tally[False], tally
        for mid in (2, 0):
            with pytest.raises(ModelError, match="do not cover 'h4'"):
                model.satisfies(mid, "h3", f)


# ======================== Validation on the index ========================

def _mutated_fixtures():
    """The invalid models of TestValidate, built the same way, and two
    one-agent models with an empty cell, by name."""
    out = {}
    data = rss.fig1_model().to_json()
    data["choices"][0]["actions"] = [["h1", "h2", "h3", "h4", "h5"],
                                     ["h5", "h6"]]
    out["fig1-shared-history"] = ExplicitStitModel.from_json(data)
    model = tiny_two_agent()
    model.choices[("beta", 0)] = (frozenset({"h1", "h2"}),
                                  frozenset({"h3", "h4"}))
    out["independence"] = model
    out["undivided"] = ExplicitStitModel(
        ["alpha"], [], [(0, None), (1, 0), (2, 1), (3, 1)],
        [("h1", [0, 1, 2], 1), ("h2", [0, 1, 3], 2)],
        {("alpha", 0): [["h1"], ["h2"]]}, {})
    # one agent: an empty cell breaks independence only beside another cell
    for name, cells in (("two-cells", [["h1", "h2"], []]), ("one-cell", [[]])):
        out[f"one-agent-empty-cell-of-{name}"] = ExplicitStitModel(
            ["alpha"], [], [(0, None), (1, 0), (2, 0)],
            [("h1", [0, 1], 1), ("h2", [0, 2], 2)], {("alpha", 0): cells}, {})
    out["roots-and-unknowns"] = ExplicitStitModel(
        ["alpha"], [], [(0, None), (1, 0), (5, None), (6, 9)],
        [("h1", [0, 1], 1)],
        {("alpha", 0): [["h1"]], ("beta", 0): [["h1"]],
         ("alpha", 7): [["h1"]]}, {})
    out["root-not-0"] = ExplicitStitModel(
        ["alpha"], [], [(3, None), (4, 3)], [("h1", [3, 4], 1)], {}, {})
    out["non-leaf-end"] = ExplicitStitModel(
        ["alpha"], [], [(0, None), (1, 0), (2, 1)],
        [("h1", [0, 1], 1), ("h2", [0, 1, 2], 1)], {}, {})
    for name, (histories, _) in zip(HISTORY_PATH_IDS, HISTORY_PATH_CASES):
        out[f"history-path-{name}"] = ExplicitStitModel(
            ["alpha"], [], [(0, None), (1, 0), (2, 1), (3, 1), (4, 0)],
            histories, {}, {})
    return out


def _unrolled_workload_models(seed=45):
    """Eight automata shaped like the benchmark's explicit workload (16
    states, two actions), unrolled to 256 histories each."""
    rng = random.Random(seed)
    return [unroll(binary_automaton(rng, n_states=16), 8) for _ in range(8)]


def _spoiled(model, rng):
    """A copy of a valid unrolled model in which two cells of one choice
    swap a history each (linked histories, so undivided breaks at the next
    moment) and one history is cut short or made to end elsewhere."""
    data = model.to_json()
    entry = rng.choice([e for e in data["choices"]
                        if all(len(c) > 1 for c in e["actions"])])
    a, b = entry["actions"][0], entry["actions"][1]
    a[0], b[0] = b[0], a[0]
    h = rng.choice(data["histories"])
    if rng.random() < .5:
        h["moments"] = h["moments"][:-1]
    else:
        h["moments"][-1] = rng.choice([m["id"] for m in data["moments"][1:]
                                       if m["id"] != h["moments"][-1]])
    return ExplicitStitModel.from_json(data)


INDEX_FIELDS = ("ids", "rank", "through", "succ", "order", "block",
                "labelled")


class TestValidateOnTheIndex:
    """validate() reads the paths off the evaluation index; it must report
    what the path-by-path reference reports, in the same order."""

    def test_same_violations_on_scrambled_models(self):
        rng = random.Random(44)
        found = Counter()
        for _ in range(1000):
            model = TestUndividedByGrouping.scrambled(rng)
            got = model.validate()
            assert got == reference_validate(model)
            found.update({v.axiom for v in got})
        # each axiom that reads the paths or the cells breaks on 50+ models
        for axiom in ("history-path", "leaf-covered", "undivided",
                      "partition", "independence"):
            assert found[axiom] > 50, found

    @pytest.mark.parametrize("name", list(_mutated_fixtures()))
    def test_same_violations_on_the_mutated_fixtures(self, name):
        model = _mutated_fixtures()[name]
        got = model.validate()
        assert got and got == reference_validate(model)
        if name.startswith("one-agent-empty-cell"):
            assert ("independence" in {v.axiom for v in got}) \
                == name.endswith("two-cells")

    def test_same_violations_on_unrolled_workload_models(self):
        rng = random.Random(46)
        for model in _unrolled_workload_models():
            assert model.validate() == reference_validate(model) == []
            spoiled = _spoiled(model, rng)
            got = spoiled.validate()
            assert {"undivided", "history-path"} <= {v.axiom for v in got}
            assert got == reference_validate(spoiled)


class _CountingIndex(ModelIndex):
    built = 0

    def __init__(self, *args):
        type(self).built += 1
        super().__init__(*args)


class TestIndexBuild:
    @staticmethod
    def _both_ways(model):
        """The index of the model built by validate() and that of a copy
        built by a first evaluation."""
        copy_ = copy.deepcopy(model)
        model.validate()
        copy_.extension(next(iter(copy_.moments)), fm.TRUE)
        return model._ix, copy_._ix

    def test_same_index_whichever_call_builds_it(self):
        scrambled, drawn = random.Random(44), random.Random(42)
        models = [TestUndividedByGrouping.scrambled(scrambled)
                  for _ in range(1000)]
        models += [random_model(drawn, n_agents=drawn.randint(1, 2))
                   for _ in range(150)]
        for model in models:
            validated, evaluated = self._both_ways(model)
            for field in INDEX_FIELDS:
                assert getattr(validated, field) == \
                    getattr(evaluated, field), field

    def test_validate_then_satisfies_builds_the_index_once(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr("deontic_mc.tree_model.ModelIndex", _CountingIndex)
        monkeypatch.setattr(_CountingIndex, "built", 0)
        model = unroll(binary_automaton(random.Random(48)), 5)
        save_model(model, tmp_path / "m.json")
        model = load_model(tmp_path / "m.json")
        mid = max(model.moments)
        h = sorted(model.histories_through(mid))[0]
        agent = model.agents[0]
        cells = model.actions_at(agent, 0)
        model.label(mid, h), model.step(0, h), model.moments_from(0, h)
        model.choice_of(agent, 0, h), model.group_actions(agent, 0)
        model.background_states(agent, 0), model.to_json()
        assert _CountingIndex.built == 0  # the structural accessors
        assert model.validate() == []
        assert _CountingIndex.built == 1
        model.satisfies(0, h, fm.parse(f"O[{agent} cstit: F p]"))
        model.optimal_actions(agent, 0), model.extension(0, fm.TRUE)
        model.dominates(agent, 0, cells[0], cells[-1])
        assert _CountingIndex.built == 1


class TestValueOrder:
    def test_exact_order_and_shared_ranks(self):
        """Equal values share a rank whatever their spelling, ties go by
        id, and a value a hair below 1 stays below it."""
        big = 10 ** 30
        values = {"h21": "2/6", "h12": "1/3", "h3": "-1/2", "h4": "0",
                  "h5": f"{big}/{big + 1}", "h6": "1", "h7": "0.5"}
        moments = [(0, None)] + [(i + 1, 0) for i in range(len(values))]
        histories = [(hid, [0, i + 1], v)
                     for i, (hid, v) in enumerate(values.items())]
        ix = ExplicitStitModel(["alpha"], [], moments, histories, {},
                               {})._index()
        assert ix.ids == ["h3", "h4", "h12", "h21", "h7", "h5", "h6"]
        assert ix.rank == [0, 1, 2, 2, 3, 4, 5]

    def test_order_is_the_fraction_order(self):
        rng = random.Random(49)
        for _ in range(200):
            drawn = random_model(rng, max_histories=rng.randint(2, 10),
                                 n_agents=rng.randint(1, 2))
            # revalue: signs, shared values and large, unequal denominators
            pool = [Fraction(rng.randint(-10 ** 12, 10 ** 12),
                             rng.choice([1, 2, 3, 7, 10 ** 9 + 7, 2 ** 61 - 1]))
                    for _ in range(4)]
            model = ExplicitStitModel(
                drawn.agents, drawn.atoms,
                [(m.id, m.parent) for m in drawn.moments.values()],
                [(h.id, h.moments, rng.choice(pool))
                 for h in drawn.histories.values()],
                drawn.choices, drawn.labels)
            ix = model._index()
            expected = sorted(model.histories.values(),
                              key=lambda h: (h.value, h.id))
            assert ix.ids == [h.id for h in expected]
            distinct = sorted({h.value for h in expected})
            assert ix.rank == [distinct.index(h.value) for h in expected]


LABEL_FORM_STATEMENTS = tuple(map(fm.parse, (
    "p", "q & !g", "X p", "F q", "G (p -> X q)", "p U q", "q R g",
    "p BR[2] q", "F[1:2] g", "A F p", "E G q", "[alpha cstit: F p]",
    "[alpha dstit: q]", "O[alpha cstit: F p]", "O[alpha cstit: G q / p]")))


def _verdict(model, mid, hid, statement):
    try:
        return model.satisfies(mid, hid, statement)
    except ModelError:
        return "refused"


def test_moment_labels_read_like_labels_spelled_out():
    """A "*" entry is kept once per moment, and the index reads it as H_m.
    The same model with each such entry spelled out per history has the
    same labelled columns, labels, label(), file and verdicts, also where
    paths are broken or pass undeclared moments."""
    rng = random.Random(51)
    for i in range(200):
        drawn = TestUndividedByGrouping.scrambled(rng) if i % 2 else \
            random_model(rng, max_depth=rng.randint(1, 4),
                         max_histories=rng.randint(2, 10),
                         n_agents=rng.randint(1, 2))
        paths = {h.id: h.moments for h in drawn.histories.values()}
        moments = sorted(set(drawn.moments).union(*paths.values()))
        stars = {m: frozenset(rng.sample(drawn.atoms, rng.randint(0, 2)))
                 for m in moments if rng.random() < .7}
        wild = {**drawn.labels, **{(m, "*"): a for m, a in stars.items()}}
        spelled = dict(drawn.labels)
        for m, atoms in stars.items():
            for hid, ms in paths.items():
                if m in ms:
                    spelled[m, hid] = spelled.get((m, hid), frozenset()) | atoms
        a, b = (ExplicitStitModel(
            drawn.agents, drawn.atoms,
            [(m.id, m.parent) for m in drawn.moments.values()],
            [(h.id, h.moments, h.value) for h in drawn.histories.values()],
            drawn.choices, labels) for labels in (wild, spelled))
        assert list(a.labels.items()) == list(b.labels.items()), i
        assert all(a.label(m, h) == b.label(m, h)
                   for m in moments for h in paths), i
        assert a.to_json() == b.to_json(), i
        assert a._index().labelled == b._index().labelled, i
        for st in LABEL_FORM_STATEMENTS:
            for mid in drawn.moments:
                for h in sorted(drawn.histories_through(mid)):
                    assert _verdict(a, mid, h, st) == _verdict(b, mid, h, st), \
                        (i, fm.render(st), mid, h)


def test_wildcard_labels_load_like_spelled_out_entries():
    rng = random.Random(50)
    for _ in range(50):
        data = random_model(rng, max_depth=rng.randint(1, 4),
                            max_histories=rng.randint(2, 10)).to_json()
        wild, spelled = [], []
        for m in data["moments"]:
            atoms = sorted(rng.sample(data["atoms"], rng.randint(1, 2)))
            wild.append({"moment": m["id"], "history": "*", "atoms": atoms})
            spelled += [{"moment": m["id"], "history": h["id"],
                         "atoms": atoms} for h in data["histories"]
                        if m["id"] in h["moments"]]
        explicit = data["labels"]
        a = ExplicitStitModel.from_json({**data, "labels": explicit + wild})
        b = ExplicitStitModel.from_json({**data,
                                         "labels": explicit + spelled})
        assert list(a.labels.items()) == list(b.labels.items())
        assert all(set(w["atoms"]) <= a.label(w["moment"], h)
                   for w in wild for h in a.histories_through(w["moment"]))
