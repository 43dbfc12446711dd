"""Rule constructors and the worked fixtures."""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

from deontic_mc import formula as fm
from deontic_mc import rss
from deontic_mc.generate import random_model
from deontic_mc.mc import check_ought_statement
from deontic_mc.tree_model import (
    ExplicitStitModel,
    check_inference_condition,
    load_model,
)
from deontic_mc.automaton import load_automaton


# ======================== Rule texts ========================

class TestRuleTexts:
    def test_rss1_refined_rendering(self):
        _, refined = rss.rss1("alpha", fm.Atom("hit_from_behind"))
        assert fm.render(refined) == \
            "O[alpha cstit: ![alpha dstit: hit_from_behind]]"

    def test_rss2_rendering(self):
        st = rss.rss2("alpha", fm.Atom("cutin"), fm.Atom("reckless"))
        assert fm.render(st) == \
            "O[alpha cstit: (A G ((cutin | reckless) -> !reckless))]"

    def test_rss6_rendering(self):
        st = rss.rss6("alpha", 3)
        assert fm.render(st) == \
            "O[alpha cstit: ![alpha dstit: !p_alpha BR[3] g_alpha] / w_alpha]"

    def test_rule_texts_reparse(self):
        agents = ("alpha", "beta")
        statements = list(rss.rss1("alpha", fm.Atom("c")))
        statements.append(rss.rss2("alpha", fm.Atom("x"), fm.Atom("y")))
        r3 = rss.rss3(agents)
        statements += [*r3.prohib0, r3.pos, *r3.prohib, rss.rss6("beta", 2)]
        for st in statements:
            assert fm.parse(fm.render(st)) == st

    def test_trow_is_proceeding_without_all_grants(self):
        f = rss.trow_formula("a", ("a", "b", "c"))
        assert f == fm.And(fm.Atom("p_a"),
                           fm.Not(fm.And(fm.Atom("grow_b_a"),
                                         fm.Atom("grow_c_a"))))

    def test_atom_names_deterministic(self):
        assert rss.grow_atom("b", "a") == "grow_b_a"
        assert rss.proceeds_atom("x") == "p_x"
        assert rss.granted_atom("x") == "g_x"
        assert rss.wants_atom("x") == "w_x"


# ======================== RSS1 ========================

class TestRss1:
    def test_unavoidable_collision_dichotomy(self, unavoidable):
        naive, refined = rss.rss1("alpha", fm.Atom("collision"))
        h = sorted(unavoidable.histories_through(0))[0]
        assert not unavoidable.satisfies(0, h, naive)
        assert unavoidable.satisfies(0, h, refined)

    def test_both_hold_when_optimum_avoids_collision(self):
        moments = [(0, None), (1, 0), (2, 0)]
        histories = [("h1", [0, 1], 9), ("h2", [0, 2], 1)]
        choices = {("alpha", 0): [["h1"], ["h2"]]}
        labels = {(0, "h2"): {"collision"}, (2, "h2"): {"collision"}}
        model = ExplicitStitModel(["alpha"], ["collision"], moments,
                                  histories, choices, labels)
        naive, refined = rss.rss1("alpha", fm.Atom("collision"))
        assert model.satisfies(0, "h1", naive)
        assert model.satisfies(0, "h1", refined)


# ======================== RSS2 ========================

class TestRss2:
    def make(self, labels, values=(5, 1)):
        moments = [(0, None), (1, 0), (2, 0)]
        histories = [("h1", [0, 1], values[0]), ("h2", [0, 2], values[1])]
        choices = {("alpha", 0): [["h1"], ["h2"]]}
        return ExplicitStitModel(["alpha"], ["cutin", "reckless"], moments,
                                 histories, choices, labels)

    def test_reckless_history_in_optimum_fails(self):
        model = self.make({(1, "h1"): {"reckless", "cutin"}})
        st = rss.rss2("alpha", fm.Atom("cutin"), fm.Atom("reckless"))
        assert not model.satisfies(0, "h1", st)

    def test_vacuous_without_cutins(self):
        model = self.make({})
        st = rss.rss2("alpha", fm.Atom("cutin"), fm.Atom("reckless"))
        assert model.satisfies(0, "h1", st)

    def test_nonreckless_cutin_is_fine(self):
        model = self.make({(1, "h1"): {"cutin"}})
        st = rss.rss2("alpha", fm.Atom("cutin"), fm.Atom("reckless"))
        assert model.satisfies(0, "h1", st)


# ======================== RSS3 ========================

class TestRss3:
    def test_force_others_instance(self):
        """With proceeding unavoidable, the no-taking rule makes the grant
        conjunction obligatory."""
        model = rss.force_others_model()
        agents = ("alpha", "beta")
        not_trow = fm.ought("alpha",
                            fm.Plain(fm.Not(rss.trow_formula("alpha", agents))))
        grants = fm.ought("alpha",
                          fm.Plain(fm.Atom(rss.grow_atom("beta", "alpha"))))
        not_p = fm.Not(fm.Atom(rss.proceeds_atom("alpha")))
        assert model.satisfies(0, "h1", not_trow)
        assert model.extension(0, not_p) == frozenset()
        assert model.satisfies(0, "h1", grants)


# ======================== RSS6 and the structure inference ========================

class TestRss6:
    def test_fig3_carries_rss6_and_the_condition(self, fig3):
        st = rss.rss6("alpha", 2)
        assert fig3.satisfies(0, "htilde", st)
        ok, witnesses = check_inference_condition(fig3, "alpha", 0,
                                                  "g_alpha", "p_alpha")
        assert ok and witnesses

    def test_fig3_prohibition_at_the_later_moment(self, fig3):
        prohib = rss.rss3(["alpha"]).prohib[0]
        assert fig3.satisfies(1, "hgood", prohib)

    def test_vacuous_when_agent_never_wants_to_change(self):
        moments = [(0, None), (1, 0), (2, 0)]
        histories = [("h1", [0, 1], 1), ("h2", [0, 2], 2)]
        choices = {("alpha", 0): [["h1"], ["h2"]]}
        model = ExplicitStitModel(
            ["alpha"], ["p_alpha", "g_alpha", "w_alpha"],
            moments, histories, choices, {})
        assert model.satisfies(0, "h1", rss.rss6("alpha", 2))

    def test_merge_automaton_verdict(self, merge):
        v = check_ought_statement(merge, rss.rss6("alpha", 2))
        assert v.holds and not v.vacuous


# ======================== Fixtures ========================

class TestFixtures:
    def test_all_fixtures_valid(self):
        for name, fixture in rss.fixtures().items():
            assert fixture.validate() == [], name

    def test_fig1_reproduces_every_caption_claim(self, fig1):
        assert fig1.histories_through(0) == frozenset(
            {"h1", "h2", "h3", "h4", "h5", "h6"})
        assert fig1.histories_through(1) == frozenset(
            {"h1", "h2", "h3", "h4"})
        assert fig1.choice_of("alpha", 0, "h5") == frozenset({"h5", "h6"})
        assert fig1.choice_of("alpha", 1, "h2") == frozenset({"h2"})
        assert fig1.satisfies(0, "h5", fm.parse_formula("[alpha cstit: A]"))
        assert not fig1.satisfies(0, "h1", fm.parse_formula("[alpha cstit: A]"))
        assert set(fig1.optimal_actions("alpha", 0).actions) == {
            frozenset({"h5", "h6"})}
        assert fig1.satisfies(0, "h5", fm.parse("O[alpha cstit: A]"))
        assert set(fig1.optimal_actions("alpha", 1).actions) == {
            frozenset({"h2"}), frozenset({"h3", "h4"})}
        for atom in fig1.atoms:
            assert not fig1.satisfies(1, "h1",
                                      fm.ought("alpha", fm.Plain(fm.Atom(atom))))
        assert fig1.satisfies(0, "h5", fm.parse_formula("[alpha dstit: A]"))
        assert fig1.extension(0, fm.Plain(fm.Atom("A"))) == frozenset(
            {"h1", "h2", "h3", "h5", "h6"})

    def test_fixture_files_round_trip(self, tmp_path):
        written = rss.export_fixtures(tmp_path)
        assert len(written) == 5
        for path in written:
            if path.endswith("merge.json"):
                assert load_automaton(path).validate() == []
            else:
                assert load_model(path).validate() == []

    def test_refrain_refrain_on_random_models(self):
        """Refraining from refraining is doing, across random models."""
        rng = random.Random(99)
        for _ in range(100):
            model = random_model(rng, n_agents=rng.randint(1, 2))
            agent = model.agents[0]
            from deontic_mc.generate import random_path_formula
            body = fm.Plain(random_path_formula(rng, 2, model.atoms))
            once = fm.DstitOf(agent, body)
            thrice = fm.DstitOf(agent, fm.NegatedObligation(
                fm.DstitOf(agent, fm.NegatedObligation(once))))
            for mid in model.moments:
                for hid in model.histories_through(mid):
                    assert model.satisfies(mid, hid, thrice) == \
                        model.satisfies(mid, hid, once)


# ======================== Re-import ========================

class TestReimport:
    def test_reimport_frees_the_previous_package(self):
        """Dropping deontic_mc from sys.modules and importing it again leaves
        nothing that pins the old modules (a typing.Union over package
        classes did, through typing's cache)."""
        script = textwrap.dedent("""
            import gc, importlib, sys, weakref
            importlib.import_module("deontic_mc.cli")
            old = weakref.ref(sys.modules["deontic_mc.formula"])
            for name in [m for m in sys.modules
                         if m.split(".")[0] == "deontic_mc"]:
                del sys.modules[name]
            importlib.import_module("deontic_mc.cli")
            gc.collect()
            sys.exit(0 if old() is None else 1)
        """)
        src = str(Path(rss.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, "-c", script], timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0
