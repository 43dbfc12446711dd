"""Executable right-of-way / safe-driving rule constructors and fixtures.

The rule constructors build ought statements from agent names using a fixed
atom-naming scheme, so the same rule text can be checked against any model
that labels those atoms:

* ``grow_b_a``  -- agent b gives right-of-way to agent a
* ``p_a``       -- agent a proceeds through the conflict region
* ``g_a``       -- right-of-way is granted to agent a
* ``w_a``       -- agent a wants to change lanes

``fixtures()`` returns the worked scenarios used by the demos and the
acceptance suite: the two-moment six-history model, the overtake model, the
structure-inference witness, the unavoidable-collision model, and the merge
automaton.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from . import formula as fm
from .automaton import StitAutomaton, save_automaton
from .tree_model import ExplicitStitModel, save_model


def grow_atom(giver: str, receiver: str) -> str:
    return f"grow_{giver}_{receiver}"


def proceeds_atom(agent: str) -> str:
    return f"p_{agent}"


def granted_atom(agent: str) -> str:
    return f"g_{agent}"


def wants_atom(agent: str) -> str:
    return f"w_{agent}"


def trow_formula(agent: str, agents) -> fm.Formula:
    """Taking the right-of-way: proceeding without everyone granting it."""
    others = [b for b in agents if b != agent]
    granted_by_all = fm.and_all(
        fm.Atom(grow_atom(b, agent)) for b in others)
    return fm.And(fm.Atom(proceeds_atom(agent)), fm.Not(granted_by_all))


def rss1(agent: str, collision: fm.Formula):
    """Do not hit someone from behind: the naive ought forbids the collision
    formula outright; the refined one only forbids deliberately ensuring it,
    which stays satisfiable when the collision is unavoidable."""
    naive = fm.ought(agent, fm.Plain(fm.Not(collision)))
    refined = fm.ought(agent, fm.NegatedObligation(
        fm.DstitOf(agent, fm.Plain(collision))))
    return naive, refined


def rss2(agent: str, nonreckless: fm.Formula, reckless: fm.Formula
         ) -> fm.OughtStatement:
    """Do not cut in recklessly: every cut-in must be the non-reckless kind."""
    body = fm.ForallPaths(fm.Always(
        fm.Implies(fm.Or(nonreckless, reckless), fm.Not(reckless))))
    return fm.ought(agent, fm.Plain(body))


@dataclass(frozen=True)
class Rss3:
    prohib0: tuple[fm.OughtStatement, ...]
    pos: fm.OughtStatement
    prohib: tuple[fm.OughtStatement, ...]


def rss3(agents) -> Rss3:
    """Right-of-way is given, not taken (and somebody must be given it).

    prohib0 forbids each agent to take the right-of-way; pos obliges the
    group to grant it to someone; prohib forbids proceeding while not
    granted, which avoids the force-others consequence of prohib0.
    """
    agents = tuple(agents)
    prohib0 = tuple(
        fm.ought(a, fm.Plain(fm.Not(trow_formula(a, agents))))
        for a in agents)
    somebody = fm.or_all(fm.Atom(granted_atom(a)) for a in agents)
    pos = fm.ought(agents, fm.Plain(fm.ExistsPaths(somebody)))
    prohib = tuple(
        fm.ought(a, fm.Plain(fm.Always(fm.Implies(
            fm.Not(fm.Atom(granted_atom(a))),
            fm.Not(fm.Atom(proceeds_atom(a)))))))
        for a in agents)
    return Rss3(prohib0, pos, prohib)


def rss6(agent: str, bound: int) -> fm.OughtStatement:
    """Do not wait forever for a perfect gap: given that the agent wants to
    change lanes, it ought to refrain from seeing to it that it keeps
    waiting to be granted the right-of-way over the next `bound` steps."""
    waiting = fm.BoundedRelease(bound,
                                fm.Not(fm.Atom(proceeds_atom(agent))),
                                fm.Atom(granted_atom(agent)))
    return fm.ought(agent,
                    fm.NegatedObligation(fm.DstitOf(agent, fm.Plain(waiting))),
                    condition=fm.Plain(fm.Atom(wants_atom(agent))))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fig1_model() -> ExplicitStitModel:
    """Six histories over two choice moments; atom A marks all but h4.

    Values are synthesized to reproduce the published optimal sets: the
    two-history action wins at the root and the singleton {h2} ties with
    {h3, h4} at the later moment.
    """
    moments = [(0, None), (1, 0), (2, 0), (3, 2), (4, 2),
               (5, 1), (6, 1), (7, 1), (8, 7), (9, 7)]
    histories = [("h1", [0, 1, 5], 3), ("h2", [0, 1, 6], 5),
                 ("h3", [0, 1, 7, 8], 4), ("h4", [0, 1, 7, 9], 6),
                 ("h5", [0, 2, 3], 7), ("h6", [0, 2, 4], 8)]
    choices = {("alpha", 0): [["h1", "h2", "h3", "h4"], ["h5", "h6"]],
               ("alpha", 1): [["h1"], ["h2"], ["h3", "h4"]]}
    labels = {}
    for hid, ms, _ in histories:
        if hid != "h4":
            for m in ms:
                labels[(m, hid)] = {"A"}
    return ExplicitStitModel(["alpha"], ["A"], moments, histories, choices,
                             labels)


def fig2_model() -> ExplicitStitModel:
    """Overtake scenario: stay in lane (values 10, 9) against passing into
    the oncoming lane (0, 5, 4, 3), with the return choice three steps in.

    chi marks the stay-in-lane histories at the root; p marks the moment the
    lane change back happens (0, 1 or 2 steps past the return moment 5); on
    every history through moment 5 a collision eventually occurs.
    """
    moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 3), (5, 4),
               (6, 5), (7, 5), (8, 5), (9, 5), (10, 9)]
    histories = [("ha", [0, 1], 10), ("hb", [0, 2], 9),
                 ("hpi", [0, 3, 4, 5, 6], 0), ("h0", [0, 3, 4, 5, 7], 5),
                 ("h1", [0, 3, 4, 5, 8], 4), ("h2", [0, 3, 4, 5, 9, 10], 3)]
    choices = {("alpha", 0): [["ha", "hb"], ["hpi", "h0", "h1", "h2"]],
               ("alpha", 5): [["hpi"], ["h0", "h1", "h2"]]}
    labels = {(0, "ha"): {"chi"}, (0, "hb"): {"chi"},
              (5, "h0"): {"p"}, (7, "h0"): {"collision"},
              (8, "h1"): {"p", "collision"},
              (10, "h2"): {"p", "collision"},
              (6, "hpi"): {"collision"}}
    return ExplicitStitModel(["alpha"], ["p", "chi", "collision"], moments,
                             histories, choices, labels)


def fig3_model() -> ExplicitStitModel:
    """Structure-inference witness for a single agent alpha.

    The optimal root action holds two histories; on one of them the agent
    pushes through without being granted right-of-way, and the later choice
    moment 1 values that history out of every optimal action.
    """
    p, g, w = proceeds_atom("alpha"), granted_atom("alpha"), wants_atom("alpha")
    moments = [(0, None), (1, 0), (2, 0), (3, 1), (4, 1)]
    histories = [("htilde", [0, 1, 4], 1), ("hgood", [0, 1, 3], 5),
                 ("hbad", [0, 2], 0)]
    choices = {("alpha", 0): [["htilde", "hgood"], ["hbad"]],
               ("alpha", 1): [["hgood"], ["htilde"]]}
    labels = {(0, "htilde"): {p, w}, (0, "hgood"): {w}, (0, "hbad"): {w},
              (4, "htilde"): {p}}
    return ExplicitStitModel(["alpha"], [g, p, w], moments, histories,
                             choices, labels)


def unavoidable_model() -> ExplicitStitModel:
    """Every history carries the collision atom everywhere: |collision|_m
    is all of H_m, so the collision cannot be refrained from."""
    moments = [(0, None), (1, 0), (2, 0), (3, 0)]
    histories = [("hc1", [0, 1], 1), ("hc2", [0, 2], 2), ("hc3", [0, 3], 3)]
    choices = {("alpha", 0): [["hc1"], ["hc2", "hc3"]]}
    labels = {}
    for hid, ms, _ in histories:
        for m in ms:
            labels[(m, hid)] = {"collision"}
    return ExplicitStitModel(["alpha"], ["collision"], moments, histories,
                             choices, labels)


def merge_automaton() -> StitAutomaton:
    """Lane-merge automaton: waiting loops at low value, going proceeds at
    high value, so waiting forever is never optimal."""
    p, g, w = proceeds_atom("alpha"), granted_atom("alpha"), wants_atom("alpha")
    del g  # granted never happens in this scenario; the atom stays unlabeled
    return StitAutomaton(
        ["q0", "q1"], "q0", ["wait", "go", "stay"], [],
        [("q0", "wait", "q0", 1), ("q0", "go", "q1", 5),
         ("q1", "stay", "q1", 5)],
        {"q0": {w}, "q1": {p}})


def force_others_model() -> ExplicitStitModel:
    """Two-agent scenario where alpha has no choice but to proceed.

    Proceeding is labeled on every history, so not-proceeding has empty
    extension and the no-taking rule collapses into an obligation that the
    other agent grant right-of-way.
    """
    p = proceeds_atom("alpha")
    grow = grow_atom("beta", "alpha")
    moments = [(0, None), (1, 0), (2, 0), (3, 0), (4, 0)]
    histories = [("h1", [0, 1], 5), ("h2", [0, 2], 5),
                 ("h3", [0, 3], 1), ("h4", [0, 4], 1)]
    choices = {("alpha", 0): [["h1", "h2"], ["h3", "h4"]],
               ("beta", 0): [["h1", "h3"], ["h2", "h4"]]}
    labels = {}
    for hid, ms, _ in histories:
        for m in ms:
            labels[(m, hid)] = {p} | ({grow} if hid in ("h1", "h2") else set())
    return ExplicitStitModel(["alpha", "beta"], [p, grow], moments, histories,
                             choices, labels)


def fixtures() -> dict[str, ExplicitStitModel | StitAutomaton]:
    return {
        "fig1": fig1_model(),
        "fig2": fig2_model(),
        "fig3": fig3_model(),
        "unavoidable": unavoidable_model(),
        "merge": merge_automaton(),
    }


def export_fixtures(directory) -> list[str]:
    """Write every fixture into the model/automaton file formats."""
    os.makedirs(directory, exist_ok=True)
    written = []
    for name, fixture in fixtures().items():
        path = os.path.join(directory, f"{name}.json")
        if isinstance(fixture, StitAutomaton):
            save_automaton(fixture, path)
        else:
            save_model(fixture, path)
        written.append(path)
    return written
