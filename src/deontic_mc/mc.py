"""Deciding dominance oughts at the root of a stit automaton.

Two phases.  First, per first action K, the automaton is restricted to K,
primed (one fresh root with K's initial edges in front of the unchanged
automaton, so its executions are exactly the executions starting with K),
and its extremal bottleneck values [l, u] are computed; an action is
optimal iff no other interval sits strictly above it (l' > u).  Second,
every optimal action must guarantee the obligation, which splits into three
cases: a plain CTL* formula is a universality check over the primed
automaton, a positive dstit additionally needs the formula to be avoidable
somewhere in the full automaton, and a negated dstit is the complement.
Counterexamples name the user's initial state in place of the fresh root,
so they are lassos of the checked automaton.

The negated-dstit case unpacks as follows.  At the root, every history of
an action K sits in the same choice cell, so K guarantees ![a dstit: phi]
iff it is not the case that (K forces phi and phi is avoidable), i.e. the
check fails exactly when the full automaton has a phi-violating execution
(avoidable) while every K-execution satisfies phi (forced).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import formula as fm
from .automaton import (
    StitAutomaton,
    ValueInterval,
    extremal_values,
    prime_automaton,
    restrict_first_action,
)
from .ctlstar import Counterexample, check_universal, strip_weights
from .errors import GrammarError

CASE_CTLS = "ctls"
CASE_DSTIT_POSITIVE = "dstit_positive"
CASE_DSTIT_NEGATED = "dstit_negated"


@dataclass
class Verdict:
    """Outcome of an ought check at the automaton's root."""

    holds: bool
    intervals: list[ValueInterval]
    optimal_actions: list[tuple[str, ValueInterval]]
    case_taken: dict[str, str] = field(default_factory=dict)
    failing_action: str | None = None
    counterexample: Counterexample | None = None
    vacuous: bool = False

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "vacuous": self.vacuous,
            "intervals": [{"action": iv.action, "lo": str(iv.lo),
                           "hi": str(iv.hi)} for iv in self.intervals],
            "optimal": [{"action": a, "lo": str(iv.lo), "hi": str(iv.hi),
                         "case": self.case_taken.get(a)}
                        for a, iv in self.optimal_actions],
            "failing_action": self.failing_action,
            "counterexample": None if self.counterexample is None else {
                "stem": list(self.counterexample.stem),
                "loop": list(self.counterexample.loop),
                "violates": fm.render(self.counterexample.formula),
            },
        }


def _obligation_shape(ob: fm.Obligation, agent: str):
    """Normalize and map an obligation onto the algorithm's three cases."""
    ob = fm.normalize_obligation(ob)
    if isinstance(ob, fm.Plain):
        return CASE_CTLS, ob.formula
    if isinstance(ob, fm.DstitOf):
        if ob.agent != agent:
            raise GrammarError(
                f"dstit agent {ob.agent!r} is not the checked agent {agent!r}",
                production="obligation")
        if isinstance(ob.body, fm.Plain):
            return CASE_DSTIT_POSITIVE, ob.body.formula
        raise GrammarError(
            "obligation does not normalize to phi, [a dstit: phi] or "
            "![a dstit: phi]", production="obligation")
    if isinstance(ob, fm.NegatedObligation):
        inner = ob.body
        if isinstance(inner, fm.Plain):
            return CASE_CTLS, fm.Not(inner.formula)
        if isinstance(inner, fm.DstitOf) and isinstance(inner.body, fm.Plain):
            if inner.agent != agent:
                raise GrammarError(
                    f"dstit agent {inner.agent!r} is not the checked agent "
                    f"{agent!r}", production="obligation")
            return CASE_DSTIT_NEGATED, inner.body.formula
        raise GrammarError(
            "obligation does not normalize to phi, [a dstit: phi] or "
            "![a dstit: phi]", production="obligation")
    raise GrammarError(f"not an obligation: {type(ob).__name__}",
                       production="obligation")


def _coerce_obligation(a) -> fm.Obligation:
    if isinstance(a, fm.Obligation):
        return a
    if isinstance(a, fm.Formula):
        return fm.formula_to_obligation(a)
    if isinstance(a, str):
        return fm.parse_obligation(a)
    raise GrammarError(f"cannot read an obligation from {type(a).__name__}",
                       production="obligation")


class _Pipeline:
    """Shared first-phase results for one automaton."""

    def __init__(self, aut: StitAutomaton):
        aut.require_valid()
        self.aut = aut
        # first action -> its primed automaton (None: the full automaton),
        # until _forall strips it into views on first use
        self.automata: dict = {None: aut}
        self.views: dict = {}
        self.intervals: list[ValueInterval] = []
        for action in aut.first_actions():
            primed = prime_automaton(restrict_first_action(aut, action), aut)
            iv = extremal_values(primed)
            self.intervals.append(ValueInterval(action, iv.lo, iv.hi))
            self.automata[action] = primed
        self._forall_cache: dict = {}

    def optimal(self) -> list[ValueInterval]:
        return [iv for iv in self.intervals
                if not any(other.lo > iv.hi for other in self.intervals)]

    def _forall(self, action, phi):
        """check_universal on the action's view (None: the full automaton).
        Keyed by action, not by root name: every view's root has one name."""
        key = (action, phi)
        if key not in self._forall_cache:
            if action not in self.views:
                self.views[action] = strip_weights(self.automata.pop(action))
            self._forall_cache[key] = check_universal(self.views[action], phi)
        return self._forall_cache[key]

    def guarantees(self, action: str, shape: str, phi: fm.Formula):
        """Does this first action guarantee the cased obligation?

        Returns (ok, counterexample-or-None)."""
        ok_n, cx_n = self._forall(action, phi)
        if cx_n is not None:
            # the fresh root has no incoming edge, so it heads the stem, and
            # its first step is K's edge out of the user's initial state
            cx_n = replace(cx_n, stem=(self.aut.initial,) + cx_n.stem[1:])
        if shape == CASE_CTLS:
            return ok_n, cx_n
        ok_full, _ = self._forall(None, phi)
        if shape == CASE_DSTIT_POSITIVE:
            # K guarantees [a dstit: phi] iff phi is not globally forced
            # and K forces it
            if ok_full:
                return False, None
            if not ok_n:
                return False, cx_n
            return True, None
        if shape == CASE_DSTIT_NEGATED:
            # fails exactly when the dstit is real: avoidable yet K-forced
            if not ok_full and ok_n:
                return False, None
            return True, None
        raise GrammarError(f"unknown case {shape!r}", production="obligation")


def check_ought(aut: StitAutomaton, agent: str, obligation) -> Verdict:
    """Does the model generated by the automaton satisfy the dominance ought
    of the obligation for this agent at the root?"""
    return check_conditional_ought(aut, agent, obligation, None)


def check_conditional_ought(aut: StitAutomaton, agent: str, obligation,
                            condition) -> Verdict:
    """Conditional variant: only the optimal first actions that guarantee
    the condition must guarantee the obligation; with no such action the
    ought holds vacuously (flagged).  A condition of None retains every
    optimal action (never none: the largest hi is never dominated), which
    is the unconditional ought."""
    shape, phi = _obligation_shape(_coerce_obligation(obligation), agent)
    if condition is not None:
        cond_shape, cond_phi = _obligation_shape(
            _coerce_obligation(condition), agent)
    pipe = _Pipeline(aut)
    optimal = pipe.optimal()
    retained = optimal if condition is None else [
        iv for iv in optimal
        if pipe.guarantees(iv.action, cond_shape, cond_phi)[0]]
    verdict = Verdict(True, pipe.intervals,
                      [(iv.action, iv) for iv in optimal],
                      {iv.action: shape for iv in retained},
                      vacuous=not retained)
    for iv in retained:
        ok, cx = pipe.guarantees(iv.action, shape, phi)
        if not ok:
            verdict.holds = False
            verdict.failing_action = iv.action
            verdict.counterexample = cx
            break
    return verdict


def check_ought_statement(aut: StitAutomaton, statement: fm.OughtStatement
                          ) -> Verdict:
    """Dispatch an O[...] statement; automaton checks support single agents."""
    if len(statement.agents) != 1:
        raise GrammarError(
            "group oughts are checked on explicit models, not automata",
            production="ought")
    return check_conditional_ought(aut, statement.agents[0], statement.body,
                                   statement.condition)
