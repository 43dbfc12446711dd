"""Deciding dominance oughts at the root of a stit automaton.

Two phases.  First, per first action K, the extremal bottleneck values
[l, u] of the executions that begin with K are computed on the automaton
itself (extremal_values(aut, K): one walk from K's initial transitions and
a binary search over the ranked weights); an action is optimal iff no other
interval sits strictly above it (l' > u).  Second, every optimal action
must guarantee the obligation, which splits into three cases: a plain CTL*
formula is a universality check from K's root, a positive dstit
additionally needs the formula to be avoidable somewhere in the full
automaton, and a negated dstit is the complement.  Each check builds one
system: the automaton stripped of weights, plus one fresh root per optimal
action with the initial label and K's initial targets.  Nothing leads to a
root, so the executions from K's root are exactly the executions starting
with K, as in prime_automaton(restrict_first_action(aut, K), aut), and no
per-action copy is built.  Each distinct formula gets one
ctlstar.Universality over that system (one reduction, one Buchi automaton,
one product exploration), which answers every root and the user's initial
state.  A counterexample is built only for the failing action of a plain or
positive-dstit verdict; it names the user's initial state in place of the
root, so it is a lasso of the checked automaton.

The negated-dstit case unpacks as follows.  At the root, every history of
an action K sits in the same choice cell, so K guarantees ![a dstit: phi]
iff it is not the case that (K forces phi and phi is avoidable), i.e. the
check fails exactly when the full automaton has a phi-violating execution
(avoidable) while every K-execution satisfies phi (forced).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import formula as fm
# restrict_first_action, prime_automaton and check_universal are not called
# here; they are re-exported because the benchmark's tracer wraps them as mc
# attributes
from .automaton import (
    StitAutomaton,
    ValueInterval,
    extremal_values,
    prime_automaton,
    restrict_first_action,
)
from .ctlstar import (
    Counterexample,
    Universality,
    check_universal,
    strip_weights,
)
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
    """First-phase results for one automaton, and one system and one
    universality check per formula shared by every first action."""

    def __init__(self, aut: StitAutomaton):
        aut.require_valid()
        self.aut = aut
        self.intervals = [extremal_values(aut, action)
                          for action in aut.first_actions()]
        self.optimal = [iv for iv in self.intervals
                        if not any(other.lo > iv.hi for other in self.intervals)]
        self.roots: dict = {}  # optimal action -> its root in the system
        self._system = None
        self._checks: dict = {}  # formula -> Universality

    def _build_system(self):
        """The stripped automaton plus one fresh root per optimal action,
        with the initial label and the action's initial targets.  Nothing
        leads to a root, so the executions from K's root are exactly the
        executions that begin with K."""
        aut = self.aut
        ts = strip_weights(aut)
        taken, root = set(aut.states), aut.initial
        for iv in self.optimal:
            root += "'"
            while root in taken:
                root += "'"
            ts.add_root(root, [t.dst for t in aut.out(aut.initial)
                               if t.action == iv.action],
                        aut.label(aut.initial))
            self.roots[iv.action] = root
        return ts

    def _check(self, phi) -> Universality:
        check = self._checks.get(phi)
        if check is None:
            if self._system is None:
                self._system = self._build_system()
            check = self._checks[phi] = Universality(self._system, phi)
        return check

    def _forall(self, action, phi) -> bool:
        """Does every execution beginning with the action (None: every
        execution) satisfy phi?"""
        return self._check(phi).holds_from(
            self.aut.initial if action is None else self.roots[action])

    def guarantees(self, action: str, shape: str, phi: fm.Formula):
        """Does this first action guarantee the cased obligation?

        Returns (ok, refuted): refuted when it fails because one of the
        action's executions violates phi, which counterexample() shows."""
        ok_n = self._forall(action, phi)
        if shape == CASE_CTLS:
            return ok_n, not ok_n
        if shape == CASE_DSTIT_POSITIVE:
            # K guarantees [a dstit: phi] iff phi is not globally forced
            # and K forces it
            if self._forall(None, phi):
                return False, False
            return ok_n, not ok_n
        if shape == CASE_DSTIT_NEGATED:
            # fails exactly when the dstit is real: avoidable yet K-forced
            return not ok_n or self._forall(None, phi), False
        raise GrammarError(f"unknown case {shape!r}", production="obligation")

    def counterexample(self, action: str, phi: fm.Formula) -> Counterexample:
        cx = self._check(phi).counterexample(self.roots[action])
        # the root heads the stem, as nothing leads to it, and its first
        # step is K's edge out of the user's initial state
        return replace(cx, stem=(self.aut.initial,) + cx.stem[1:])


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
    optimal = pipe.optimal
    retained = optimal if condition is None else [
        iv for iv in optimal
        if pipe.guarantees(iv.action, cond_shape, cond_phi)[0]]
    verdict = Verdict(True, pipe.intervals,
                      [(iv.action, iv) for iv in optimal],
                      {iv.action: shape for iv in retained},
                      vacuous=not retained)
    for iv in retained:
        ok, refuted = pipe.guarantees(iv.action, shape, phi)
        if not ok:
            verdict.holds = False
            verdict.failing_action = iv.action
            if refuted:
                verdict.counterexample = pipe.counterexample(iv.action, phi)
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
