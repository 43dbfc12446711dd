"""Weighted stit automata and the graph surgery behind the model checker.

A stit automaton is a finite nondeterministic automaton whose transitions
carry an action label and a rational weight.  Executing it forever generates
a utilitarian stit model: executions become histories and the accumulation
function (here: min, the bottleneck value) turns traversed weights into the
history's utility.

This module owns the automaton data model, its validation, synchronous
products, the finite unrolling into an explicit stit model, the
first-action restriction and its priming (one fresh root in front of the
unchanged automaton, so the executions are exactly the executions starting
with that action), and exact extremal (maximin / minimin) bottleneck values.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import AutomatonError
from .tree_model import ExplicitStitModel


def _as_weight(w) -> Fraction:
    if isinstance(w, Fraction):
        return w
    if isinstance(w, bool):
        raise AutomatonError(f"bad weight {w!r}")
    if isinstance(w, int):
        return Fraction(w)
    if isinstance(w, (str, float)):
        return Fraction(str(w))
    raise AutomatonError(f"bad weight {w!r}")


def _weight_text(w: Fraction) -> str:
    if w.denominator == 1:
        return str(w.numerator)
    den, twos, fives = w.denominator, 0, 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:  # no finite decimal expansion; Fraction text stays exact
        return str(w)
    k = max(twos, fives)
    scaled = w.numerator * (10 ** k // w.denominator)
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(k + 1, "0")
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


@dataclass(frozen=True)
class Transition:
    src: str
    action: str
    dst: str
    weight: Fraction


@dataclass(frozen=True)
class ValueInterval:
    """[lo, hi]: extreme history values reachable after one first action."""

    action: str | None
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise AutomatonError(f"interval [{self.lo}, {self.hi}] is inverted")


@dataclass(frozen=True)
class AutomatonViolation:
    axiom: str
    state: str | None
    detail: str

    def __str__(self):
        loc = f" (state={self.state})" if self.state is not None else ""
        return f"[{self.axiom}]{loc} {self.detail}"


class StitAutomaton:
    """Finite weighted nondeterministic automaton with labeled states."""

    def __init__(self, states, initial, actions, final, transitions, labels):
        self.states = list(states)
        self.initial = initial
        self.actions = list(actions)
        self.final = set(final)
        self.transitions = [
            t if isinstance(t, Transition)
            else Transition(t[0], t[1], t[2], _as_weight(t[3]))
            for t in transitions]
        self.labels = {q: frozenset(v) for q, v in dict(labels).items()}
        self._out: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            self._out.setdefault(t.src, []).append(t)

    def out(self, state) -> list[Transition]:
        if state not in self._out:
            raise AutomatonError(f"unknown state {state!r}")
        return self._out[state]

    def enabled_actions(self, state) -> list[str]:
        """Actions labeling outgoing transitions, in declaration order."""
        seen = []
        for t in self.out(state):
            if t.action not in seen:
                seen.append(t.action)
        return seen

    def post(self, state, action) -> list[str]:
        return [t.dst for t in self.out(state) if t.action == action]

    def label(self, state) -> frozenset:
        return self.labels.get(state, frozenset())

    def atoms(self) -> list[str]:
        out = sorted({a for v in self.labels.values() for a in v})
        return out

    def reachable(self) -> list[str]:
        seen = [self.initial]
        seen_set = {self.initial}
        for q in seen:  # breadth-first: the list grows while it is walked
            for t in self._out.get(q, ()):
                if t.dst not in seen_set:
                    seen_set.add(t.dst)
                    seen.append(t.dst)
        return seen

    def first_actions(self) -> list[str]:
        return self.enabled_actions(self.initial)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[AutomatonViolation]:
        out = []
        states = set(self.states)
        if self.initial not in states:
            out.append(AutomatonViolation("initial", self.initial,
                                          "initial state not in state set"))
        for q in self.final - states:
            out.append(AutomatonViolation("final", q, "final state unknown"))
        for q in set(self.labels) - states:
            out.append(AutomatonViolation("labels", q, "labeled state unknown"))
        by_pair: dict[tuple[str, str], set[str]] = {}
        seen_triples = set()
        for t in self.transitions:
            if t.src not in states or t.dst not in states:
                out.append(AutomatonViolation(
                    "endpoints", t.src, f"transition {t} has unknown endpoint"))
                continue
            if t.action not in self.actions:
                out.append(AutomatonViolation(
                    "actions", t.src, f"transition action {t.action!r} not declared"))
            by_pair.setdefault((t.src, t.dst), set()).add(t.action)
            triple = (t.src, t.action, t.dst)
            if triple in seen_triples:
                out.append(AutomatonViolation(
                    "edge-uniqueness", t.src,
                    f"duplicate transition {t.src} -{t.action}-> {t.dst}"))
            seen_triples.add(triple)
        for (src, dst), acts in sorted(by_pair.items()):
            if len(acts) > 1:
                out.append(AutomatonViolation(
                    "edge-uniqueness", src,
                    f"transitions {src} -> {dst} carry distinct actions "
                    f"{sorted(acts)}"))
        if self.initial in states:
            for q in self.reachable():
                if not self._out.get(q):
                    out.append(AutomatonViolation(
                        "no-dead-end", q,
                        "reachable state has no outgoing transition"))
        return out

    def require_valid(self):
        violations = self.validate()
        if violations:
            raise AutomatonError(
                "invalid automaton: " + "; ".join(str(v) for v in violations))

    # -- serialization -------------------------------------------------------

    _FIELDS = ("states", "init", "final", "actions", "transitions", "labels",
               "accumulation")

    @classmethod
    def from_json(cls, data: dict) -> "StitAutomaton":
        _require_fields(data, cls._FIELDS, "automaton")
        transitions = []
        for e in data["transitions"]:
            _require_fields(e, ("from", "action", "to", "weight"), "transitions")
            transitions.append(Transition(e["from"], e["action"], e["to"],
                                          _as_weight(e["weight"])))
        if not isinstance(data["labels"], dict):
            raise AutomatonError("labels: expected an object keyed by state")
        if data["accumulation"] != "min":
            raise AutomatonError(
                f"unsupported accumulation {data['accumulation']!r}; "
                "only 'min' is implemented")
        return cls(data["states"], data["init"], data["actions"], data["final"],
                   transitions, data["labels"])

    def to_json(self) -> dict:
        return {
            "states": list(self.states),
            "init": self.initial,
            "final": sorted(self.final),
            "actions": list(self.actions),
            "transitions": [{"from": t.src, "action": t.action, "to": t.dst,
                             "weight": _weight_text(t.weight)}
                            for t in self.transitions],
            "labels": {q: sorted(v) for q, v in sorted(self.labels.items()) if v},
            "accumulation": "min",
        }


def _require_fields(data, fields, what):
    if not isinstance(data, dict):
        raise AutomatonError(f"{what}: expected an object")
    missing = [f for f in fields if f not in data]
    unknown = [f for f in data if f not in fields]
    if missing:
        raise AutomatonError(f"{what}: missing fields {missing}")
    if unknown:
        raise AutomatonError(f"{what}: unknown fields {unknown}")


def load_automaton(path) -> StitAutomaton:
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp, parse_float=Fraction)
    return StitAutomaton.from_json(data)


def save_automaton(aut: StitAutomaton, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(aut.to_json(), fp, indent=2)
        fp.write("\n")


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

_WEIGHT_POLICIES = {"min": min, "sum": sum}


def product(automata, weight_combine="min", names=None) -> StitAutomaton:
    """Synchronous product: states and actions are tuples of the components'.

    Labels are unioned; with more than one component each atom is qualified
    by its component's name ("a0.p").  Weights combine per the named policy.
    """
    if not automata:
        raise AutomatonError("product of zero automata")
    if weight_combine not in _WEIGHT_POLICIES:
        raise AutomatonError(f"unknown weight policy {weight_combine!r}")
    combine = _WEIGHT_POLICIES[weight_combine]
    names = list(names) if names else [f"a{i}" for i in range(len(automata))]
    if len(names) != len(automata):
        raise AutomatonError("need one name per component")
    qualify = len(automata) > 1

    def state_id(qs):
        return "|".join(qs)

    def action_id(ks):
        return "|".join(ks)

    states = [state_id(qs) for qs in
              itertools.product(*[a.states for a in automata])]
    initial = state_id(tuple(a.initial for a in automata))
    final = {state_id(qs) for qs in
             itertools.product(*[sorted(a.final) for a in automata])}
    labels = {}
    for qs in itertools.product(*[a.states for a in automata]):
        atoms = set()
        for name, q, a in zip(names, qs, automata):
            for atom in a.label(q):
                atoms.add(f"{name}.{atom}" if qualify else atom)
        labels[state_id(qs)] = atoms
    transitions = []
    actions = []
    for srcs in itertools.product(*[a.states for a in automata]):
        for ts in itertools.product(*[a._out.get(q, ()) for q, a in
                                      zip(srcs, automata)]):
            act = action_id(tuple(t.action for t in ts))
            if act not in actions:
                actions.append(act)
            transitions.append(Transition(
                state_id(srcs), act,
                state_id(tuple(t.dst for t in ts)),
                combine([t.weight for t in ts])))
    return StitAutomaton(states, initial, actions, final, transitions, labels)


# ---------------------------------------------------------------------------
# Unrolling into an explicit stit model
# ---------------------------------------------------------------------------

def unroll(aut: StitAutomaton, depth: int, agent: str = "alpha") -> ExplicitStitModel:
    """Execute the automaton for `depth` steps and build the stit model.

    Moments mirror (state, path) pairs, the choice at each non-leaf moment
    mirrors the actions enabled at its state, labels copy the state labeling,
    and each history's value accumulates the weights along its path (for the
    min accumulation: the bottleneck of the finite prefix).

    A finite prefix's bottleneck only bounds the infinite history's value
    from above, so value questions go through extremal_values or lasso
    analysis; unrolling answers structural and bounded-horizon questions.
    """
    if depth <= 0:
        raise AutomatonError("unroll needs depth >= 1")
    aut.require_valid()
    moments = [(0, None)]
    state_of = {0: aut.initial}
    child_action: dict[int, str] = {}
    incoming_weight: dict[int, Fraction] = {}
    frontier = [0]
    next_id = 1
    for _ in range(depth):
        new_frontier = []
        for m in frontier:
            for t in aut.out(state_of[m]):
                mid = next_id
                next_id += 1
                moments.append((mid, m))
                state_of[mid] = t.dst
                child_action[mid] = t.action
                incoming_weight[mid] = t.weight
                new_frontier.append(mid)
        frontier = new_frontier
    children: dict[int, list[int]] = {}
    for mid, parent in moments:
        if parent is not None:
            children.setdefault(parent, []).append(mid)
    histories = []
    paths = {}
    counter = itertools.count(1)

    def descend(mid, path):
        kids = children.get(mid, [])
        if not kids:
            hid = f"h{next(counter)}"
            weights = [incoming_weight[m] for m in path[1:]]
            value = min(weights) if weights else Fraction(0)
            histories.append((hid, list(path), value))
            paths[hid] = list(path)
            return
        for kid in kids:
            descend(kid, path + [kid])

    descend(0, [0])
    through: dict[int, list[str]] = {}
    for hid, ms, _ in histories:
        for m in ms:
            through.setdefault(m, []).append(hid)
    choices = {}
    for mid, _ in moments:
        kids = children.get(mid)
        if not kids:
            continue
        cells = {}
        for kid in kids:
            cells.setdefault(child_action[kid], set()).update(through.get(kid, ()))
        ordered = [sorted(cells[a]) for a in aut.enabled_actions(state_of[mid])
                   if a in cells]
        choices[(agent, mid)] = ordered
    labels = {}
    for mid, _ in moments:
        atoms = aut.label(state_of[mid])
        for hid in through.get(mid, ()):
            labels[(mid, hid)] = atoms
    return ExplicitStitModel([agent], aut.atoms(), moments, histories,
                             choices, labels)


# ---------------------------------------------------------------------------
# First-action restriction and priming
# ---------------------------------------------------------------------------

def restrict_first_action(aut: StitAutomaton, action: str) -> StitAutomaton:
    """Delete every initial-state transition not labeled by the action."""
    if action not in aut.first_actions():
        raise AutomatonError(
            f"action {action!r} is not enabled at {aut.initial!r}")
    transitions = [t for t in aut.transitions
                   if t.src != aut.initial or t.action == action]
    return StitAutomaton(aut.states, aut.initial, aut.actions, aut.final,
                         transitions, aut.labels)


def prime_automaton(restricted: StitAutomaton, aut: StitAutomaton) -> StitAutomaton:
    """The original automaton behind one fresh initial state.

    `restricted` is restrict_first_action(aut, K).  The fresh root (named
    after aut's initial state plus primes) carries the initial state's label
    and K's initial transitions, re-sourced to it with their targets
    unchanged; nothing leads back to it.  So the result's executions are
    exactly the original's executions that begin with K, and its root is
    bisimilar to restricted's initial state: every CTL* verdict agrees.
    """
    taken = set(aut.states)
    root = aut.initial + "'"
    while root in taken:
        root += "'"
    transitions = [Transition(root, t.action, t.dst, t.weight)
                   for t in restricted.out(restricted.initial)]
    transitions.extend(aut.transitions)
    labels = {**aut.labels, root: restricted.label(restricted.initial)}
    return StitAutomaton([root] + list(aut.states), root, aut.actions,
                         aut.final, transitions, labels)


def bounded_traces(aut: StitAutomaton, depth: int,
                   first_action: str | None = None) -> frozenset:
    """Depth-bounded traces: (initial label, ((action, weight, label), ...)).

    State names are deliberately absent so traces compare across renamings.
    """
    out = set()

    def go(state, steps, acc):
        if steps == 0:
            out.add((aut.label(aut.initial), tuple(acc)))
            return
        for t in aut.out(state):
            if not acc and first_action is not None and t.action != first_action:
                continue
            go(t.dst, steps - 1,
               acc + [(t.action, t.weight, aut.label(t.dst))])

    go(aut.initial, depth, [])
    return frozenset(out)


# ---------------------------------------------------------------------------
# Extremal bottleneck values (accumulation = min)
# ---------------------------------------------------------------------------

def extremal_values(aut: StitAutomaton) -> ValueInterval:
    """Exact min and max bottleneck value over all infinite executions.

    hi is the largest weight w such that, keeping only transitions of weight
    >= w, a cycle stays reachable from the initial state; lo is the smallest
    weight reachable at all (every reachable transition lies on some
    execution once no dead end is reachable).
    """
    reachable = set(aut.reachable())
    for q in sorted(reachable):
        if not aut.out(q):
            raise AutomatonError(f"dead end reachable: no execution through {q!r}")
    edges = [t for t in aut.transitions if t.src in reachable]
    if not edges:
        raise AutomatonError("no transitions reachable from the initial state")
    lo = min(t.weight for t in edges)
    hi = None
    for w in sorted({t.weight for t in edges}, reverse=True):
        if _has_reachable_cycle(aut.initial,
                                [t for t in edges if t.weight >= w]):
            hi = w
            break
    if hi is None:
        raise AutomatonError("no infinite execution exists")
    firsts = aut.first_actions()
    action = firsts[0] if len(firsts) == 1 else None
    return ValueInterval(action, lo, hi)


def _has_reachable_cycle(start, edges) -> bool:
    succ: dict[str, list[str]] = {}
    for t in edges:
        succ.setdefault(t.src, []).append(t.dst)
    color: dict[str, int] = {}  # 1 = on stack, 2 = done

    stack = [(start, iter(succ.get(start, ())))]
    color[start] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            c = color.get(nxt)
            if c == 1:
                return True
            if c is None:
                color[nxt] = 1
                stack.append((nxt, iter(succ.get(nxt, ()))))
                advanced = True
                break
        if not advanced:
            color[node] = 2
            stack.pop()
    return False
