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
The extremal values of one first action are computed on the automaton
itself, from that action's initial transitions, by a binary search over
the ranked weights; they equal those of the primed automaton, which the
model checker therefore never builds.

Automata are immutable once built, so whatever is derived from one alone is
computed once and kept on the instance (StitAutomaton._memoised): its
validation here, and the model checker's first phase in mc.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    AutomatonError, ResourceLimitError, _as_rational, _is_kind,
    _require_fields, _require_unique, read_json)
from .tree_model import ExplicitStitModel

# unroll refuses a model of more moments than this; on a branching
# automaton the count grows exponentially with the depth
MAX_MOMENTS = 1 << 16


def _as_weight(w) -> Fraction:
    return _as_rational(w, "weight", AutomatonError)


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
    """Finite weighted nondeterministic automaton with labeled states.

    Immutable once built: the sequences are tuples, `final` is a frozenset,
    `labels` a read-only mapping, and setting or deleting an attribute
    raises, so what _memoised keeps can never go stale."""

    def __init__(self, states, initial, actions, final, transitions, labels):
        states = tuple(states)
        transitions = tuple(
            t if isinstance(t, Transition)
            else Transition(t[0], t[1], t[2], _as_weight(t[3]))
            for t in transitions)
        out: dict[str, list[Transition]] = {q: [] for q in states}
        for t in transitions:
            out.setdefault(t.src, []).append(t)
        vars(self).update(
            states=states,
            initial=initial,
            actions=tuple(actions),
            final=frozenset(final),
            transitions=transitions,
            labels=MappingProxyType(
                {q: frozenset(v) for q, v in dict(labels).items()}),
            _out={q: tuple(row) for q, row in out.items()},
            _memo={})

    def __setattr__(self, name, value):
        raise AttributeError(f"StitAutomaton is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"StitAutomaton is immutable: cannot delete {name!r}")

    def _memoised(self, build):
        """build(self), computed on the first call with this builder and
        kept: the automaton never changes, so neither does the result."""
        memo = self._memo
        if build not in memo:
            memo[build] = build(self)
        return memo[build]

    def out(self, state) -> tuple[Transition, ...]:
        if state not in self._out:
            raise AutomatonError(f"unknown state {state!r}")
        return self._out[state]

    def enabled_actions(self, state) -> list[str]:
        """Actions labeling outgoing transitions, in declaration order."""
        return list(dict.fromkeys(t.action for t in self.out(state)))

    def label(self, state) -> frozenset:
        return self.labels.get(state, frozenset())

    def atoms(self) -> list[str]:
        out = sorted({a for v in self.labels.values() for a in v})
        return out

    def reachable(self) -> list[str]:
        seen = [self.initial]
        unseen = set(self.states) - {self.initial}  # declared states only
        for q in seen:  # breadth-first: the list grows while it is walked
            for t in self._out.get(q, ()):
                if t.dst in unseen:
                    unseen.remove(t.dst)
                    seen.append(t.dst)
        return seen

    def first_actions(self) -> list[str]:
        return self.enabled_actions(self.initial)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[AutomatonViolation]:
        """The axioms the automaton breaks, none if it is valid.  They are
        found on the first call; each call returns its own copy."""
        return list(self._memoised(_violations))

    def require_valid(self):
        violations = self.validate()
        if violations:
            raise AutomatonError(
                "invalid automaton: " + "; ".join(str(v) for v in violations))

    # -- serialization -------------------------------------------------------

    _FIELDS = {"states": [str], "init": str, "final": [str], "actions": [str],
               "transitions": list, "labels": dict, "accumulation": None}
    _TRANSITION_FIELDS = {"from": str, "action": str, "to": str,
                          "weight": None}

    @classmethod
    def from_json(cls, data: dict) -> "StitAutomaton":
        _require_fields(data, cls._FIELDS, "automaton", AutomatonError)
        _require_unique(data["states"], "state", AutomatonError)
        transitions = []
        parsed = {}  # (type, raw weight) -> Fraction: each parsed once
        for e in data["transitions"]:
            _require_fields(e, cls._TRANSITION_FIELDS, "transitions",
                            AutomatonError)
            raw = e["weight"]
            try:  # the type in the key keeps true apart from 1
                w = parsed[type(raw), raw]
            except KeyError:
                w = parsed[type(raw), raw] = _as_weight(raw)
            except TypeError:  # unhashable, so not a weight
                w = _as_weight(raw)
            transitions.append(Transition(e["from"], e["action"], e["to"], w))
        if not _is_kind(list(data["labels"].values()), [[str]]):
            raise AutomatonError("labels: expected a list of atoms per state")
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


def _violations(aut) -> tuple[AutomatonViolation, ...]:
    out = []
    states = set(aut.states)
    if aut.initial not in states:
        out.append(AutomatonViolation("initial", aut.initial,
                                      "initial state not in state set"))
    # sorted, so that the list does not change with the hash seed
    for q in sorted(aut.final - states, key=str):
        out.append(AutomatonViolation("final", q, "final state unknown"))
    for q in sorted(set(aut.labels) - states, key=str):
        out.append(AutomatonViolation("labels", q, "labeled state unknown"))
    by_pair: dict[tuple[str, str], set[str]] = {}
    seen_triples = set()
    for t in aut.transitions:
        if t.src not in states or t.dst not in states:
            out.append(AutomatonViolation(
                "endpoints", t.src, f"transition {t} has unknown endpoint"))
            continue
        if t.action not in aut.actions:
            out.append(AutomatonViolation(
                "actions", t.src, f"transition action {t.action!r} not declared"))
        by_pair.setdefault((t.src, t.dst), set()).add(t.action)
        triple = (t.src, t.action, t.dst)
        if triple in seen_triples:
            out.append(AutomatonViolation(
                "edge-uniqueness", t.src,
                f"duplicate transition {t.src} -{t.action}-> {t.dst}"))
        seen_triples.add(triple)
    # only pairs carrying several actions are reported, so only they
    # are sorted
    shared = [pair for pair, acts in by_pair.items() if len(acts) > 1]
    for src, dst in sorted(shared):
        out.append(AutomatonViolation(
            "edge-uniqueness", src,
            f"transitions {src} -> {dst} carry distinct actions "
            f"{sorted(by_pair[src, dst])}"))
    if aut.initial in states:
        for q in aut.reachable():
            if not aut._out.get(q):
                out.append(AutomatonViolation(
                    "no-dead-end", q,
                    "reachable state has no outgoing transition"))
    return tuple(out)


def load_automaton(path) -> StitAutomaton:
    with open(path, "r", encoding="utf-8") as fp:
        data = read_json(fp.read())
    return StitAutomaton.from_json(data)


def save_automaton(aut: StitAutomaton, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(aut.to_json(), fp, indent=2)
        fp.write("\n")


# ---------------------------------------------------------------------------
# Product
# ---------------------------------------------------------------------------

def product(automata, names=None) -> StitAutomaton:
    """Synchronous product: a joint state or action is its components' ids
    joined by "|", the states in the order of their product, the actions as
    first met; two joints with one id (ids holding "|") raise AutomatonError.

    Labels are unioned; with more than one component each atom is qualified
    by its component's name ("a0.p").  A joint transition weighs the least
    of its components' weights.
    """
    if not automata:
        raise AutomatonError("product of zero automata")
    names = list(names) if names else [f"a{i}" for i in range(len(automata))]
    if len(names) != len(automata):
        raise AutomatonError("need one name per component")
    qualify = len(automata) > 1
    states, labels, transitions, actions = [], {}, [], {}
    for qs in itertools.product(*[a.states for a in automata]):
        src = "|".join(qs)
        states.append(src)
        labels[src] = {f"{name}.{atom}" if qualify else atom
                       for name, q, a in zip(names, qs, automata)
                       for atom in a.label(q)}
        for ts in itertools.product(*[a._out.get(q, ()) for q, a in
                                      zip(qs, automata)]):
            act = tuple(t.action for t in ts)
            if actions.setdefault(aid := "|".join(act), act) != act:
                raise AutomatonError(f"duplicate joint action {aid!r}")
            transitions.append(Transition(
                src, aid, "|".join(t.dst for t in ts),
                min(t.weight for t in ts)))
    _require_unique(states, "joint state", AutomatonError)
    initial = "|".join(a.initial for a in automata)
    final = {"|".join(qs) for qs in
             itertools.product(*[sorted(a.final) for a in automata])}
    return StitAutomaton(states, initial, actions, final, transitions, labels)


# ---------------------------------------------------------------------------
# Unrolling into an explicit stit model
# ---------------------------------------------------------------------------

def unroll(aut: StitAutomaton, depth: int, agent: str = "alpha") -> ExplicitStitModel:
    """Execute the automaton for `depth` steps and build the stit model.

    Moments mirror (state, path) pairs, built and numbered level by level;
    the histories are read off the last level, each walked up from its
    leaf.  The choice at each non-leaf moment mirrors the actions enabled at
    its state, one "*" label entry per moment copies its state's labeling,
    and each history's value accumulates the weights along its path (under
    min, the bottleneck of the finite prefix).

    A finite prefix's bottleneck only bounds the infinite history's value
    from above, so value questions go through extremal_values or lasso
    analysis; unrolling answers structural and bounded-horizon questions.
    Past MAX_MOMENTS moments, counted level by level before any is built,
    it raises ResourceLimitError.
    """
    if depth <= 0:
        raise AutomatonError("unroll needs depth >= 1")
    aut.require_valid()
    level, total = {aut.initial: 1}, 1  # moments per state at one depth
    for _ in range(depth):
        below: dict[str, int] = {}
        for q, n in level.items():
            for t in aut.out(q):
                below[t.dst] = below.get(t.dst, 0) + n
        level = below
        total += sum(level.values())
        if total > MAX_MOMENTS:
            raise ResourceLimitError(
                f"unrolling to depth {depth} builds more than "
                f"{MAX_MOMENTS} moments, the cap")
    moments = [(0, None)]
    state_of = {0: aut.initial}
    child_action: dict[int, str] = {}
    bottleneck: dict[int, Fraction] = {}  # the least weight from the root
    frontier = [0]
    for _ in range(depth):
        new_frontier = []
        for m in frontier:
            for t in aut.out(state_of[m]):
                mid = len(moments)  # a moment's id is its index in moments
                moments.append((mid, m))
                state_of[mid] = t.dst
                child_action[mid] = t.action
                bottleneck[mid] = (t.weight if m == 0
                                   else min(bottleneck[m], t.weight))
                new_frontier.append(mid)
        frontier = new_frontier
    # no reachable state is a dead end, so every leaf is on the last level,
    # which lists the leaves in the depth-first pre-order that numbers the
    # histories h1, h2, ...
    histories = []
    cells: dict[tuple[int, str], list[str]] = {}  # (moment, action) -> ids
    for leaf in frontier:
        hid, path, m = f"h{len(histories) + 1}", [], leaf
        while m != 0:  # up to the root
            cells.setdefault((moments[m][1], child_action[m]), []).append(hid)
            path.append(m)
            m = moments[m][1]
        histories.append((hid, [0] + path[::-1], bottleneck[leaf]))
    choices = {}
    for mid, _ in moments[:len(moments) - len(frontier)]:
        choices[(agent, mid)] = [
            sorted(cells[mid, a]) for a in aut.enabled_actions(state_of[mid])
            if (mid, a) in cells]
    labels = {(mid, "*"): aut.label(state_of[mid]) for mid, _ in moments}
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

    `restricted` is restrict_first_action(aut, K).  The fresh root, the
    initial state's name plus enough primes to name no state, carries the
    initial state's label and K's initial transitions, re-sourced to it
    with their targets unchanged; nothing leads back to it.  So the
    result's executions are exactly the original's executions that begin
    with K, and its root is bisimilar to restricted's initial state: every
    CTL* verdict agrees.
    """
    root, taken = aut.initial + "'", set(aut.states)
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

def extremal_values(aut: StitAutomaton,
                    first_action: str | None = None) -> ValueInterval:
    """Exact min and max bottleneck value over the infinite executions from
    the initial state, or over those that begin with `first_action`.

    One walk from the initial transitions (only those labeled first_action,
    if given) collects the reachable transitions and ranks their distinct
    weights into ints.  lo is the smallest of them: every reachable
    transition lies on some execution once no dead end is reachable.  hi is
    the largest weight w such that, keeping only transitions of weight >= w,
    a cycle stays reachable; a binary search over the ranks finds it with
    one O(E) cycle test per probe, so O(E log W) in all.  Each test starts
    from the targets of every kept initial transition at once, as if from
    one fresh root in front of the automaton, so the interval of K equals
    the interval of prime_automaton(restrict_first_action(aut, K), aut)
    without building either copy.
    """
    entry = [t for t in aut.out(aut.initial)
             if first_action is None or t.action == first_action]
    if not entry:
        if first_action is not None:
            raise AutomatonError(
                f"action {first_action!r} is not enabled at {aut.initial!r}")
        raise AutomatonError(
            f"dead end reachable: no execution through {aut.initial!r}")
    # states are numbered in walk order; succ[i] lists (j, weight key) pairs.
    # A weight's key is its integer ratio: Fractions hash and compare slowly.
    index: dict[str, int] = {}
    order: list[str] = []
    for t in entry:
        if t.dst not in index:
            index[t.dst] = len(order)
            order.append(t.dst)
    keys = {t.weight.as_integer_ratio() for t in entry}
    succ: list[list] = []
    for q in order:  # the list grows while it is walked
        row = []
        for t in aut._out.get(q, ()):
            j = index.get(t.dst)
            if j is None:
                j = index[t.dst] = len(order)
                order.append(t.dst)
            key = t.weight.as_integer_ratio()
            keys.add(key)
            row.append((j, key))
        succ.append(row)
    dead = sorted(q for q, row in zip(order, succ) if not row)
    if dead:
        raise AutomatonError(f"dead end reachable: no execution through "
                             f"{dead[0]!r}")
    # rank 0 is the smallest weight; over a common denominator the order of
    # the weights is the order of integers
    scale = math.lcm(*{den for _, den in keys})
    ranked = sorted(keys, key=lambda k: k[0] * (scale // k[1]))
    rank = {key: r for r, key in enumerate(ranked)}
    succ = [[(j, rank[key]) for j, key in row] for row in succ]
    entry = [(index[t.dst], rank[t.weight.as_integer_ratio()]) for t in entry]
    # probe 0 keeps every transition, so it finds a cycle: nothing reachable
    # is a dead end; hi never exceeds the best initial transition
    low, high = 0, max(r for _, r in entry)
    while low < high:
        mid = (low + high + 1) // 2
        if _cycle_at_rank(succ, [j for j, r in entry if r >= mid], mid):
            low = mid
        else:
            high = mid - 1
    if first_action is None:
        firsts = aut.first_actions()
        first_action = firsts[0] if len(firsts) == 1 else None
    return ValueInterval(first_action, Fraction(*ranked[0]),
                         Fraction(*ranked[low]))


def _cycle_at_rank(succ, sources, floor) -> bool:
    """Is a cycle of transitions ranked >= floor reachable from sources?"""
    color = [0] * len(succ)  # 1 = on the depth-first stack, 2 = done
    for s in sources:
        if color[s]:
            continue
        color[s] = 1
        stack = [(s, iter(succ[s]))]
        while stack:
            node, it = stack[-1]
            for j, r in it:
                if r >= floor:
                    c = color[j]
                    if c == 1:
                        return True
                    if not c:
                        color[j] = 1
                        stack.append((j, iter(succ[j])))
                        break
            else:
                color[node] = 2
                stack.pop()
    return False
