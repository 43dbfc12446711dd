"""Explicit finite-depth utilitarian stit models and their satisfaction relation.

A model is a finite branching-time tree of moments, a set of histories
(root-to-leaf paths) each carrying a utility value, a per-agent choice
partition of the histories through each moment, and a labeling of
(moment, history) pairs with atoms.  Histories conceptually extend forever:
the leaf's label repeats, so temporal operators are decided on the
ultimately-constant extension.

Evaluation is read-only; models are safe to share between threads once built.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from .errors import GrammarError, ModelError


@dataclass(frozen=True)
class Moment:
    id: int
    parent: int | None
    depth: int


@dataclass(frozen=True)
class History:
    id: str
    moments: tuple[int, ...]
    value: Fraction


@dataclass(frozen=True)
class Violation:
    """One broken model axiom, as data."""

    axiom: str
    agent: str | None
    moment: int | None
    detail: str

    def __str__(self):
        where = []
        if self.agent is not None:
            where.append(f"agent={self.agent}")
        if self.moment is not None:
            where.append(f"moment={self.moment}")
        loc = f" ({', '.join(where)})" if where else ""
        return f"[{self.axiom}]{loc} {self.detail}"


@dataclass(frozen=True)
class ActionSet:
    """A subset of the actions available to an agent (or group) at a moment."""

    moment: int
    agent: tuple[str, ...]
    actions: tuple[frozenset, ...]


@dataclass(frozen=True)
class BackgroundStateSet:
    """The joint choices of everyone except the focal agent(s) at a moment."""

    moment: int
    focal_agent: tuple[str, ...]
    states: tuple[frozenset, ...]


def _as_value(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, bool):
        raise ModelError(f"bad utility value {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    if isinstance(v, float):
        return Fraction(str(v))
    raise ModelError(f"bad utility value {v!r}")


class ExplicitStitModel:
    """Finite utilitarian stit model over explicit moments and histories."""

    def __init__(self, agents, atoms, moments, histories, choices, labels):
        """moments: iterable of (id, parent); histories: (id, moment ids, value);
        choices: mapping (agent, moment id) -> iterable of actions (iterables of
        history ids); labels: mapping (moment id, history id) -> atoms."""
        self.agents = list(agents)
        self.atoms = list(atoms)
        self.moments: dict[int, Moment] = {}
        parents = {int(mid): (None if par is None else int(par))
                   for mid, par in moments}
        for mid, par in parents.items():
            self.moments[mid] = Moment(mid, par, self._depth_of(mid, parents))
        self.histories: dict[str, History] = {
            hid: History(hid, tuple(int(m) for m in ms), _as_value(v))
            for hid, ms, v in histories}
        self.choices: dict[tuple[str, int], tuple[frozenset, ...]] = {
            (agent, int(mid)): tuple(frozenset(cell) for cell in cells)
            for (agent, mid), cells in dict(choices).items()}
        self.labels: dict[tuple[int, str], frozenset] = {
            (int(mid), hid): frozenset(av)
            for (mid, hid), av in dict(labels).items()}
        self._children: dict[int, list[int]] = {m: [] for m in self.moments}
        for m in self.moments.values():
            if m.parent is not None and m.parent in self.moments:
                self._children[m.parent].append(m.id)
        grouped: dict[int, set] = {m: set() for m in self.moments}
        for h in self.histories.values():
            for mid in h.moments:
                if mid in grouped:
                    grouped[mid].add(h.id)
        self._through = {m: frozenset(hs) for m, hs in grouped.items()}
        self._hpos = {h.id: {mid: i for i, mid in enumerate(h.moments)}
                      for h in self.histories.values()}
        self._sat_cache: dict = {}
        self._warned_atoms: set = set()

    @staticmethod
    def _depth_of(mid, parents):
        depth = 0
        seen = set()
        cur = mid
        while parents.get(cur) is not None:
            if cur in seen:
                raise ModelError(f"cyclic parent chain at moment {mid}")
            seen.add(cur)
            cur = parents[cur]
            if cur not in parents:
                break
            depth += 1
        return depth

    # -- basic structure ----------------------------------------------------

    def root(self) -> int:
        roots = [m.id for m in self.moments.values() if m.parent is None]
        if len(roots) != 1:
            raise ModelError(f"model has {len(roots)} roots")
        return roots[0]

    def children(self, mid):
        return self._children[self._check_moment(mid)]

    def is_leaf(self, mid):
        return not self._children[self._check_moment(mid)]

    def histories_through(self, mid) -> frozenset:
        """H_m: ids of the histories passing through the moment."""
        return self._through[self._check_moment(mid)]

    def label(self, mid, hid) -> frozenset:
        return self.labels.get((mid, hid), frozenset())

    def value(self, hid) -> Fraction:
        return self._check_history(hid).value

    def step(self, mid, hid) -> int:
        """Next moment of the history after mid; the leaf repeats (stutter)."""
        h = self._check_history(hid)
        pos = self._hpos[hid].get(mid)
        if pos is None:
            raise ModelError(f"moment {mid} is not on history {hid}")
        if pos + 1 < len(h.moments):
            return h.moments[pos + 1]
        return mid

    def moments_from(self, mid, hid):
        """Moments of the history from mid to its leaf (no stuttering)."""
        h = self._check_history(hid)
        pos = self._hpos[hid].get(mid)
        if pos is None:
            raise ModelError(f"moment {mid} is not on history {hid}")
        return h.moments[pos:]

    def _check_moment(self, mid):
        if mid not in self.moments:
            raise ModelError(f"unknown moment {mid!r}")
        return mid

    def _check_history(self, hid):
        if hid not in self.histories:
            raise ModelError(f"unknown history {hid!r}")
        return self.histories[hid]

    def _check_agent(self, agent):
        if agent not in self.agents:
            raise ModelError(f"unknown agent {agent!r}")
        return agent

    # -- choices ------------------------------------------------------------

    def actions_at(self, agent, mid) -> tuple[frozenset, ...]:
        """Choice cells of the agent at the moment; defaults to the vacuous
        single-cell choice when no entry is declared."""
        self._check_agent(agent)
        cells = self.choices.get((agent, self._check_moment(mid)))
        if cells is not None:
            return cells
        return (self.histories_through(mid),)

    def choice_of(self, agent, mid, hid) -> frozenset:
        """The unique action of the agent at mid containing the history."""
        if hid not in self.histories_through(mid):
            raise ModelError(f"history {hid!r} does not pass through moment {mid}")
        for cell in self.actions_at(agent, mid):
            if hid in cell:
                return cell
        raise ModelError(
            f"choice cells of {agent!r} at moment {mid} do not cover {hid!r}")

    def group_actions(self, agents, mid) -> tuple[frozenset, ...]:
        """Joint choice cells of a group: non-empty intersections of one
        action per member (well-defined by independence of agents)."""
        agents = self._as_group(agents)
        per_agent = [self.actions_at(a, mid) for a in agents]
        out = []
        for pick in itertools.product(*per_agent):
            cell = frozenset.intersection(*pick)
            if cell and cell not in out:
                out.append(cell)
        return tuple(out)

    def background_states(self, agents, mid) -> BackgroundStateSet:
        """Background states: joint choices of all the non-focal agents."""
        agents = self._as_group(agents)
        others = [a for a in self.agents if a not in agents]
        if not others:
            states = (self.histories_through(mid),)
        else:
            states = self.group_actions(tuple(others), mid)
        return BackgroundStateSet(mid, agents, states)

    def _as_group(self, agents):
        if isinstance(agents, str):
            agents = (agents,)
        agents = tuple(agents)
        for a in agents:
            self._check_agent(a)
        if not agents:
            raise ModelError("empty agent group")
        return agents

    # -- dominance and optimality --------------------------------------------

    def _values(self, hids):
        return [self.histories[h].value for h in hids]

    def dominates(self, agents, mid, k_low, k_high, condition=None):
        """True iff k_high strictly dominates k_low at the moment: weakly
        preferable within every background state and strictly so in one."""
        states = self.background_states(agents, mid).states
        restrict = None
        if condition is not None:
            restrict = self.extension(mid, condition)
        weak_all = True
        strict_some = False
        for s in states:
            lo, hi = k_low & s, k_high & s
            if restrict is not None:
                lo, hi = lo & restrict, hi & restrict
            lo_v, hi_v = self._values(lo), self._values(hi)
            if any(a > b for a in lo_v for b in hi_v):
                weak_all = False
                break
            if lo_v and hi_v and all(a < b for a in lo_v for b in hi_v):
                strict_some = True
        return weak_all and strict_some

    def optimal_actions(self, agents, mid, condition=None) -> ActionSet:
        """Un-dominated actions of the agent (or group) at the moment.

        With a condition B, value comparisons are restricted to B-satisfying
        histories and actions disjoint from |B|_m are not candidates; an
        unsatisfiable condition is an error rather than a vacuous answer.
        """
        agents = self._as_group(agents)
        self._check_moment(mid)
        cells = self.group_actions(agents, mid)
        if condition is not None:
            ext = self.extension(mid, condition)
            if not ext:
                raise ModelError(f"condition unsatisfiable at moment {mid}")
            cells = tuple(k for k in cells if k & ext)
        optimal = tuple(
            k for k in cells
            if not any(k2 != k and self.dominates(agents, mid, k, k2, condition)
                       for k2 in cells))
        return ActionSet(mid, agents, optimal)

    # -- satisfaction --------------------------------------------------------

    def satisfies(self, mid, hid, x) -> bool:
        """Truth of a formula, obligation, or ought statement at mid/hid."""
        self._check_moment(mid)
        self._check_history(hid)
        if hid not in self.histories_through(mid):
            raise ModelError(f"history {hid!r} does not pass through moment {mid}")
        return self._sat(mid, hid, x)

    def satisfies_path(self, mid, hid, f) -> bool:
        """Pure-CTL* entry point; rejects stit operators and oughts."""
        if not fm.is_pure_ctls(f):
            raise GrammarError("satisfies_path needs a stit-free formula",
                               production="pure-ctl-star")
        return self.satisfies(mid, hid, f)

    def extension(self, mid, a) -> frozenset:
        """|A|_m: the histories through mid at which A holds."""
        self._check_moment(mid)
        return frozenset(
            h for h in self.histories_through(mid) if self._sat(mid, h, a))

    def _sat(self, mid, hid, x) -> bool:
        key = (mid, hid, x)
        hit = self._sat_cache.get(key)
        if hit is not None:
            return hit
        out = self._sat_raw(mid, hid, x)
        self._sat_cache[key] = out
        return out

    def _sat_raw(self, mid, hid, x) -> bool:
        if isinstance(x, fm.OughtStatement):
            return self._sat_ought(mid, x)
        if isinstance(x, fm.Plain):
            return self._sat(mid, hid, x.formula)
        if isinstance(x, fm.DstitOf):
            return self._sat_dstit(mid, hid, x.agent, x.body)
        if isinstance(x, fm.NegatedObligation):
            return not self._sat(mid, hid, x.body)
        if isinstance(x, fm.Atom):
            if x.name not in self.atoms and x.name not in self._warned_atoms:
                self._warned_atoms.add(x.name)
                warnings.warn(f"atom {x.name!r} is not declared in the model; "
                              f"it is false everywhere", stacklevel=2)
            return x.name in self.label(mid, hid)
        if isinstance(x, fm.TrueFormula):
            return True
        if isinstance(x, fm.FalseFormula):
            return False
        if isinstance(x, fm.Not):
            return not self._sat(mid, hid, x.operand)
        if isinstance(x, fm.And):
            return self._sat(mid, hid, x.left) and self._sat(mid, hid, x.right)
        if isinstance(x, fm.Or):
            return self._sat(mid, hid, x.left) or self._sat(mid, hid, x.right)
        if isinstance(x, fm.Implies):
            return (not self._sat(mid, hid, x.left)) or self._sat(mid, hid, x.right)
        if isinstance(x, fm.Next):
            return self._sat(self.step(mid, hid), hid, x.operand)
        if isinstance(x, fm.NextPow):
            return self._sat(self._step_n(mid, hid, x.steps), hid, x.operand)
        if isinstance(x, fm.Until):
            return self._sat_until(mid, hid, x.left, x.right)
        if isinstance(x, fm.Release):
            return self._sat_release(mid, hid, x.left, x.right)
        if isinstance(x, fm.Eventually):
            return self._sat_until(mid, hid, fm.TRUE, x.operand)
        if isinstance(x, fm.Always):
            return self._sat_release(mid, hid, fm.FALSE, x.operand)
        if isinstance(x, fm.EventuallyBounded):
            return any(self._sat(self._step_n(mid, hid, t), hid, x.operand)
                       for t in range(x.lo, x.hi + 1))
        if isinstance(x, fm.BoundedRelease):
            return self._sat_brelease(mid, hid, x)
        if isinstance(x, fm.ForallPaths):
            return all(self._sat(mid, h2, x.operand)
                       for h2 in self.histories_through(mid))
        if isinstance(x, fm.ExistsPaths):
            return any(self._sat(mid, h2, x.operand)
                       for h2 in self.histories_through(mid))
        if isinstance(x, fm.Cstit):
            cell = self.choice_of(x.agent, mid, hid)
            return cell <= self.extension(mid, x.body)
        if isinstance(x, fm.Dstit):
            return self._sat_dstit(mid, hid, x.agent, x.body)
        raise ModelError(f"cannot evaluate {type(x).__name__}")

    def _sat_dstit(self, mid, hid, agent, body):
        ext = self.extension(mid, body)
        if ext == self.histories_through(mid):
            return False
        return self.choice_of(agent, mid, hid) <= ext

    def _sat_ought(self, mid, st: fm.OughtStatement):
        if st.condition is not None:
            ext = self.extension(mid, st.condition)
            if not ext:
                # no conditionally optimal actions: vacuously satisfied
                return True
        optimal = self.optimal_actions(st.agents, mid, st.condition)
        body_ext = self.extension(mid, st.body)
        return all(k <= body_ext for k in optimal.actions)

    def _step_n(self, mid, hid, n):
        for _ in range(n):
            mid = self.step(mid, hid)
        return mid

    def _sat_until(self, mid, hid, left, right):
        while True:
            if self._sat(mid, hid, right):
                return True
            if not self._sat(mid, hid, left):
                return False
            nxt = self.step(mid, hid)
            if nxt == mid:
                return False
            mid = nxt

    def _sat_release(self, mid, hid, left, right):
        while True:
            if not self._sat(mid, hid, right):
                return False
            if self._sat(mid, hid, left):
                return True
            nxt = self.step(mid, hid)
            if nxt == mid:
                return True
            mid = nxt

    def _sat_brelease(self, mid, hid, x: fm.BoundedRelease):
        # l BR[N] r = l | (r & X l) | ... | (r & ... & X^(N-1) r & X^N l)
        #               | (r & X r & ... & X^N r)
        if self._sat(mid, hid, x.left):
            return True
        cur = mid
        for _ in range(x.bound):
            if not self._sat(cur, hid, x.right):
                return False
            cur = self.step(cur, hid)
            if self._sat(cur, hid, x.left):
                return True
        return self._sat(cur, hid, x.right)

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check every structural axiom; an empty list means the model is valid."""
        out = []
        roots = [m.id for m in self.moments.values() if m.parent is None]
        if len(roots) != 1 or (roots and roots[0] != 0):
            out.append(Violation("root", None, None,
                                 f"expected a unique root moment 0, found {roots}"))
        for m in self.moments.values():
            if m.parent is not None:
                if m.parent not in self.moments:
                    out.append(Violation("parent", None, m.id,
                                         f"parent {m.parent} does not exist"))
                elif self.moments[m.parent].depth != m.depth - 1:
                    out.append(Violation("parent", None, m.id,
                                         "parent depth is not depth - 1"))
        leaves = {m for m in self.moments if self.is_leaf(m)}
        covered = set()
        for h in self.histories.values():
            ms = h.moments
            ok = bool(ms) and all(mid in self.moments for mid in ms)
            if ok and self.moments[ms[0]].parent is not None:
                out.append(Violation("history-path", None, ms[0],
                                     f"history {h.id} does not start at the root"))
                ok = False
            if ok:
                for a, b in zip(ms, ms[1:]):
                    if self.moments[b].parent != a:
                        out.append(Violation(
                            "history-path", None, b,
                            f"history {h.id}: {b} is not a child of {a}"))
                        ok = False
                        break
            if ok and ms[-1] not in leaves:
                out.append(Violation("history-path", None, ms[-1],
                                     f"history {h.id} ends at a non-leaf moment"))
            if ok:
                covered.add(ms[-1])
            if not ms or not all(mid in self.moments for mid in ms):
                out.append(Violation("history-path", None, None,
                                     f"history {h.id} mentions unknown moments"))
        for leaf in sorted(leaves - covered):
            out.append(Violation("leaf-covered", None, leaf,
                                 "no history ends at this leaf"))
        for (agent, mid), cells in sorted(self.choices.items()):
            if agent not in self.agents:
                out.append(Violation("partition", agent, mid, "unknown agent"))
                continue
            if mid not in self.moments:
                out.append(Violation("partition", agent, mid, "unknown moment"))
                continue
            hm = self.histories_through(mid)
            seen = set()
            for cell in cells:
                if not cell:
                    out.append(Violation("partition", agent, mid, "empty action"))
                overlap = cell & seen
                if overlap:
                    out.append(Violation(
                        "partition", agent, mid,
                        f"histories {sorted(overlap)} appear in two actions"))
                seen |= cell
            if seen != hm:
                out.append(Violation(
                    "partition", agent, mid,
                    f"actions do not partition H_m: union {sorted(seen)} "
                    f"vs H_m {sorted(hm)}"))
        out.extend(self._validate_independence())
        out.extend(self._validate_undivided())
        return out

    def _validate_independence(self):
        out = []
        for mid in self.moments:
            per_agent = [self.actions_at(a, mid) for a in self.agents]
            if any(len(cells) > 1 for cells in per_agent):
                for pick in itertools.product(*per_agent):
                    if not frozenset.intersection(*pick):
                        out.append(Violation(
                            "independence", None, mid,
                            "a selection of one action per agent has empty "
                            "intersection: "
                            + " x ".join(str(sorted(c)) for c in pick)))
        return out

    def _validate_undivided(self):
        out = []
        for (agent, mid), cells in sorted(self.choices.items()):
            if mid not in self.moments:
                continue
            cell_of = {}
            for i, cell in enumerate(cells):
                for h in cell:
                    cell_of[h] = i
            for h1, h2 in itertools.combinations(sorted(cell_of), 2):
                if cell_of[h1] == cell_of[h2]:
                    continue
                if self._share_later_moment(mid, h1, h2):
                    out.append(Violation(
                        "undivided", agent, mid,
                        f"histories {h1} and {h2} share a later moment but "
                        f"sit in different actions"))
        return out

    def _share_later_moment(self, mid, h1, h2):
        if h1 not in self.histories or h2 not in self.histories:
            return False
        p1, p2 = self._hpos[h1], self._hpos[h2]
        if mid not in p1 or mid not in p2:
            return False
        after1 = set(self.histories[h1].moments[p1[mid] + 1:])
        after2 = set(self.histories[h2].moments[p2[mid] + 1:])
        return bool(after1 & after2)

    # -- serialization -------------------------------------------------------

    _FIELDS = ("agents", "atoms", "moments", "histories", "choices", "labels")

    @classmethod
    def from_json(cls, data: dict) -> "ExplicitStitModel":
        _require_fields(data, cls._FIELDS, "model")
        moments = [( _field(e, "id", "moments"), _field(e, "parent", "moments"))
                   for e in _entries(data, "moments", ("id", "parent"))]
        histories = [(_field(e, "id", "histories"),
                      _field(e, "moments", "histories"),
                      _field(e, "value", "histories"))
                     for e in _entries(data, "histories", ("id", "moments", "value"))]
        choices = {}
        for e in _entries(data, "choices", ("agent", "moment", "actions")):
            key = (e["agent"], int(e["moment"]))
            if key in choices:
                raise ModelError(f"duplicate choices entry for {key}")
            choices[key] = [list(cell) for cell in e["actions"]]
        history_ids = [hid for hid, _, _ in histories]
        moment_of_history = {hid: set(ms) for hid, ms, _ in histories}
        labels = {}
        for e in _entries(data, "labels", ("moment", "history", "atoms")):
            mid = int(e["moment"])
            hsel = e["history"]
            targets = ([h for h in history_ids if mid in moment_of_history[h]]
                       if hsel == "*" else [hsel])
            for h in targets:
                key = (mid, h)
                labels[key] = sorted(set(labels.get(key, [])) | set(e["atoms"]))
        return cls(data["agents"], data["atoms"], moments, histories,
                   choices, labels)

    def to_json(self) -> dict:
        return {
            "agents": list(self.agents),
            "atoms": list(self.atoms),
            "moments": [{"id": m.id, "parent": m.parent}
                        for m in sorted(self.moments.values(), key=lambda m: m.id)],
            "histories": [{"id": h.id, "moments": list(h.moments),
                           "value": str(h.value)}
                          for h in sorted(self.histories.values(),
                                          key=lambda h: h.id)],
            "choices": [{"agent": agent, "moment": mid,
                         "actions": [sorted(cell) for cell in cells]}
                        for (agent, mid), cells in sorted(self.choices.items())],
            "labels": [{"moment": mid, "history": hid, "atoms": sorted(atoms)}
                       for (mid, hid), atoms in sorted(self.labels.items())
                       if atoms],
        }


def _require_fields(data, fields, what):
    if not isinstance(data, dict):
        raise ModelError(f"{what}: expected an object")
    missing = [f for f in fields if f not in data]
    unknown = [f for f in data if f not in fields]
    if missing:
        raise ModelError(f"{what}: missing fields {missing}")
    if unknown:
        raise ModelError(f"{what}: unknown fields {unknown}")


def _entries(data, name, fields):
    for e in data[name]:
        _require_fields(e, fields, name)
        yield e


def _field(e, key, what):
    if key not in e:
        raise ModelError(f"{what}: missing field {key!r}")
    return e[key]


def load_model(path) -> ExplicitStitModel:
    with open(path, "r", encoding="utf-8") as fp:
        data = json.load(fp, parse_float=Fraction)
    return ExplicitStitModel.from_json(data)


def save_model(model: ExplicitStitModel, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(model.to_json(), fp, indent=2, sort_keys=False)
        fp.write("\n")


def check_inference_condition(model, agent, mid, g_atom, p_atom):
    """Check the stit-model structural condition that lets a model carry
    both the keep-right-of-way prohibition and the do-not-wait-forever
    obligation: every optimal action at the moment must offer at least two
    histories, one of which breaks G(!g -> !p) yet falls out of every
    optimal action at some later choice point on it.

    Returns (holds, witnesses) with one (action, history, moment) witness per
    optimal action when the condition holds.
    """
    guard = fm.Always(fm.Implies(fm.Not(fm.Atom(g_atom)), fm.Not(fm.Atom(p_atom))))
    witnesses = []
    optimal = model.optimal_actions(agent, mid).actions
    for k in optimal:
        if len(k) < 2:
            return False, []
        witness = None
        for h in sorted(k):
            if model.satisfies(mid, h, guard):
                continue
            for m2 in model.moments_from(mid, h)[1:]:
                if len(model.actions_at(agent, m2)) < 2:
                    continue
                later_optimal = model.optimal_actions(agent, m2).actions
                if all(h not in cell for cell in later_optimal):
                    witness = (k, h, m2)
                    break
            if witness:
                break
        if witness is None:
            return False, []
        witnesses.append(witness)
    return True, witnesses
