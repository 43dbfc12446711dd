"""Explicit finite-depth utilitarian stit models and their satisfaction relation.

A model is a finite branching-time tree of moments, a set of histories
(root-to-leaf paths) each carrying a utility value, a per-agent choice
partition of the histories through each moment, and a labeling of
(moment, history) pairs with atoms.  Histories conceptually extend forever:
the leaf's label repeats, so temporal operators are decided on the
ultimately-constant extension.

Evaluation is bit-parallel, on the history bit index of ``model_index``
that the first evaluation builds.  Each formula is evaluated once per moment
into one int, the mask of the histories of H_m at which it holds.
Connectives are &, | and ^ within H_m.  X, X^n, F[lo:hi] and BR[n] unfold
the next-moment groups.  U, R, F and G fill the moments reachable from the
asked ones that are not yet filled in one pass over the index's fixed
order of moments, successors first, with no recursion over moments.  A and
E are all or nothing over H_m.  cstit, dstit and oughts compare choice-cell
masks with the body's mask, and dominance compares the least and greatest
values of each (cell, background state) pair, read off its lowest and
highest set bit.  ``satisfies`` is then a bit test and ``extension`` turns
a mask back into ids.  The cost is O(moments x subformulas) big-int
operations, not one truth value per history.

The index and the masks live on the model instance only.  So evaluation
writes to the model: one instance must not be evaluated from several
threads at once (give each thread its own ``copy.deepcopy``, cheap before
the first evaluation, or hold a lock), and a model must not be changed
after its first evaluation, or its masks go stale.  ``validate`` and the
structural accessors only read.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from .errors import (
    GrammarError, ModelError, _as_rational, _require_fields, _require_unique)
from .model_index import ModelIndex, along, spans_dominate


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
        depths = self._depths(parents)
        for mid, par in parents.items():
            self.moments[mid] = Moment(mid, par, depths[mid])
        self.histories: dict[str, History] = {
            hid: History(hid, tuple(int(m) for m in ms),
                         _as_rational(v, "utility value", ModelError))
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
        self._ix = None  # evaluation index, built on first use
        self._warned_atoms: set = set()

    @staticmethod
    def _depths(parents):
        """Each moment's depth: the number of its ancestors that are
        declared moments.  Each moment is walked over once."""
        depths = {}
        for mid in parents:
            path, on_path, cur = [], set(), mid
            while cur not in depths:
                par = parents[cur]
                if par is None or par not in parents:
                    depths[cur] = 0
                    break
                if cur in on_path:
                    raise ModelError(f"cyclic parent chain at moment {mid}")
                on_path.add(cur)
                path.append(cur)
                cur = par
            depth = depths[cur]
            for m in reversed(path):
                depth += 1
                depths[m] = depth
        return depths

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

    def dominates(self, agents, mid, k_low, k_high, condition=None):
        """True iff k_high strictly dominates k_low at the moment: weakly
        preferable within every background state and strictly so in one."""
        states = self._background(self._as_group(agents), mid)
        restrict = -1 if condition is None else self._mask(mid, condition)
        ix = self._index()
        return spans_dominate(ix.spans(ix.mask(k_low) & restrict, states),
                              ix.spans(ix.mask(k_high) & restrict, states))

    def optimal_actions(self, agents, mid, condition=None) -> ActionSet:
        """Un-dominated actions of the agent (or group) at the moment.

        With a condition B, value comparisons are restricted to B-satisfying
        histories and actions disjoint from |B|_m are not candidates; an
        unsatisfiable condition is an error rather than a vacuous answer.
        """
        agents = self._as_group(agents)
        self._check_moment(mid)
        cells, _ = self._cells(agents, mid)
        return ActionSet(mid, agents, tuple(
            cells[i] for i in self._optimal(agents, mid, condition)))

    def _optimal(self, agents, mid, condition):
        """Indices of the un-dominated cells among self._cells(agents, mid).
        The background states and the condition's mask are computed once,
        and each (cell, state) pair is reduced to its least and greatest
        value before any two cells are compared."""
        ix = self._index()
        key = (agents, mid, condition)
        hit = ix.optimal.get(key)
        if hit is not None:
            return hit
        _, masks = self._cells(agents, mid)
        restrict = -1
        candidates = range(len(masks))
        if condition is not None:
            restrict = self._mask(mid, condition)
            if not restrict:
                raise ModelError(f"condition unsatisfiable at moment {mid}")
            candidates = [i for i in candidates if masks[i][0] & restrict]
        states = self._background(agents, mid)
        spans = {i: ix.spans(masks[i][0] & restrict, states) for i in candidates}
        out = ix.optimal[key] = tuple(
            i for i in candidates
            if not any(j != i and spans_dominate(spans[i], spans[j])
                       for j in candidates))
        return out

    def _cells(self, agents, mid):
        """The group's joint cells at the moment, each with its mask and
        whether every id in it names a history (a cell naming an unknown
        history guarantees nothing)."""
        ix = self._index()
        hit = ix.cells.get((agents, mid))
        if hit is None:
            cells = self.group_actions(agents, mid)
            masks = [(mask, mask.bit_count() == len(cell))
                     for cell, mask in zip(cells, map(ix.mask, cells))]
            hit = ix.cells[agents, mid] = (cells, masks)
        return hit

    def _background(self, agents, mid):
        ix = self._index()
        hit = ix.states.get((agents, mid))
        if hit is None:
            hit = ix.states[agents, mid] = [
                ix.mask(s) for s in self.background_states(agents, mid).states]
        return hit

    # -- satisfaction --------------------------------------------------------

    def satisfies(self, mid, hid, x) -> bool:
        """Truth of a formula, obligation, or ought statement at mid/hid."""
        self._check_moment(mid)
        self._check_history(hid)
        if hid not in self.histories_through(mid):
            raise ModelError(f"history {hid!r} does not pass through moment {mid}")
        return bool(self._mask(mid, x) & self._index().bit[hid])

    def satisfies_path(self, mid, hid, f) -> bool:
        """Pure-CTL* entry point; rejects stit operators and oughts."""
        if not isinstance(f, fm.Formula) or fm.contains_stit(f):
            raise GrammarError("satisfies_path needs a stit-free formula",
                               production="pure-ctl-star")
        return self.satisfies(mid, hid, f)

    def extension(self, mid, a) -> frozenset:
        """|A|_m: the histories through mid at which A holds."""
        self._check_moment(mid)
        return frozenset(self._index().ids_of(self._mask(mid, a)))

    def _index(self):
        if self._ix is None:
            self._ix = ModelIndex(self.histories, self._hpos, self.moments,
                                  self.labels)
        return self._ix

    def _mask(self, mid, x):
        return self._table(x, (mid,))[mid]

    def _table(self, x, moments):
        """x's memo of masks by moment, filled at least at the moments."""
        if type(x) is fm.Plain:  # an obligation leaf is its formula
            x = x.formula
        ix = self._index()
        t = ix.masks.get(x)
        if t is None:
            t = ix.masks[x] = {}
        todo = [m for m in moments if m not in t]
        if todo:
            evaluate = _EVALUATORS.get(type(x))
            if evaluate is None:
                raise ModelError(f"cannot evaluate {type(x).__name__}")
            evaluate(self, x, todo, t)
        return t

    # Each evaluator fills t[m], the mask of the histories of H_m at which x
    # holds, for every moment m in ms.

    def _atom(self, x, ms, t):
        if x.name not in self.atoms and x.name not in self._warned_atoms:
            self._warned_atoms.add(x.name)
            warnings.warn(f"atom {x.name!r} is not declared in the model; "
                          f"it is false everywhere", stacklevel=2)
        col = self._ix.labelled.get(x.name, {})
        for m in ms:
            t[m] = col.get(m, 0)

    def _constant(self, x, ms, t):
        th = self._ix.through
        for m in ms:
            t[m] = th[m] if type(x) is fm.TrueFormula else 0

    def _not(self, x, ms, t):
        o = self._table(x.operand if type(x) is fm.Not else x.body, ms)
        th = self._ix.through
        for m in ms:
            t[m] = th[m] ^ o[m]

    def _connective(self, x, ms, t):
        lt, rt = self._table(x.left, ms), self._table(x.right, ms)
        th = self._ix.through
        op = type(x)
        for m in ms:
            if op is fm.And:
                t[m] = lt[m] & rt[m]
            elif op is fm.Or:
                t[m] = lt[m] | rt[m]
            else:
                t[m] = (th[m] ^ lt[m]) | rt[m]

    def _bounded(self, x, ms, t):
        """X, X^n, F[lo:hi] and l BR[n] r: the next-moment groups are
        unfolded from each moment for the operator's bounded horizon."""
        op = type(x)
        if op is fm.Next:
            lo = hi = 1
        elif op is fm.NextPow:
            lo = hi = x.steps
        elif op is fm.EventuallyBounded:
            lo, hi = x.lo, x.hi
        else:
            lo, hi = 0, x.bound
        fronts = {m: self._ix.fronts(m, lo, hi) for m in ms}
        reached = list(dict.fromkeys(
            c for fs in fronts.values() for front in fs for c in front))
        if op is not fm.BoundedRelease:
            o = self._table(x.operand, reached)
            for m, fs in fronts.items():
                out = 0
                for front in fs:
                    out |= along(front, o)
                t[m] = out
            return
        # l BR[N] r = l | (r & X l) | ... | (r & ... & X^(N-1) r & X^N l)
        #               | (r & X r & ... & X^N r)
        lt, rt = self._table(x.left, reached), self._table(x.right, reached)
        for m, fs in fronts.items():
            out, alive = 0, self._ix.through[m]  # alive: r held at every step
            for front in fs:
                out |= alive & along(front, lt)
                alive &= along(front, rt)
            t[m] = out | alive

    def _unbounded(self, x, ms, t):
        """U, R, F and G in one pass over the moments reachable from ms
        that t lacks, successors first; a history that stutters at its
        leaf ends an Until unfulfilled and a Release kept."""
        op = type(x)
        if op is fm.Eventually:
            left, right = fm.TRUE, x.operand
        elif op is fm.Always:
            left, right = fm.FALSE, x.operand
        else:
            left, right = x.left, x.right
        ix, reach, todo = self._ix, set(ms), list(ms)
        while todo:
            for n, _ in ix.succ[todo.pop()]:
                if n not in reach and n not in t:
                    reach.add(n)
                    todo.append(n)
        order = [m for m in ix.order if m in reach]
        lt, rt = self._table(left, order), self._table(right, order)
        ix.sweep(order, lt, rt, t, release=op is fm.Release or op is fm.Always)

    def _path_quantifier(self, x, ms, t):
        o = self._table(x.operand, ms)
        th = self._ix.through
        for m in ms:
            self._check_moment(m)
            if type(x) is fm.ForallPaths:
                t[m] = th[m] if o[m] == th[m] else 0
            else:
                t[m] = th[m] if o[m] else 0

    def _stit(self, x, ms, t):
        body = self._table(x.body, ms)
        th = self._ix.through
        for m in ms:
            self._check_moment(m)
            if type(x) is not fm.Cstit and body[m] == th[m]:
                t[m] = 0  # settled, so not deliberately seen to
            else:
                t[m] = self._guaranteed(x.agent, m, body[m])

    def _guaranteed(self, agent, mid, ext):
        """The histories of H_m whose cell of the agent lies inside ext.
        A history belongs to the first cell that contains it."""
        ix = self._index()
        _, masks = self._cells(self._as_group(agent), mid)
        seen = out = 0
        for mask, named in masks:
            if named and not mask & ~ext:
                out |= mask & ~seen
            seen |= mask
        missing = ix.through[mid] & ~seen
        if missing:
            raise ModelError(f"choice cells of {agent!r} at moment {mid} "
                             f"do not cover {min(ix.ids_of(missing))!r}")
        return out

    def _ought(self, x, ms, t):
        th = self._ix.through
        agents = self._as_group(x.agents)
        for m in ms:
            if x.condition is not None and not self._mask(m, x.condition):
                t[m] = th[m]  # no conditionally optimal actions: vacuous
                continue
            self._check_moment(m)
            optimal = self._optimal(agents, m, x.condition)
            body = self._mask(m, x.body)
            _, masks = self._cells(agents, m)
            holds = all(named and not mask & ~body
                        for mask, named in map(masks.__getitem__, optimal))
            t[m] = th[m] if holds else 0

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check every structural axiom; an empty list means the model is valid."""
        out = []
        roots = [m.id for m in self.moments.values() if m.parent is None]
        if len(roots) != 1 or (roots and roots[0] != 0):
            out.append(Violation("root", None, None,
                                 f"expected a unique root moment 0, found {roots}"))
        for m in self.moments.values():
            if m.parent is not None and m.parent not in self.moments:
                out.append(Violation("parent", None, m.id,
                                     f"parent {m.parent} does not exist"))
        leaves = {m for m in self.moments if self.is_leaf(m)}
        covered = set()
        linked = set()  # histories whose every step goes to a child
        for h in self.histories.values():
            ms = h.moments
            if not ms or not all(mid in self.moments for mid in ms):
                out.append(Violation("history-path", None, None,
                                     f"history {h.id} mentions unknown moments"))
                continue
            if self.moments[ms[0]].parent is not None:
                out.append(Violation("history-path", None, ms[0],
                                     f"history {h.id} does not start at the root"))
                continue
            for a, b in zip(ms, ms[1:]):
                if self.moments[b].parent != a:
                    out.append(Violation(
                        "history-path", None, b,
                        f"history {h.id}: {b} is not a child of {a}"))
                    break
            else:
                linked.add(h.id)
                covered.add(ms[-1])
                if ms[-1] not in leaves:
                    out.append(Violation(
                        "history-path", None, ms[-1],
                        f"history {h.id} ends at a non-leaf moment"))
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
        out.extend(self._validate_undivided(linked))
        return out

    def _validate_independence(self):
        out = []
        for mid in self.moments:
            per_agent = [self.actions_at(a, mid) for a in self.agents]
            if any(len(cells) > 1 for cells in per_agent):
                for pick in itertools.product(*per_agent):
                    # one agent: the pick's intersection is its one cell
                    if not (pick[0] if len(pick) == 1
                            else frozenset.intersection(*pick)):
                        out.append(Violation(
                            "independence", None, mid,
                            "a selection of one action per agent has empty "
                            "intersection: "
                            + " x ".join(str(sorted(c)) for c in pick)))
        return out

    def _validate_undivided(self, linked):
        out = []
        for (agent, mid), cells in sorted(self.choices.items()):
            if mid not in self.moments:
                continue
            cell_of = {}
            for i, cell in enumerate(cells):
                for h in cell:
                    cell_of[h] = i
            # only histories that reach a common moment after mid can break
            # the axiom, so pairs are drawn from those groups alone, and each
            # pair drawn across two cells breaks it; when every step is to a
            # child, two histories share a later moment iff they share the
            # next one
            next_only = linked.issuperset(cell_of)
            reach: dict[int, set] = {}
            for h in cell_of:
                pos = self._hpos[h].get(mid) if h in self._hpos else None
                if pos is not None:
                    end = pos + 2 if next_only else None
                    for m in self.histories[h].moments[pos + 1:end]:
                        reach.setdefault(m, set()).add(h)
            pairs = set()
            for group in reach.values():
                if len({cell_of[h] for h in group}) > 1:
                    pairs.update(
                        (h1, h2)
                        for h1, h2 in itertools.combinations(sorted(group), 2)
                        if cell_of[h1] != cell_of[h2])
            out.extend(Violation(
                "undivided", agent, mid,
                f"histories {h1} and {h2} share a later moment but "
                f"sit in different actions") for h1, h2 in sorted(pairs))
        return out

    # -- serialization -------------------------------------------------------

    _FIELDS = {"agents": [str], "atoms": [str], "moments": list,
               "histories": list, "choices": list, "labels": list}

    @classmethod
    def from_json(cls, data: dict) -> "ExplicitStitModel":
        _require_fields(data, cls._FIELDS, "model", ModelError)
        moments = [(e["id"], e["parent"]) for e in _entries(
            data, "moments", {"id": int, "parent": (int, type(None))})]
        histories = [(e["id"], e["moments"], e["value"]) for e in _entries(
            data, "histories", {"id": str, "moments": [int], "value": None})]
        for what, entries in (("moment", moments), ("history", histories)):
            _require_unique([e[0] for e in entries], what + " id", ModelError)
        choices = {}
        for e in _entries(data, "choices",
                          {"agent": str, "moment": int, "actions": [[str]]}):
            key = (e["agent"], int(e["moment"]))
            if key in choices:
                raise ModelError(f"duplicate choices entry for {key}")
            choices[key] = [list(cell) for cell in e["actions"]]
        history_ids = [hid for hid, _, _ in histories]
        moment_of_history = {hid: set(ms) for hid, ms, _ in histories}
        labels = {}
        for e in _entries(data, "labels",
                          {"moment": int, "history": str, "atoms": [str]}):
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


_EVALUATORS = {kind: method for kinds, method in (
    ((fm.Atom,), ExplicitStitModel._atom),
    ((fm.TrueFormula, fm.FalseFormula), ExplicitStitModel._constant),
    ((fm.Not, fm.NegatedObligation), ExplicitStitModel._not),
    ((fm.And, fm.Or, fm.Implies), ExplicitStitModel._connective),
    ((fm.Next, fm.NextPow, fm.EventuallyBounded, fm.BoundedRelease),
     ExplicitStitModel._bounded),
    ((fm.Until, fm.Release, fm.Eventually, fm.Always),
     ExplicitStitModel._unbounded),
    ((fm.ForallPaths, fm.ExistsPaths), ExplicitStitModel._path_quantifier),
    ((fm.Cstit, fm.Dstit, fm.DstitOf), ExplicitStitModel._stit),
    ((fm.OughtStatement,), ExplicitStitModel._ought),
) for kind in kinds}


def _entries(data, name, fields):
    for e in data[name]:
        _require_fields(e, fields, name, ModelError)
        yield e


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
