"""Explicit finite-depth utilitarian stit models and their satisfaction relation.

A model is a finite branching-time tree of moments, a set of histories
(root-to-leaf paths) each carrying a utility value, a per-agent choice
partition of the histories through each moment, and a labeling of
(moment, history) pairs with atoms.  Histories conceptually extend forever:
the leaf's label repeats, so temporal operators are decided on the
ultimately-constant extension.

Evaluation is bit-parallel, on the bit index of ``model_index`` that
``validate`` or the first evaluation builds.  Each formula is evaluated once
per moment into one int, the mask of the histories of H_m at which it holds.
Connectives are &, | and ^ within H_m.  X, X^n, F[lo:hi] and BR[n] run
their unfolding backwards over levels of next moments that all the asked
moments share.  With every history path linked the H_m of one depth are
disjoint, so U, R, F and G keep one mask per depth, filled deepest first
over the asked moments' subtrees; a broken path makes them sweep.  A and
E are all or nothing over H_m.  cstit, dstit and oughts compare choice-cell
masks with the body's mask, and dominance compares the least and greatest
values of each (cell, background state) pair, read off its lowest and
highest set bit.  ``satisfies`` is then a bit test and ``extension`` turns
a mask back into ids.  The cost is O(moments x subformulas) big-int
operations, not one truth value per history.

The index and the masks live on the model instance only.  So validation
and evaluation write to the model: one instance must not be validated or
evaluated from several threads at once (give each thread its own
``copy.deepcopy``, cheap before the index is built, or hold a lock), and a
model must not be changed once its index is built, or the index and its
masks go stale.  The structural accessors only read.
"""

from __future__ import annotations

import functools
import itertools
import json
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import formula as fm
from .errors import (
    GrammarError, ModelError, _as_rational, _require_fields, _require_unique,
    read_json)
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
        history ids); labels: mapping (moment id, history id) -> atoms, "*"
        standing for every history through the moment."""
        self.agents = list(agents)
        self.atoms = list(atoms)
        self.moments: dict[int, Moment] = {}
        parents = {int(mid): (None if par is None else int(par))
                   for mid, par in moments}
        *_, paths = self._tree = self._walk(parents)
        for mid, par in parents.items():
            self.moments[mid] = Moment(mid, par, len(paths[mid]) - 1)
        self.histories: dict[str, History] = {
            hid: History(hid, tuple(int(m) for m in ms),
                         _as_rational(v, "utility value", ModelError))
            for hid, ms, v in histories}
        self.choices: dict[tuple[str, int], tuple[frozenset, ...]] = {
            (agent, int(mid)): tuple(frozenset(cell) for cell in cells)
            for (agent, mid), cells in dict(choices).items()}
        self._labels: dict[tuple[int, str], frozenset] = {
            (int(mid), hid): frozenset(av)
            for (mid, hid), av in dict(labels).items()}
        grouped: dict[int, set] = {m: set() for m in self.moments}
        for h in self.histories.values():
            for mid in h.moments:
                if mid in grouped:
                    grouped[mid].add(h.id)
        self._through = {m: frozenset(hs) for m, hs in grouped.items()}
        self._ix = None  # evaluation index, built on first use
        self._warned_atoms: set = set()

    @staticmethod
    def _walk(parents):
        """A depth-first walk down from the moments whose parent is not
        declared: the reversed pre-order (successors first), each moment's
        block (its position there and its subtree's size) and its path from
        its first declared ancestor.  A moment never reached is on or below
        a cycle; the first one in declaration order is named."""
        children = {}
        for mid, p in parents.items():
            children.setdefault(p if p in parents else None, []).append(mid)
        order, stack, paths = [], list(children.get(None, ())), {}
        while stack:
            mid = stack.pop()
            order.append(mid)
            stack += children.get(mid, ())
            paths[mid] = paths.get(parents[mid], ()) + (mid,)
        for mid in parents:
            if mid not in paths:
                raise ModelError(f"cyclic parent chain at moment {mid}")
        order.reverse()
        size, block = dict.fromkeys(order, 1), {}
        for i, mid in enumerate(order):
            block[mid] = (i, size[mid])
            if parents[mid] in size:
                size[parents[mid]] += size[mid]
        return order, block, paths

    # -- basic structure ----------------------------------------------------

    def histories_through(self, mid) -> frozenset:
        """H_m: ids of the histories passing through the moment."""
        return self._through[self._check_moment(mid)]

    @functools.cached_property
    def labels(self) -> dict[tuple[int, str], frozenset]:
        """labels, each "*" entry spelled out in history order, as loaded."""
        through: dict[int, list] = {}
        for h in self.histories.values():
            for mid in h.moments:  # a repeat adds nothing below
                through.setdefault(mid, []).append(h.id)
        out = {}
        for (mid, hid), atoms in self._labels.items():
            for h in through.get(mid, ()) if hid == "*" else (hid,):
                out[mid, h] = out.get((mid, h), frozenset()) | atoms
        return out

    def label(self, mid, hid) -> frozenset:
        on = hid in self.histories and mid in self.histories[hid].moments
        return self._labels.get((mid, hid), frozenset()) | self._labels.get(
            (mid, "*") if on else None, frozenset())

    @functools.cached_property
    def _hpos(self):  # per history, {moment: its last index on the path}
        return {h.id: {mid: i for i, mid in enumerate(h.moments)}
                for h in self.histories.values()}

    def step(self, mid, hid) -> int:
        """Next moment of the history after mid; the leaf repeats (stutter)."""
        rest = self.moments_from(mid, hid)
        return rest[1] if len(rest) > 1 else mid

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
        cells = (frozenset.intersection(*pick)
                 for pick in itertools.product(*per_agent))
        return tuple(cell for cell in dict.fromkeys(cells) if cell)

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
        ix = self._index()  # an id named twice in a cell counts once
        low, high = (ix.mask(set(k)) & restrict for k in (k_low, k_high))
        return spans_dominate(ix.spans(low, states), ix.spans(high, states))

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
            cells, th, masks = self.group_actions(agents, mid), self._through, []
            for cell in cells:  # next-moment groups that fill it, or its ids
                mask = sum(g for n, g in ix.succ[mid]
                           if n in th and th[n] <= cell)
                mask = mask if mask.bit_count() == len(cell) else ix.mask(cell)
                masks.append((mask, mask.bit_count() == len(cell)))
            hit = ix.cells[agents, mid] = (cells, masks)
        return hit

    def _background(self, agents, mid):
        """The background states' masks: the joint cells of the agents
        outside the group, or H_m alone when there are none."""
        others = tuple(a for a in self.agents if a not in agents)
        if others:
            return [mask for mask, _ in self._cells(others, mid)[1]]
        return [self._index().through[self._check_moment(mid)]]

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
            self._ix = ModelIndex(self.histories, self.moments, self._labels,
                                  *self._tree)
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
        if t is None:  # its masks per depth (see _unbounded)
            return self._ix.atoms.get(x.name) or [0] * len(self._ix.ends)
        col = self._ix.labelled.get(x.name, {})
        for m in ms:
            t[m] = col.get(m, 0)

    def _constant(self, x, ms, t):
        th, true = self._ix.through, type(x) is fm.TrueFormula
        if t is None:  # its masks per depth (see _unbounded)
            return [-1 if true else 0] * len(self._ix.ends)
        for m in ms:
            t[m] = th[m] if true else 0

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
        """X, X^n, F[lo:hi] and l BR[n] r by compile's recurrences, run
        backwards over levels (level 0 is ms, level k + 1 the next moments
        of level k): F[lo:hi] o = X^lo (o | X (o | ...)) and
        l BR[n] r = l | (r & X (l BR[n-1] r)).  The levels stop after hi
        steps or once no history moves, where X^j o = F[a:b] o = o and
        l BR[j] r = l | r; o is read from level min(lo, last) on."""
        op = type(x)
        if op is fm.Next:
            lo = hi = 1
        elif op is fm.NextPow:
            lo = hi = x.steps
        elif op is fm.EventuallyBounded:
            lo, hi = x.lo, x.hi
        else:
            lo, hi = 0, x.bound
        succ = self._ix.succ
        levels = [ms]
        while len(levels) <= hi:
            nxt = list(dict.fromkeys(n for m in levels[-1] for n, _ in succ[m]))
            # a level where no history moves is its own next level
            if nxt == levels[-1] and all(n == m for m in nxt
                                         for n, _ in succ[m]):
                break
            levels.append(nxt)
        last = len(levels) - 1
        reached = dict.fromkeys(itertools.chain(
            *levels[0 if op is fm.BoundedRelease else min(lo, last):]))
        if op is fm.BoundedRelease:
            lt, rt = self._table(x.left, reached), self._table(x.right, reached)
            e = {m: lt[m] | rt[m] for m in levels[last]}
            for level in reversed(levels[:last]):
                e = {m: lt[m] | (rt[m] & along(succ[m], e)) for m in level}
        else:
            o = self._table(x.operand, reached)
            e = {m: o[m] for m in levels[last]}
            for k in range(last - 1, -1, -1):
                e = {m: along(succ[m], e) | (o[m] if k >= lo else 0)
                     for m in levels[k]}
        t.update(e)

    def _unbounded(self, x, ms, t):
        """U, R, F and G (F r is true U r, G r false R r): masks per depth
        if no path is broken (ModelIndex.fill), returned if t is None."""
        op, ix = type(x), self._ix
        release = op is fm.Release or op is fm.Always
        ys = (x.left, x.right) if op is fm.Until or op is fm.Release else (
            _FALSE if release else _TRUE, x.operand)
        if ix.broken:
            order = ix.reach(ms, t)
            lt, rt = self._table(ys[0], order), self._table(ys[1], order)
            return ix.sweep(order, lt, rt, t, release)
        depth, th, n = ix.depth, ix.through, len(ix.ends)
        lv, cov = ix.levels.get(x) or ix.levels.setdefault(
            x, ([0] * n, [0] * n))
        todo = [m for m in ms if th[m] & ~cov[depth[m]]]
        if todo:
            got = []
            for y in ys:  # a loop, not _table: one frame per nesting level
                if type(y) in _LEVELLED:
                    got.append(_EVALUATORS[type(y)](self, y, todo, None))
                    continue
                got.append([0] * n)  # by moment, over todo's blocks
                for m, b in self._table(y, ix.reach(todo, ())).items():
                    got[-1][depth[m]] |= b
            ix.fill(lv, cov, todo, *got, release)
        if t is None:
            return lv
        for m in ms:
            t[m] = lv[depth[m]] & th[m]

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
        ix = self._index()
        broken = ix.mask(ix.broken)
        out.extend(Violation("history-path", None, *ix.broken[h])
                   for h in self.histories if h in ix.broken)
        leaves = set(self.moments) - {m.parent for m in self.moments.values()}
        for leaf in sorted(leaves):  # a linked history through it ends there
            if not ix.through[leaf] & ~broken:
                out.append(Violation("leaf-covered", None, leaf,
                                     "no history ends at this leaf"))
        empty = Counter()  # moment -> empty cells in choices of 2+ cells
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
                    empty[mid] += len(cells) > 1
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
        out.extend(self._validate_independence(empty))
        out.extend(self._validate_undivided(ix))
        out.extend(Violation("labels", None, mid, f"label entry for {hid} "
                             "names no history through a declared moment")
                   for mid, hid in self._labels  # in entry order
                   if mid not in self.moments
                   or hid != "*" and hid not in self._through[mid])
        return out

    def _validate_independence(self, empty):
        out = []
        declared = {mid for _, mid in self.choices}
        for mid in filter(declared.__contains__, self.moments):
            if len(self.agents) == 1:  # only its empty cells break it
                picks = [(frozenset(),)] * empty[mid]
            else:
                per_agent = [self.actions_at(a, mid) for a in self.agents]
                picks = itertools.product(*per_agent) if any(
                    len(cells) > 1 for cells in per_agent) else ()
            for pick in picks:
                if not frozenset.intersection(*pick):
                    out.append(Violation(
                        "independence", None, mid,
                        "a selection of one action per agent has empty "
                        "intersection: "
                        + " x ".join(str(sorted(c)) for c in pick)))
        return out

    def _validate_undivided(self, ix):
        out, th, bad = [], self._through, ix.broken
        for (agent, mid), cells in sorted(self.choices.items()):
            if mid not in self.moments:
                continue
            # when no cell holds a history with a broken path, two of its
            # histories share a later moment iff they pass the same child,
            # and the histories through a child n of mid are th[n]
            if not (bad and any(not c.isdisjoint(bad) for c in cells)) and all(
                    sum(not c.isdisjoint(th.get(n, ())) for c in cells) <= 1
                    for n, _ in ix.succ[mid] if n != mid):
                continue
            cell_of = {h: i for i, cell in enumerate(cells) for h in cell}
            # only histories that reach a common moment after mid can break
            # the axiom, so pairs are drawn from those groups alone, and each
            # pair drawn across two cells breaks it
            reach: dict[int, set] = {}
            for h in cell_of:
                pos = self._hpos[h].get(mid) if h in self._hpos else None
                if pos is not None:
                    for m in self.histories[h].moments[pos + 1:]:
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
        labels = {}  # a "*" entry stays one entry, per moment
        for e in _entries(data, "labels",
                          {"moment": int, "history": str, "atoms": [str]}):
            key = (int(e["moment"]), e["history"])
            labels[key] = labels.get(key, frozenset()).union(e["atoms"])
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
_TRUE, _FALSE = fm.TrueFormula(), fm.FalseFormula()  # F r, G r's left
_LEVELLED = {fm.Atom, fm.TrueFormula, fm.FalseFormula, fm.Until, fm.Release,
             fm.Eventually, fm.Always}  # evaluators that give masks per depth


def _entries(data, name, fields):
    for e in data[name]:
        _require_fields(e, fields, name, ModelError)
        yield e


def load_model(path) -> ExplicitStitModel:
    with open(path, "r", encoding="utf-8") as fp:
        data = read_json(fp.read())
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
