"""Explicit finite-depth utilitarian stit models and their satisfaction relation.

A model is a finite branching-time tree of moments, a set of histories
(root-to-leaf paths) each carrying a utility value, a per-agent choice
partition of the histories through each moment, and a labeling of
(moment, history) pairs with atoms.  Histories conceptually extend forever:
the leaf's label repeats, so temporal operators are decided on the
ultimately-constant extension.  A history is a maximal path of the tree,
so a model with another path is not evaluated: the evaluation entry points
raise ModelError with ``validate``'s first history-path violation.

Evaluation is bit-parallel, on the bit index of ``model_index`` that
``validate`` or the first evaluation builds from the model's one walk of
its moments (each depth found once, a path kept for each leaf alone).
``validate`` passes a choice whose H_m holds no broken history on masks
when its cells are non-empty, their sizes sum to |H_m| and the next-moment
groups lying whole in them OR to H_m: they are then disjoint unions of
whole groups, so partition and undivided hold.  Other choices are checked
by sets and by pairs of histories sharing a later moment.  The H_m of one
depth are disjoint, so a formula keeps one int per depth, the mask of the
histories there at which it holds, and moment m reads it ANDed with H_m:
atoms and constants as whole columns of the index, any other formula
memoised with the histories it covers, evaluated only where it does not
cover an asked moment.  Connectives are &, | and ^ within H_m.  X, X^n,
F[lo:hi] and BR[n] run their unfolding (formula._UNFOLDS) backwards over
the depths; U, R, F and G fill deepest first over the asked moments'
subtrees.  A and E are all or nothing over H_m.  cstit, dstit and oughts
compare choice-cell masks with the body's mask, and dominance compares
the least and greatest values of each (cell, background state) pair, read
off its lowest and highest set bit.  ``satisfies`` is then a bit test and
``extension`` turns a mask back into ids.  The cost is O(moments x
subformulas) big-int operations, not one truth value per history.

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
from .model_index import ModelIndex, spans_dominate


@dataclass(frozen=True, slots=True)
class Moment:
    id: int
    parent: int | None
    depth: int


@dataclass(frozen=True, slots=True)
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
        self._tree, self._tops = self._walk(parents)
        for mid, par in parents.items():
            self.moments[mid] = Moment(mid, par, self._tree[2][mid])
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
        """A depth-first walk down from the tops, the moments whose parent
        is not declared: the reversed pre-order (successors first), each
        moment's block (its position there and its subtree's size), its
        depth below its top and, for a leaf alone, its path from its top;
        and the tops in declaration order.  A moment never reached is on or
        below a cycle; the first one in declaration order is named."""
        children = {}
        for mid, p in parents.items():
            children.setdefault(p if p in parents else None, []).append(mid)
        order, stack, depth, paths = [], list(children.get(None, ())), {}, {}
        path = []  # the moments down to the one popped last
        while stack:
            mid = stack.pop()
            order.append(mid)
            depth[mid] = d = depth.get(parents[mid], -1) + 1
            path[d:] = [mid]
            if mid in children:
                stack += children[mid]
            else:
                paths[mid] = tuple(path)
        for mid in parents:
            if mid not in depth:
                raise ModelError(f"cyclic parent chain at moment {mid}")
        order.reverse()
        size, block = dict.fromkeys(order, 1), {}
        for i, mid in enumerate(order):
            block[mid] = (i, size[mid])
            if parents[mid] in size:
                size[parents[mid]] += size[mid]
        return (order, block, depth, paths), children.get(None, [])

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
        ix = self._linked()  # an id named twice in a cell counts once
        states = self._background(self._as_group(agents), mid)
        restrict = -1 if condition is None else self._mask(mid, condition)
        low, high = (ix.mask(set(k)) & restrict for k in (k_low, k_high))
        return spans_dominate(ix.spans(low, states), ix.spans(high, states))

    def optimal_actions(self, agents, mid, condition=None) -> ActionSet:
        """Un-dominated actions of the agent (or group) at the moment.

        With a condition B, value comparisons are restricted to B-satisfying
        histories and actions disjoint from |B|_m are not candidates; an
        unsatisfiable condition is an error rather than a vacuous answer.
        """
        self._linked()
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
        ix = self._ix
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
        ix = self._ix
        hit = ix.cells.get((agents, mid))
        if hit is None:
            cells, masks = self.group_actions(agents, mid), []
            for cell in cells:  # next-moment groups that fill it, or its ids
                mask = self._whole_groups(mid, cell)
                mask = mask if mask.bit_count() == len(cell) else ix.mask(cell)
                masks.append((mask, mask.bit_count() == len(cell)))
            hit = ix.cells[agents, mid] = (cells, masks)
        return hit

    def _whole_groups(self, mid, cell):
        """The OR of mid's next-moment groups lying whole in the cell."""
        th, mask = self._through, 0
        for n, g in self._ix.succ[mid]:
            if th[n] <= cell:
                mask |= g
        return mask

    def _background(self, agents, mid):
        """The background states' masks: the joint cells of the agents
        outside the group, or H_m alone when there are none."""
        others = tuple(a for a in self.agents if a not in agents)
        if others:
            return [mask for mask, _ in self._cells(others, mid)[1]]
        return [self._ix.through[self._check_moment(mid)]]

    # -- satisfaction --------------------------------------------------------

    def satisfies(self, mid, hid, x) -> bool:
        """Truth of a formula, obligation, or ought statement at mid/hid."""
        ix = self._linked()
        self._check_moment(mid)
        self._check_history(hid)
        if hid not in self.histories_through(mid):
            raise ModelError(f"history {hid!r} does not pass through moment {mid}")
        return bool(self._mask(mid, x) & ix.bit[hid])

    def satisfies_path(self, mid, hid, f) -> bool:
        """Pure-CTL* entry point; rejects stit operators and oughts."""
        if not isinstance(f, fm.Formula) or fm.contains_stit(f):
            raise GrammarError("satisfies_path needs a stit-free formula",
                               production="pure-ctl-star")
        return self.satisfies(mid, hid, f)

    def extension(self, mid, a) -> frozenset:
        """|A|_m: the histories through mid at which A holds."""
        self._check_moment(mid)
        return frozenset(self._linked().ids_of(self._mask(mid, a)))

    def _index(self):
        if self._ix is None:
            self._ix = ModelIndex(self.histories, self.moments, self._labels,
                                  *self._tree)
        return self._ix

    def _linked(self):
        """The index, refusing a broken history path before any mask."""
        for fault in self._index().broken.values():
            raise ModelError(str(Violation("history-path", None, *fault)))
        return self._ix

    def _mask(self, mid, x):
        ix = self._ix
        return self._table(x, (mid,))[ix.depth[mid]] & ix.through[mid]

    def _table(self, x, moments):
        """x's masks per depth, right at least on the moments' H_m: an atom's
        or a constant's column, or x's memo (lv, cov), filled at the moments
        whose H_m cov does not cover (an empty one never is, so a refusal
        there still raises)."""
        if type(x) is fm.Plain:  # an obligation leaf is its formula
            x = x.formula
        if type(x) in _COLUMNS:
            return self._column(x)
        ix = self._ix
        hit = ix.masks.get(x)
        if hit is None:
            if type(x) not in _EVALUATORS:
                raise ModelError(f"cannot evaluate {type(x).__name__}")
            hit = ix.masks[x] = ([0] * len(ix.ends), [0] * len(ix.ends))
        lv, cov = hit
        depth, th = ix.depth, ix.through
        todo = []
        for m in moments:
            if not th[m] & cov[depth[m]]:
                todo.append(m)
        if todo:
            _EVALUATORS[type(x)](self, x, todo, lv, cov)
            for m in todo:
                cov[depth[m]] |= th[m]
        return lv

    def _column(self, x):
        """An atom's or a constant's masks at every depth, from the index."""
        ix = self._ix
        if type(x) is not fm.Atom:
            return [-1 if type(x) is fm.TrueFormula else 0] * len(ix.ends)
        if x.name not in self.atoms and x.name not in self._warned_atoms:
            self._warned_atoms.add(x.name)
            warnings.warn(f"atom {x.name!r} is not declared in the model; "
                          f"it is false everywhere", stacklevel=2)
        return ix.atoms.get(x.name) or [0] * len(ix.ends)

    # Each evaluator ORs into lv[depth[m]], for every moment m in ms, the
    # mask of the histories of H_m at which x holds; _table then adds H_m
    # to cov (U, R, F and G cover the moments' subtrees).

    def _not(self, x, ms, lv, cov):
        o = self._table(x.operand if type(x) is fm.Not else x.body, ms)
        depth, th = self._ix.depth, self._ix.through
        for m in ms:
            lv[depth[m]] |= th[m] & ~o[depth[m]]

    def _connective(self, x, ms, lv, cov):
        lt, rt = self._table(x.left, ms), self._table(x.right, ms)
        depth, th = self._ix.depth, self._ix.through
        op = type(x)
        for m in ms:
            a, b = lt[depth[m]], rt[depth[m]]
            lv[depth[m]] |= th[m] & (a & b if op is fm.And else
                                     a | b if op is fm.Or else ~a | b)

    def _bounded(self, x, ms, lv, cov):
        """X, X^n, F[lo:hi] and l BR[n] r over the window (lo, hi) of
        formula._UNFOLDS (X is X^1), by compile's recurrence T_k = L_k |
        R_k & X T_k+1 (L_k from level lo on) run backwards per depth over
        levels (level 0 is ms, level k + 1 the next moments of level k):
        L = o and R = true for X^n o = F[n:n] o and F[lo:hi] o, L = l and
        R = r for l BR[n] r.  X T at depth d reads d + 1 (d1), or d (d0)
        where a history ends.  The levels stop after hi steps or once no history moves,
        where T = L, or l | r for BR."""
        op, ix = type(x), self._ix
        lo, hi = (1, 1) if op is fm.Next else fm._UNFOLDS[op](x)[:2]
        release = op is fm.BoundedRelease
        succ, ends = ix.succ, ix.ends
        levels = [ms]
        while len(levels) <= hi:
            nxt = list(dict.fromkeys(n for m in levels[-1] for n, _ in succ[m]))
            if nxt == levels[-1]:  # leaves alone: no history moves
                break
            levels.append(nxt)
        last = len(levels) - 1
        reached = dict.fromkeys(itertools.chain(*levels[min(lo, last):]))
        if release:
            lt, rt = self._table(x.left, reached), self._table(x.right, reached)
            e = [a | b for a, b in zip(lt, rt)]
        else:
            lt = e = self._table(x.operand, reached)
            rt = [-1] * len(ends)
        for k in range(last - 1, -1, -1):
            e = [r & (d1 & ~end | d0 & end) | (o if k >= lo else 0)
                 for r, d1, d0, end, o in zip(rt, e[1:] + [0], e, ends, lt)]
        depth, th = ix.depth, ix.through
        for m in ms:
            lv[depth[m]] |= e[depth[m]] & th[m]

    def _unbounded(self, x, ms, lv, cov):
        """U, R, F and G (F r is true U r, G r false R r): filled per depth
        (ModelIndex.fill) over ms's subtrees, the operands read over them."""
        op, ix = type(x), self._ix
        release = op is fm.Release or op is fm.Always
        ys = (fm._CONSTANTS[op], x.operand) if op in fm._CONSTANTS \
            else (x.left, x.right)
        got, reached = [], None
        for y in ys:  # a loop, not a comprehension: one frame per nesting
            if reached is None and type(y) not in _COLUMNS:
                reached = ix.reach(ms)
            got.append(self._table(y, reached))
        ix.fill(lv, cov, ms, *got, release)

    def _path_quantifier(self, x, ms, lv, cov):
        o = self._table(x.operand, ms)
        depth, th = self._ix.depth, self._ix.through
        for m in ms:
            held = o[depth[m]] & th[m]
            if held == th[m] if type(x) is fm.ForallPaths else held:
                lv[depth[m]] |= th[m]

    def _stit(self, x, ms, lv, cov):
        body = self._table(x.body, ms)
        depth, th = self._ix.depth, self._ix.through
        for m in ms:
            b = body[depth[m]] & th[m]  # dstit: false where it is settled
            if type(x) is fm.Cstit or b != th[m]:
                lv[depth[m]] |= self._guaranteed(x.agent, m, b)

    def _guaranteed(self, agent, mid, ext):
        """The histories of H_m whose cell of the agent lies inside ext.
        A history belongs to the first cell that contains it."""
        ix = self._ix
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

    def _ought(self, x, ms, lv, cov):
        depth, th = self._ix.depth, self._ix.through
        agents = self._as_group(x.agents)
        for m in ms:
            if x.condition is not None and not self._mask(m, x.condition):
                lv[depth[m]] |= th[m]  # no conditionally optimal actions
                continue
            optimal = self._optimal(agents, m, x.condition)
            body = self._mask(m, x.body)
            _, masks = self._cells(agents, m)
            if all(named and not mask & ~body
                   for mask, named in map(masks.__getitem__, optimal)):
                lv[depth[m]] |= th[m]

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check every structural axiom; an empty list means the model is
        valid.  It reads the walk and the index, with no pass of its own
        over moments, blocks or label entries."""
        out, parent = [], {m: self.moments[m].parent for m in self._tops}
        roots = [m for m, p in parent.items() if p is None]
        if len(roots) != 1 or (roots and roots[0] != 0):
            out.append(Violation("root", None, None,
                                 f"expected a unique root moment 0, found {roots}"))
        out.extend(Violation("parent", None, m, f"parent {p} does not exist")
                   for m, p in parent.items() if p is not None)
        ix = self._index()
        th, ids = ix.through, self._through
        out.extend(Violation("history-path", None, *fault)
                   for fault in ix.broken.values())
        out.extend(Violation("leaf-covered", None, m,  # no linked one ends
                             "no history ends at this leaf")
                   for m in sorted(self._tree[3]) if not th[m])
        by_sets, empty = [], Counter()  # empty: moment -> empty cells of 2+
        for (agent, mid), cells in sorted(self.choices.items()):
            if agent not in self.agents:
                out.append(Violation("partition", agent, mid, "unknown agent"))
                by_sets.append(((agent, mid), cells))
                continue
            if mid not in self.moments:
                out.append(Violation("partition", agent, mid, "unknown moment"))
                continue
            n = th[mid].bit_count()  # n < |H_m|: a broken one passes mid
            if n == len(ids[mid]) and all(cells) and \
                    sum(map(len, cells)) == n:
                union = 0  # the next-moment groups that lie in some cell
                for cell in cells:
                    union |= self._whole_groups(mid, cell)
                if union == th[mid]:  # disjoint ORs of whole groups: valid
                    continue
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
            if seen != ids[mid]:
                out.append(Violation(
                    "partition", agent, mid,
                    f"actions do not partition H_m: union {sorted(seen)} "
                    f"vs H_m {sorted(ids[mid])}"))
            by_sets.append(((agent, mid), cells))
        out.extend(self._validate_independence(+empty))
        out.extend(self._validate_undivided(by_sets))
        out.extend(Violation("labels", None, mid, f"label entry for {hid} "
                             "names no history through a declared moment")
                   for mid, hid in ix.stray)
        return out

    def _validate_independence(self, empty):
        out, one = [], len(self.agents) == 1
        declared = empty if one else {mid for _, mid in self.choices}
        for mid in filter(declared.__contains__, declared and self.moments):
            if one:  # only its empty cells break it
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

    def _validate_undivided(self, choices):
        out = []
        for (agent, mid), cells in choices:
            if mid not in self.moments:
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
_COLUMNS = {fm.Atom, fm.TrueFormula, fm.FalseFormula}  # read off the index


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
