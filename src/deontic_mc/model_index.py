"""The bit index that explicit stit models evaluate formulas on.

Bit i of a mask stands for the i-th history in (value, id) order, so the
lowest and the highest set bit of a mask carry the least and the greatest
value among its histories.  Per moment the index keeps H_m as a mask and
H_m grouped by the moment each history steps to next (a leaf stutters),
both filled in one successors-first pass over the model's walk (its
depths shared, its paths kept for leaves only).  ``validate`` reads
partition and undivided off these groups; the bounded operators find the
moments they read along them.  Only linked histories are grouped: the H_m
of one depth are then disjoint, so every formula keeps one mask per depth,
an atom as a column of ``atoms`` and any other formula in ``masks``, with
the histories it covers per depth.  A model with a broken history path is
refused before any formula is evaluated on it.
"""

from __future__ import annotations

import itertools
import math


class ModelIndex:
    """A model's histories as the bits of an int, and the memos kept on them.

    histories maps ids to History records, moments maps ids to Moment
    records and labels maps (moment, history) to atom names, the history
    "*" naming all of H_m.  order, block, depth (the Moment records' own
    dict) and paths (leaves only) are the model's walk of its moments.
    atoms keeps each atom's linked histories per depth, and masks each
    evaluated formula's mask per depth with the histories it covers.

    Values rank by exact int keys over their common denominator.  A linked
    path is its leaf's path from the root, so it only marks its leaf, and
    the moments are then filled successors first.  broken maps every other
    history, in declaration order, to the moment and the text of its
    history-path violation; through and succ leave it out."""

    def __init__(self, histories, moments, labels, order, block, depth, paths):
        ratio = [h.value.as_integer_ratio() for h in histories.values()]
        lcm = math.lcm(*(d for _, d in ratio))
        keyed = sorted(zip([n * (lcm // d) for n, d in ratio], histories))
        self.ids = [hid for _, hid in keyed]  # in (value, id) order
        self.bit = bit = {hid: 1 << i for i, hid in enumerate(self.ids)}
        rank = {v: i for i, v in enumerate(sorted({v for v, _ in keyed}))}
        self.rank = [rank[v] for v, _ in keyed]  # bit i's rank
        self.broken = {}  # history -> (moment, detail) of its broken path
        self.depth = depth
        self.ends = ends = [0] * (1 + max(depth.values(), default=0))
        leaf, kids = {}, {}  # the linked histories by leaf; groups by parent
        for hid, h in histories.items():
            b, ms = bit[hid], h.moments  # linked: a leaf's path from a root
            if ms and paths.get(ms[-1]) == ms \
                    and moments[ms[0]].parent is None:
                leaf[ms[-1]] = leaf.get(ms[-1], 0) | b
                ends[len(ms) - 1] |= b  # the linked ones ending at depth d
            else:
                self.broken[hid] = _path_fault(hid, ms, moments)
        # succ[m] groups H_m by the next moment (step), a history that ends
        # at m stuttering there; the groups are disjoint, so H_m is their sum
        self.through, self.succ = through, succ = {}, {}
        for m in order:  # successors first: m's children have grouped it
            t = leaf.get(m, 0)
            succ[m] = groups = ((m, t),) if t else tuple(kids.pop(m, ()))
            for _, g in groups:
                t |= g
            through[m], p = t, moments[m].parent
            if t and p is not None:
                kids.setdefault(p, []).append((m, t))
        self.order, self.block = order, block  # block: (position, size)
        self.atoms = atoms = {}  # atom -> its histories per depth
        self.stray = []  # entries naming no history through a declared moment
        for (m, h), names in labels.items():  # "*" labels all of H_m
            b = (-1 if h == "*" else bit.get(h, 0)) & through.get(m, 0)
            if m not in depth or not b and h != "*" and not (
                    h in self.broken and m in histories[h].moments):
                self.stray.append((m, h))
            if b:
                for name in names:
                    if name not in atoms:
                        atoms[name] = [0] * len(ends)
                    atoms[name][depth[m]] |= b
        self.masks = {}    # formula -> (mask per depth, histories covered)
        self.cells = {}    # (agents, moment) -> (cells, [(mask, named)])
        self.optimal = {}  # (agents, moment, condition) -> cell indices

    def mask(self, hids):  # hids are distinct: the bits are summed
        bit = self.bit
        return sum(bit.get(h, 0) for h in hids)

    def ids_of(self, mask):
        ids = self.ids
        return [ids[i] for i, c in enumerate(reversed(bin(mask))) if c == "1"]

    def spans(self, k, states):
        """Per background state, the least and greatest value rank of k's
        histories in it, or None when there are none."""
        rank = self.rank
        out = []
        for s in states:
            m = k & s
            out.append((rank[(m & -m).bit_length() - 1],
                        rank[m.bit_length() - 1]) if m else None)
        return out

    def fill(self, lv, cov, ms, lt, rt, release):
        """Fill lv, l U r (l R r if release) per depth, from l's and r's lt
        and rt, over S_d, the histories at depth d of ms's blocks, and add
        S_d to cov[d]: T_d = R_d | L_d & T_d+1, or R_d & (L_d | T_d+1 | E_d)
        with E_d the histories that end at d (a leaf stutters)."""
        spans, t, reaching = [0] * len(lv), 0, 0
        for m in ms:
            spans[self.depth[m]] |= self.through[m]
        spans = list(itertools.accumulate(spans, int.__or__))  # depth <= d
        for d in reversed(range(len(lv))):
            reaching |= self.ends[d]  # the histories that reach depth d
            s = spans[d] & reaching
            t = (rt[d] & (lt[d] | t | self.ends[d]) if release
                 else rt[d] | lt[d] & t) & s
            lv[d] |= t
            cov[d] |= s

    def reach(self, ms):
        """The moments reachable from those of ms whose H_m is not empty, in
        self.order: their subtree blocks, slices of it."""
        out, start = [], len(self.order)
        for pos, size in sorted((self.block[m] for m in ms if self.through[m]),
                                reverse=True):
            if pos < start:  # not inside the block taken last
                start = pos + 1 - size
                out.append(self.order[start:pos + 1])
        return list(itertools.chain(*reversed(out)))


def _path_fault(hid, ms, moments):
    """The moment and the text of a path's history-path violation."""
    if not ms or not all(m in moments for m in ms):
        return None, f"history {hid} mentions unknown moments"
    if moments[ms[0]].parent is not None:
        return ms[0], f"history {hid} does not start at the root"
    for a, b in zip(ms, ms[1:]):
        if moments[b].parent != a:
            return b, f"history {hid}: {b} is not a child of {a}"
    return ms[-1], f"history {hid} ends at a non-leaf moment"


def spans_dominate(low, high):
    """Strict dominance of high over low, from their per-state spans: no
    value of low exceeds one of high in any state, and in some state every
    value of low is below every value of high."""
    strict = False
    for a, b in zip(low, high):
        if a is not None and b is not None:
            if a[1] > b[0]:
                return False
            if a[1] < b[0]:
                strict = True
    return strict
