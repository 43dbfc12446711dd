"""The bit index that explicit stit models evaluate formulas on.

Bit i of a mask stands for the i-th history in (value, id) order, so the
lowest and the highest set bit of a mask carry the least and the greatest
value among its histories.  Per moment the index keeps H_m as a mask and
H_m grouped by the moment each history steps to next, a history that ends
at the moment stuttering there.  The evaluators step bounded operators
along these groups.  With every path linked the H_m of one depth are
disjoint: ``fill`` keeps Until and Release as one mask per depth, as the
index keeps atoms; else ``sweep`` fills them by moment over ``reach``'s walk.
"""

from __future__ import annotations

import itertools
import math


class ModelIndex:
    """A model's histories as the bits of an int, and the memos kept on them.

    histories maps ids to History records, moments maps ids to Moment
    records and labels maps (moment, history) to atom names, the history
    "*" naming all of H_m.  order, block and paths are the model's walk of
    its moments.  The masks are memoised here by the evaluators.

    Values rank by exact int keys over their common denominator.  A linked
    path is its leaf's path from the root, so it only marks its leaf, and
    the moments are then filled successors first.  broken maps every other
    history to the moment and the text of its history-path violation, and
    such a path is grouped at each moment's last visit on it."""

    def __init__(self, histories, moments, labels, order, block, paths):
        ratio = [h.value.as_integer_ratio() for h in histories.values()]
        lcm = math.lcm(*(d for _, d in ratio))
        keyed = sorted(zip([n * (lcm // d) for n, d in ratio], histories))
        self.ids = [hid for _, hid in keyed]  # in (value, id) order
        self.bit = {hid: 1 << i for i, hid in enumerate(self.ids)}
        rank = {v: i for i, v in enumerate(sorted({v for v, _ in keyed}))}
        self.rank = [rank[v] for v, _ in keyed]  # bit i's rank
        # succ[m] groups H_m by the next moment (step), a history that ends
        # at m stuttering there; the groups are disjoint, so H_m is their sum
        succ = {m: {} for m in moments}
        parent = {m: x.parent for m, x in moments.items()}
        self.broken = {}  # history -> (moment, detail) of its broken path
        self.depth = depth = {m: x.depth for m, x in moments.items()}
        self.ends = ends = [0] * (1 + max(depth.values(), default=0))
        for hid, b in self.bit.items():
            ms = histories[hid].moments  # linked: a leaf's path from a root
            if ms and paths.get(ms[-1]) == ms and block[ms[-1]][1] == 1 \
                    and parent[ms[0]] is None:
                succ[ms[-1]][ms[-1]] = b | succ[ms[-1]].get(ms[-1], 0)
                ends[len(ms) - 1] |= b  # the linked ones ending at depth d
            else:
                self.broken[hid] = _path_fault(hid, ms, parent)
        self.through = through = {}
        for m in order:  # successors first; only linked ones grouped yet
            through[m] = t = sum(succ[m].values())
            if t and parent[m] is not None:
                succ[parent[m]][m] = t
        for hid in self.broken:
            b, ms = self.bit[hid], histories[hid].moments
            for m, i in {m: i for i, m in enumerate(ms)}.items():
                groups = succ.setdefault(m, {})
                n = ms[i + 1] if i + 1 < len(ms) else m
                groups[n] = groups.get(n, 0) | b
                through[m] = through.get(m, 0) | b
        self.order = order + [m for m in succ if m not in moments]
        self.succ = {m: tuple(groups.items()) for m, groups in succ.items()}
        self.labelled = {}  # atom -> moment -> histories labelled with it
        self.atoms = lvs = {}  # atom -> mask per depth (if none is broken)
        for (m, h), names in labels.items():  # "*" labels all of H_m
            b = (-1 if h == "*" else self.bit.get(h, 0)) & through.get(m, 0)
            if b:
                for name in names:
                    col = self.labelled.setdefault(name, {})
                    col[m] = col.get(m, 0) | b
                    lvs.setdefault(name, [0] * len(ends))[depth.get(m, 0)] |= b
        self.levels = {}   # formula -> (mask per depth, histories covered)
        self.masks = {}    # formula -> moment -> mask where it holds
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

    def reach(self, ms, t):
        """The moments reachable from ms that t lacks, in self.order."""
        reach, todo = set(ms), list(ms)
        while todo:
            for n, _ in self.succ[todo.pop()]:
                if n not in reach and n not in t:
                    reach.add(n)
                    todo.append(n)
        return [m for m in self.order if m in reach]

    def sweep(self, order, lt, rt, t, release):
        """Fill t with l U r, or l R r if release, from the masks lt of l
        and rt of r, over order: moments that t lacks, in self.order, each
        with its successors in t or order.  A history that stutters at its
        leaf reads the preset: an Until unfulfilled, a Release kept.  A
        broken path may step to a moment later in the order, but each
        history only moves forward along its own path, so the fixpoint is
        unique: repeat from the preset until no mask changes."""
        t.update(dict.fromkeys(order, -1 if release else 0))
        while True:
            before = dict(t)
            for m in order:
                later = along(self.succ[m], t)
                t[m] = rt[m] & (lt[m] | later) if release \
                    else rt[m] | lt[m] & later
            if before == t:
                return


def _path_fault(hid, ms, parent):
    """The moment and the text of a path's history-path violation."""
    if not ms or not all(m in parent for m in ms):
        return None, f"history {hid} mentions unknown moments"
    if parent[ms[0]] is not None:
        return ms[0], f"history {hid} does not start at the root"
    for a, b in zip(ms, ms[1:]):
        if parent[b] != a:
            return b, f"history {hid}: {b} is not a child of {a}"
    return ms[-1], f"history {hid} ends at a non-leaf moment"


def along(groups, t):
    """The histories of (moment, histories) groups at whose moment t's
    formula holds."""
    out = 0
    for c, g in groups:
        out |= t[c] & g
    return out


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
