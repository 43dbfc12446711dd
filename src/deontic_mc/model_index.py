"""The bit index that explicit stit models evaluate formulas on.

Bit i of a mask stands for the i-th history in (value, id) order, so the
lowest and the highest set bit of a mask carry the least and the greatest
value among its histories.  Per moment the index keeps H_m as a mask and
H_m grouped by the moment each history steps to next, a history that ends
at the moment stuttering there.  The evaluators step bounded operators
along these groups.  ``sweep`` fills Until and Release over the moments that
``reach`` reads off the model's reversed depth-first pre-order, as blocks.
"""

from __future__ import annotations

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
        for hid, b in self.bit.items():
            ms = histories[hid].moments  # linked: a leaf's path from a root
            if ms and paths.get(ms[-1]) == ms and block[ms[-1]][1] == 1 \
                    and parent[ms[0]] is None:
                succ[ms[-1]][ms[-1]] = b | succ[ms[-1]].get(ms[-1], 0)
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
        self.block = block  # moment -> (position in order, subtree size)
        self.succ = {m: tuple(groups.items()) for m, groups in succ.items()}
        self.labelled = {}  # atom -> moment -> histories labelled with it
        for (m, h), names in labels.items():  # "*" labels all of H_m
            b = (-1 if h == "*" else self.bit.get(h, 0)) & through.get(m, 0)
            if b:
                for name in names:
                    col = self.labelled.setdefault(name, {})
                    col[m] = col.get(m, 0) | b
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

    def reach(self, ms, t):
        """The moments reachable from ms that t lacks, in self.order.  With
        every path linked, a step stays in its moment's subtree, so these
        are the blocks of ms less the moments in t (t holds whole blocks).
        A broken path may step out of a subtree: then they are walked."""
        if self.broken:
            reach, todo = set(ms), list(ms)
            while todo:
                for n, _ in self.succ[todo.pop()]:
                    if n not in reach and n not in t:
                        reach.add(n)
                        todo.append(n)
            return [m for m in self.order if m in reach]
        out, start = [], len(self.order)
        for pos, size in sorted(map(self.block.__getitem__, ms), reverse=True):
            if pos < start:  # not inside the last block taken
                start = pos + 1 - size
                out += [m for m in self.order[start:pos + 1] if m not in t]
        return out

    def sweep(self, order, lt, rt, t, release):
        """Fill t with l U r, or l R r if release, from the masks lt of l
        and rt of r, over order: moments that t lacks, in self.order, each
        with its successors in t or order.  lt None is true under Until
        (F r) and false under Release (G r); the groups lie in H_m, so
        F r = r | later and G r = r & later.  A history that stutters at
        its leaf reads the preset: an Until unfulfilled, a Release kept."""
        succ, broken = self.succ, self.broken
        # a broken path may step to a moment later in the order.  Each
        # history still only moves forward along its own path, so the
        # fixpoint is unique: repeat from the preset until no mask changes.
        t.update(dict.fromkeys(order, -1 if release else 0))
        while True:
            before = broken and dict(t)
            for m in order:
                later = 0
                for n, g in succ[m]:
                    later |= t[n] & g
                if release:
                    t[m] = rt[m] & (later if lt is None else lt[m] | later)
                else:
                    t[m] = rt[m] | (later if lt is None else lt[m] & later)
            if not broken or before == t:
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
