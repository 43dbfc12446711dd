"""The bit index that explicit stit models evaluate formulas on.

Bit i of a mask stands for the i-th history in (value, id) order, so the
lowest and the highest set bit of a mask carry the least and the greatest
value among its histories.  Per moment the index keeps H_m as a mask and
H_m grouped by the moment each history steps to next, a history that ends
at the moment stuttering there.  From these it unfolds bounded horizons
(``fronts``) and fills Until and Release (``sweep``) over one order of all
the moments, successors first, that the index fixes when it is built.
"""

from __future__ import annotations


class ModelIndex:
    """A model's histories as the bits of an int, and the memos kept on them.

    histories maps ids to History records, positions maps each id to
    {moment: index on its path} (the last visit, if the path repeats one),
    moments maps ids to Moment records and labels maps (moment, history)
    to atom names.  The masks are memoised here by the model's evaluators."""

    def __init__(self, histories, positions, moments, labels):
        order = sorted(histories.values(), key=lambda h: (h.value, h.id))
        self.ids = [h.id for h in order]
        self.bit = {hid: 1 << i for i, hid in enumerate(self.ids)}
        self.rank = []  # the rank of bit i's value among the distinct values
        for i, h in enumerate(order):
            self.rank.append(0 if i == 0 else
                             self.rank[-1] + (h.value != order[i - 1].value))
        # succ[m] groups H_m by the next moment (step), a history that ends
        # at m stuttering there; the groups are disjoint, so H_m is their sum
        succ = {m: {} for m in moments}
        for h in order:
            b, ms = self.bit[h.id], h.moments
            for m, i in positions[h.id].items():
                groups = succ.setdefault(m, {})
                n = ms[i + 1] if i + 1 < len(ms) else m
                groups[n] = groups.get(n, 0) | b
        self.through = through = {m: sum(groups.values())
                                  for m, groups in succ.items()}
        self.succ = {m: tuple(groups.items()) for m, groups in succ.items()}
        # deepest first, undeclared last; tangled: a step goes no deeper
        # (the model fails validate()), so a successor may come later
        depth = {m: moments[m].depth if m in moments else -1 for m in succ}
        self.order = sorted(succ, key=depth.__getitem__, reverse=True)
        self.tangled = any(n != m and depth[n] <= depth[m]
                           for m, groups in succ.items() for n in groups)
        self.labelled = {}  # atom -> moment -> histories labelled with it
        for (m, hid), names in labels.items():
            b = self.bit.get(hid, 0) & through.get(m, 0)
            if b:
                for name in names:
                    col = self.labelled.setdefault(name, {})
                    col[m] = col.get(m, 0) | b
        self.masks = {}    # formula -> moment -> mask where it holds
        self.cells = {}    # (agents, moment) -> (cells, [(mask, named)])
        self.states = {}   # (agents, moment) -> background state masks
        self.optimal = {}  # (agents, moment, condition) -> cell indices

    def mask(self, hids):
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

    def fronts(self, mid, lo, hi):
        """Where H_mid's histories are after lo..hi steps, as moment ->
        histories.  Once every history stutters at its leaf the front
        repeats, so it is listed once: X^n, F[lo:hi] and BR[n] read the
        same truth from one copy as from many."""
        out = []
        front = {mid: self.through[mid]}
        for k in range(hi + 1):
            if k >= lo:
                out.append(front)
            if k == hi:
                break
            nxt = {}
            for c, g in front.items():
                for n, g2 in self.succ[c]:
                    if g & g2:
                        nxt[n] = nxt.get(n, 0) | (g & g2)
            if nxt == front:
                if k < lo:
                    out.append(front)
                break
            front = nxt
        return out

    def sweep(self, order, lt, rt, t, release):
        """Fill t with l U r, or l R r if release, from the masks lt of l
        and rt of r, over order: moments that t lacks, in self.order, each
        with its successors in t or order.  A history that stutters at its
        leaf ends an Until unfulfilled and a Release kept."""
        if self.tangled:
            # the order may put a moment before one it steps to.  Each
            # history still only moves forward along its own path, so the
            # fixpoint is unique: iterate from 0 until no mask changes.
            t.update(dict.fromkeys(order, 0))
        changed = True
        while changed:
            changed = False
            for m in order:
                later = stay = 0
                for n, g in self.succ[m]:
                    if n == m:
                        stay = g
                    else:
                        later |= t[n] & g
                if release:
                    v = rt[m] & (lt[m] | stay | later)
                else:
                    v = rt[m] | (lt[m] & later)
                if t.get(m) != v:
                    t[m] = v
                    changed = self.tangled


def along(front, t):
    """The histories of a front at whose moment t's formula holds."""
    out = 0
    for c, g in front.items():
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
