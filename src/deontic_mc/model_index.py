"""The bit index that explicit stit models evaluate formulas on.

Bit i of a mask stands for the i-th history in (value, id) order, so the
lowest and the highest set bit of a mask carry the least and the greatest
value among its histories.  Per moment the index keeps H_m as a mask and
H_m grouped by the moment each history steps to next, a history that ends
at the moment stuttering there.  From these it unfolds bounded horizons
(``fronts``), orders the moments below a set of moments successors first
(``pending``) and fills Until and Release over that order (``sweep``).
"""

from __future__ import annotations


class ModelIndex:
    """A model's histories as the bits of an int, and the memos kept on them.

    histories maps ids to History records, positions maps each id to
    {moment: index on its path} (the last visit, if the path repeats one),
    moments is the model's moment ids and labels maps (moment, history) to
    atom names.  The masks are memoised here by the model's evaluators."""

    def __init__(self, histories, positions, moments, labels):
        order = sorted(histories.values(), key=lambda h: (h.value, h.id))
        self.ids = [h.id for h in order]
        self.bit = {hid: 1 << i for i, hid in enumerate(self.ids)}
        self.rank = []  # the rank of bit i's value among the distinct values
        for i, h in enumerate(order):
            self.rank.append(0 if i == 0 else
                             self.rank[-1] + (h.value != order[i - 1].value))
        # through[m] is H_m; succ[m] groups H_m by the next moment (step),
        # with the histories that end at m stuttering there
        through = dict.fromkeys(moments, 0)
        succ = {m: {} for m in moments}
        for h in order:
            b, ms = self.bit[h.id], h.moments
            for m, i in positions[h.id].items():
                through[m] = through.get(m, 0) | b
                groups = succ.setdefault(m, {})
                n = ms[i + 1] if i + 1 < len(ms) else m
                groups[n] = groups.get(n, 0) | b
        self.through = through
        self.succ = {m: tuple(groups.items()) for m, groups in succ.items()}
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

    def pending(self, ms, t):
        """The moments reachable from ms that t lacks, each after every
        moment it steps to, and whether that relation has a cycle."""
        order, done, cyclic = [], {}, False
        for root in ms:
            if root in done:
                continue
            done[root] = False
            stack = [(root, iter(self.succ[root]))]
            while stack:
                m, it = stack[-1]
                for n, _ in it:
                    if n == m or n in t:
                        continue
                    if n not in done:
                        done[n] = False
                        stack.append((n, iter(self.succ[n])))
                        break
                    cyclic = cyclic or not done[n]
                else:
                    stack.pop()
                    done[m] = True
                    order.append(m)
        return order, cyclic

    def sweep(self, order, cyclic, lt, rt, t, release):
        """Fill t over order, as returned by pending, with l U r, or with
        l R r if release, from the masks lt of l and rt of r.  A history
        that stutters at its leaf ends an Until unfulfilled and a Release
        kept."""
        if cyclic:
            # histories disagree on the order of moments (the model fails
            # validate()).  Each history still only moves forward along its
            # own path, so the fixpoint is unique: iterate from 0 until no
            # mask changes.
            t.update(dict.fromkeys(order, 0))
        while True:
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
                    changed = True
            if not (cyclic and changed):
                return


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
