"""The history bit index built pass by pass: the reference that
deontic_mc.model_index.ModelIndex's fused constructor is compared against.

Each field gets its own loop over the moments: parents and depths, the
linked histories marked at their leaves, H_m summed successors first over
the linked histories alone, and the labels ORed per moment and per depth.
"""

import math

from deontic_mc.model_index import ModelIndex


class ReferenceIndex(ModelIndex):
    def __init__(self, histories, moments, labels, order, block, walked,
                 paths):  # walked: the walk's depths, rebuilt below
        ratio = [h.value.as_integer_ratio() for h in histories.values()]
        lcm = math.lcm(*(d for _, d in ratio))
        keyed = sorted(zip([n * (lcm // d) for n, d in ratio], histories))
        self.ids = [hid for _, hid in keyed]  # in (value, id) order
        self.bit = {hid: 1 << i for i, hid in enumerate(self.ids)}
        rank = {v: i for i, v in enumerate(sorted({v for v, _ in keyed}))}
        self.rank = [rank[v] for v, _ in keyed]  # bit i's rank
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
        for m in order:  # successors first; a broken path is grouped nowhere
            through[m] = t = sum(succ[m].values())
            if t and parent[m] is not None:
                succ[parent[m]][m] = t
        self.order = order
        self.succ = {m: tuple(groups.items()) for m, groups in succ.items()}
        self.labelled = {}  # atom -> moment -> histories labelled with it
        self.atoms = lvs = {}  # atom -> linked histories labelled per depth
        for (m, h), names in labels.items():  # "*" labels all of H_m
            b = (-1 if h == "*" else self.bit.get(h, 0)) & through.get(m, 0)
            if b:
                for name in names:
                    col = self.labelled.setdefault(name, {})
                    col[m] = col.get(m, 0) | b
                    lvs.setdefault(name, [0] * len(ends))[depth[m]] |= b


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
