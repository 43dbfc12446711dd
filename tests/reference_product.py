"""Product emptiness by one incremental Tarjan over the whole reachable
product: the reference that deontic_mc.ctlstar's early-stopping search is
compared against.

Each call continues the same exploration from new start nodes.  SCCs
complete sinks first, so when one completes every node it leads to is
decided: `good` holds the nodes that reach an accepting SCC, one with a
cycle whose states meet every acceptance set.  It reads the automaton's
per-state acceptance bits, but explores every product node reachable from
a start before it answers.
"""

from deontic_mc.ctlstar import _Product


class TarjanProduct(_Product):
    def __init__(self, ts, labels, buchi):
        super().__init__(ts, labels, buchi)
        self.good: set = set()
        self._index: dict = {}
        self._low: dict = {}

    def nonempty_from(self, q) -> bool:
        starts = self.starts(q)
        self._explore(starts)
        return any(s in self.good for s in starts)

    def _explore(self, roots):
        index, low, succ = self._index, self._low, self.succ
        stack, on_stack = [], set()
        for root in roots:
            if root in index:
                continue
            index[root] = low[root] = len(index)
            stack.append(root)
            on_stack.add(root)
            work = [(root, iter(succ(root)))]
            while work:
                node, it = work[-1]
                for nxt in it:
                    if nxt not in index:
                        index[nxt] = low[nxt] = len(index)
                        stack.append(nxt)
                        on_stack.add(nxt)
                        work.append((nxt, iter(succ(nxt))))
                        break
                    if nxt in on_stack:
                        low[node] = min(low[node], index[nxt])
                else:
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[node])
                    if low[node] == index[node]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack.discard(w)
                            comp.append(w)
                            if w == node:
                                break
                        self._close(comp)

    def _close(self, comp):
        """Decide a completed SCC: accepting when it has a cycle through
        every acceptance set, good when accepting or leading to good."""
        succ, good, acc = self.succ, self.good, self.buchi.accepting
        bits = 0
        for n in comp:
            bits |= acc[n[1]]
        if ((len(comp) > 1 or comp[0] in succ(comp[0]))
                and bits == self.buchi.full):
            good.update(comp)
        elif any(nxt in good for n in comp for nxt in succ(n)):
            good.update(comp)
