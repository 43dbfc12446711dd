"""CTL*/LTL model checking over the unweighted view of a stit automaton.

The pipeline is the classical one: path formulas compile to a generalized
Buchi automaton by GPVW node expansion (Gerth, Peled, Vardi and Wolper,
PSTV 1995), state subformulas reduce to fresh atoms by recursive labeling,
and universality is emptiness of the product with the negation.

Universality(ts, f) does this once per formula and system, and answers
from any number of states: the negation is compiled once, the reduction
labels every state once, and one depth-first search explores the product
on the fly, continuing from each state asked about and stopping at the
first cycle through every acceptance set (Couvreur's emptiness check on
Gabow's path-based SCC search), or at the first node whose tableau node
promises nothing, decided by whether its state starts an infinite path;
one mark per product node holds its stack position or verdict.  The
reducer's own E-checks use the same exploration.  A counterexample lasso
is built only when asked for and is re-checked by direct lasso
evaluation before it leaves this module.

Every pass is one loop over the normal-form rows of formula.compile, which
each entry point calls once, at the door; none recurses or hashes a
formula.  The reduction turns each E row into a fresh atom's row, and the
tableau and the lasso evaluator read the reduced rows as they are.  The
tableau is expanded as the product meets it: a node's sets of rows are
int bitmasks over the rows, and the successors of a node on a letter are
expanded once and then found by one dict lookup on an int key.  Its work
is bounded by MAX_TABLEAU_STEPS rows taken per automaton, past which a
check raises ResourceLimitError.

compile refuses one bounded operator past formula.MAX_UNFOLD, so no entry
point re-checks its input: the tableau rejects a row it cannot expand, a
quantifier or a stit, and the lasso evaluator a row it cannot evaluate.
check_ctls evaluates the reduced state formula at each state as a lasso
of one looping position.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import formula as fm
from .errors import GrammarError, ModelError, ResourceLimitError

# The kinds of the rows a tableau expands: a normal form's, quantifier-free
_EXPANDED = frozenset((fm.Atom, fm.Not, fm.TrueFormula, fm.FalseFormula,
                       fm.And, fm.Or, fm.Next, fm.Until, fm.Release))
# The most rows the partial nodes of one Buchi automaton may take in all;
# past it a check raises ResourceLimitError.
MAX_TABLEAU_STEPS = 1 << 17
GOOD, BAD = -1, -2  # a decided product node's mark; no stack position


class TransitionSystem:
    """Unlabeled-edge Kripke structure with a single initial state; live
    holds the states that start an infinite path, all in a total one."""

    def __init__(self, states, initial, edges, labels):
        self.states = list(states)
        self.initial = initial
        self.succ: dict[str, list[str]] = {q: [] for q in self.states}
        for src, dst in edges:
            if dst not in self.succ[src]:
                self.succ[src].append(dst)
        self.labels = {q: frozenset(labels.get(q, ())) for q in self.states}
        self.live = set(self.states)
        while dead := {q for q in self.live
                       if self.live.isdisjoint(self.succ[q])}:
            self.live -= dead

    def successors(self, state):
        return self.succ[state]

    def add_root(self, state, targets, label):
        """Add a state with these successors and label; nothing leads to it."""
        self.states.append(state)
        self.succ[state] = list(dict.fromkeys(targets))
        self.labels[state] = frozenset(label)
        if not self.live.isdisjoint(self.succ[state]):
            self.live.add(state)

    def require_total(self):
        dead = [q for q in self.states if not self.succ[q]]
        if dead:
            raise ModelError(f"transition system has dead ends: {dead}")


def strip_weights(aut) -> TransitionSystem:
    """Forget weights and actions; duplicate edges merge."""
    edges = [(t.src, t.dst) for t in aut.transitions]
    return TransitionSystem(aut.states, aut.initial, edges,
                            {q: aut.label(q) for q in aut.states})


@dataclass(frozen=True)
class Counterexample:
    """Ultimately periodic path violating a checked formula."""

    stem: tuple[str, ...]
    loop: tuple[str, ...]
    formula: fm.Formula


class BuchiAutomaton:
    """Generalized Buchi automaton over an alphabet of atom sets, built on
    demand by GPVW node expansion (Gerth, Peled, Vardi and Wolper, PSTV
    1995) over the rows of a negation normal form (formula.compile(f,
    False)), of which it reads those that the last row reaches.

    Node b, numbered by states, is (positive atom bits, negative atom bits,
    next mask number, acceptance bits).  It reads the letters (a label's
    atom bits, one per name in atoms) with its positive atoms and none of
    its negative ones.  masks[number] holds the rows that must be true at
    the next position; mask 0, the first position's, the formula's own row.
    Bit i of accepting[b] puts b in the set of the Until in row i; full
    has every set's bit.  expand(key), key = mask number << len(atoms) |
    letter, lists the nodes that expand the mask and read the letter, filed
    under step[key]; nexts[b] is b's mask number so shifted, initial 0's.
    free[b] says b's next mask is empty, so its one successor on every
    letter is T = (0, 0, that mask, full), which loops on itself."""

    def __init__(self, rows):
        self.rows = rows
        reached = {len(rows) - 1}  # the rows the last one reaches
        for i in range(len(rows) - 1, -1, -1):
            if i in reached:
                kind, _, kids = rows[i]
                if kind not in _EXPANDED:
                    raise GrammarError(f"the tableau cannot expand "
                                       f"{kind.__name__}", production="ltl")
                reached.update(kids)
        self.atoms = sorted(rows[i][1] for i in reached
                            if rows[i][0] is fm.Atom)
        self._bit = {a: 1 << i for i, a in enumerate(self.atoms)}
        self.full = sum(1 << i for i, r in enumerate(rows) if r[0] is fm.Until)
        self.initial, self.masks = 0, [1 << len(rows) - 1]
        self._numbers = {self.masks[0]: 0}  # mask -> its number
        self.states: dict[tuple, int] = {}
        self.accepting, self.nexts, self.free = [], [], []  # per node
        self.step: dict[int, list[int]] = {}
        self._expanded: dict[int, dict] = {}  # number -> {node: (pos, neg)}
        self._steps = 0
        self._letters: dict[frozenset, int] = {}

    def letter(self, label):
        """The label's atom bits; each distinct label is projected once."""
        hit = self._letters.get(label)
        if hit is None:
            hit = self._letters[label] = sum(
                1 << i for i, a in enumerate(self.atoms) if a in label)
        return hit

    def expand(self, key):
        """The nodes that expand key's next mask and read its letter."""
        hit = self.step.get(key)
        if hit is None:
            m, letter = divmod(key, 1 << len(self.atoms))
            if m not in self._expanded:
                self._expanded[m] = self._expand(self.masks[m])
            hit = self.step[key] = [b for b, (pos, neg) in
                                    self._expanded[m].items()
                                    if not (pos & ~letter or neg & letter)]
        return hit

    def _expand(self, todo):
        """GPVW on one mask: a partial node takes the lowest row left to
        do, one step, skipping rows already in old; And adds both children,
        Or, U and R branch, and a literal clash or false drops the node.
        Lowest first, the false of G's false R g drops a branch before g
        branches.  An Until waits for its set while it is in old without
        its right operand."""
        rows, bit, found, steps = self.rows, self._bit, {}, self._steps
        work = [(todo, 0, 0, 0, 0, 0)]  # todo, old, next, pos, neg, waiting
        while work:
            if steps > MAX_TABLEAU_STEPS:
                raise ResourceLimitError(
                    f"the tableau takes more than {MAX_TABLEAU_STEPS} "
                    f"expansion steps, the limit")
            todo, old, nxt, pos, neg, wait = work.pop()
            while todo:
                i = (todo & -todo).bit_length() - 1
                todo ^= 1 << i
                if old >> i & 1:
                    continue
                old |= 1 << i
                steps += 1
                kind, data, kids = rows[i]
                if kind is fm.Atom:
                    pos |= bit[data]
                elif kind is fm.Not:  # NNF: negation only wraps atoms
                    neg |= bit[rows[kids[0]][1]]
                elif kind is fm.And:
                    todo |= 1 << kids[0] | 1 << kids[1]
                elif kind is fm.Or:
                    work.append((todo | 1 << kids[1], old, nxt, pos, neg,
                                 wait))
                    todo |= 1 << kids[0]
                elif kind is fm.Next:
                    nxt |= 1 << kids[0]
                elif kind is fm.Until:
                    work.append((todo | 1 << kids[0], old, nxt | 1 << i,
                                 pos, neg, wait | 1 << i))
                    todo |= 1 << kids[1]
                elif kind is fm.Release:
                    work.append((todo | 1 << kids[1], old, nxt | 1 << i,
                                 pos, neg, wait))
                    todo |= 1 << kids[0] | 1 << kids[1]
                elif kind is fm.FalseFormula:
                    break
                if pos & neg:
                    break
            else:
                acc = self.full
                while wait:
                    i = wait.bit_length() - 1
                    wait ^= 1 << i
                    if not old >> rows[i][2][1] & 1:
                        acc ^= 1 << i
                m = self._numbers.setdefault(nxt, len(self.masks))
                if m == len(self.masks):
                    self.masks.append(nxt)
                b = self.states.setdefault((pos, neg, m, acc),
                                           len(self.states))
                if b == len(self.accepting):
                    self.accepting.append(acc)
                    self.nexts.append(m << len(self.atoms))
                    self.free.append(not nxt)
                found[b] = pos, neg
        self._steps = steps
        return found


def ltl_to_buchi(f) -> BuchiAutomaton:
    """The Buchi automaton of a path formula, or of its normal form's rows
    (formula.compile); its nodes are built as the product meets them."""
    return BuchiAutomaton(f if type(f) is tuple else fm.compile(f, False))


# ---------------------------------------------------------------------------
# Product exploration and emptiness
# ---------------------------------------------------------------------------

class _Product:
    """The product of a transition system and a Buchi automaton, explored
    on demand by one depth-first search that stops at the first accepting
    cycle it closes, or at a node (q, b) with b free, which is good iff q
    is live: it is decided on sight, and neither it nor T is expanded.

    Each call continues the same exploration from new start nodes, so every
    node's successors are computed once however many states are asked
    about.  `mark` maps a node to its stack position while a search runs,
    and to GOOD or BAD once it is decided, as every explored node is when
    a search returns; `accepting` maps each node on an accepting cycle
    found to the strongly connected nodes it was found among."""

    def __init__(self, ts, labels, buchi):
        self.ts, self.labels, self.buchi = ts, labels, buchi
        self._succ: dict = {}
        self.mark: dict = {}
        self.accepting: dict = {}

    def starts(self, q):
        buchi = self.buchi
        return [(q, b) for b in buchi.expand(
            buchi.initial | buchi.letter(self.labels[q]))]

    def succ(self, node):
        hit = self._succ.get(node)
        if hit is None:
            q, b = node
            buchi, labels = self.buchi, self.labels
            step, letters = buchi.step, buchi._letters
            promises = buchi.nexts[b]
            hit = []
            for q2 in self.ts.succ[q]:
                letter = letters.get(label := labels[q2])
                if letter is None:
                    letter = buchi.letter(label)
                nodes = step.get(key := promises | letter)
                if nodes is None:
                    nodes = buchi.expand(key)
                for b2 in nodes:
                    hit.append((q2, b2))
            self._succ[node] = hit
        return hit

    def nonempty_from(self, q) -> bool:
        """Does some accepting run of the product start at state q?"""
        return any(self._search(s) for s in self.starts(q))

    def _search(self, root):
        """Is root good?  Depth first from root, with roots holding one
        [stack position, acceptance bits] per partial SCC on the stack: a
        back edge merges those above its target, ORing their bits, and bits
        covering every set close an accepting cycle in that stack segment.
        Then, or on an edge into a good node, the whole stack is good; an
        SCC that completes first is popped as bad."""
        mark, succ, buchi = self.mark, self.succ, self.buchi
        acc, full, free = buchi.accepting, buchi.full, buchi.free
        stack, roots = [], [[-1, 0]]
        work = [(-1, iter([root]))]  # a frame below root, leading to it
        while work:
            i, it = work[-1]
            for nxt in it:
                j = mark.get(nxt)
                if j is None:
                    if not free[nxt[1]]:
                        mark[nxt] = j = len(stack)
                        stack.append(nxt)
                        roots.append([j, acc[nxt[1]]])
                        work.append((j, iter(succ(nxt))))
                        break
                    j = mark[nxt] = GOOD if nxt[0] in self.ts.live else BAD
                if j == BAD:
                    continue
                if j != GOOD:
                    while roots[-1][0] > j:
                        bits = roots.pop()[1]
                        roots[-1][1] |= bits
                    top = roots[-1]
                    if top[1] != full:
                        continue
                    members = stack[top[0]:]
                    for n in members:
                        self.accepting[n] = members
                mark.update(dict.fromkeys(stack, GOOD))
                return True
            else:
                work.pop()
                if roots[-1][0] == i:
                    roots.pop()
                    mark.update(dict.fromkeys(stack[i:], BAD))
                    del stack[i:]
        return False

    def lasso(self, q):
        """(stem nodes, loop nodes) of an accepting run from state q, or
        None.  The stem is a shortest path through good nodes to a free
        node or to an accepting cycle, whose loop closes through one member
        of each acceptance set.  After a free node the run reads T along a
        shortest path of live states into the cycle that a walk along
        first live successors closes, and round it; a free node that is T
        itself leaves the stem, and that path starts at its own state."""
        if not self.nonempty_from(q):
            return None
        mark, succ, buchi = self.mark, self.succ, self.buchi
        stem = _bfs_path([s for s in self.starts(q) if mark.get(s) == GOOD],
                         lambda n: buchi.free[n[1]] or n in self.accepting,
                         lambda n: [x for x in succ(n)
                                    if mark.get(x) == GOOD])
        anchor = stem[-1]
        if buchi.free[anchor[1]]:
            live = _within(self.ts.succ.__getitem__, self.ts.live)
            seen, cur = {}, anchor[0]
            while (cur := next(live(cur))) not in seen:
                seen[cur] = len(seen)
            ring = set(list(seen)[seen[cur]:])
            t = buchi.expand(buchi.nexts[anchor[1]])[0]
            starts = live(anchor[0])
            if anchor[1] == t:  # T itself: the path starts at its state
                stem, starts = stem[:-1], [anchor[0]]
            path = _bfs_path(starts, ring.__contains__, live)
            in_ring = _within(self.ts.succ.__getitem__, ring)
            loop = _bfs_path(in_ring(path[-1]), path[-1].__eq__, in_ring)
            return ([*stem, *((s, t) for s in path[:-1])],
                    [(s, t) for s in path[-1:] + loop[:-1]])
        members = self.accepting[anchor]
        in_comp = _within(succ, set(members))
        acc, need = buchi.accepting, buchi.full
        loop, cur = [], anchor
        for t in members:  # the first member of each set, in stack order
            if acc[t[1]] & need:
                need &= ~acc[t[1]]
                if cur != t:
                    loop.extend(_bfs_path([cur], t.__eq__, in_comp)[1:])
                    cur = t
        loop.extend(_bfs_path(in_comp(cur), anchor.__eq__, in_comp))
        return stem[:-1], [anchor] + loop[:-1]


def _within(succ, keep):
    """succ, keeping only the nodes in keep."""
    return lambda node: filter(keep.__contains__, succ(node))


def _bfs_path(starts, goal_test, succ):
    """Shortest node path from any start to a goal (inclusive), or None."""
    prev = {}
    queue = deque()
    for s in starts:
        if s not in prev:
            prev[s] = None
            queue.append(s)
    while queue:
        node = queue.popleft()
        if goal_test(node):
            path = []
            while node is not None:
                path.append(node)
                node = prev[node]
            return path[::-1]
        for nxt in succ(node):
            if nxt not in prev:
                prev[nxt] = node
                queue.append(nxt)
    return None


def buchi_accepts(buchi: BuchiAutomaton, stem_labels, loop_labels) -> bool:
    """Does the automaton accept the ultimately periodic word stem.loop^omega?"""
    stem = [frozenset(x) for x in stem_labels]
    word = stem + [frozenset(x) for x in loop_labels]
    if len(word) == len(stem):
        raise ModelError("lasso loop must be non-empty")
    n_stem, n = len(stem), len(word)
    # the word's positions as a transition system: the last closes the loop
    ts = TransitionSystem(range(n), 0,
                          [(i, i + 1 if i + 1 < n else n_stem)
                           for i in range(n)], dict(enumerate(word)))
    return _Product(ts, ts.labels, buchi).nonempty_from(0)


# ---------------------------------------------------------------------------
# Lasso evaluation (fixpoint over the finite position graph)
# ---------------------------------------------------------------------------

def eval_on_lasso(f, stem_labels, loop_labels) -> bool:
    """Truth of a pure path formula on the word stem . loop^omega.

    f is a formula, compiled here, or its normal form's rows
    (formula.compile).  Each row is evaluated once, children first, into
    one int whose bit i is its truth at position i of the word; U is a
    least fixpoint and R a greatest one."""
    rows = f if type(f) is tuple else fm.compile(f, False)
    stem, loop = list(stem_labels), list(loop_labels)
    if not loop:
        raise ModelError("lasso loop must be non-empty")
    labels, n_stem, last = stem + loop, len(stem), len(stem) + len(loop) - 1
    every = (1 << len(labels)) - 1

    def after(x):  # the positions whose successor is in x
        return x >> 1 | (x >> n_stem & 1) << last

    truth = [0] * len(rows)
    cause: dict[int, int] = {}  # row -> the unevaluable row to name
    for i, (kind, data, kids) in enumerate(rows):
        x = [truth[k] for k in kids]
        if kind is fm.Atom:
            out = sum(1 << j for j, label in enumerate(labels)
                      if data in label)
        elif kind is fm.TrueFormula:
            out = every
        elif kind is fm.FalseFormula:
            out = 0
        elif kind is fm.Not:
            out = every ^ x[0]
        elif kind is fm.And:
            out = x[0] & x[1]
        elif kind is fm.Or:
            out = x[0] | x[1]
        elif kind is fm.Next:
            out = after(x[0])
        elif kind is fm.Until:
            out = x[1]
            while (grown := out | (x[0] & after(out))) != out:
                out = grown
        elif kind is fm.Release:
            out = every
            while (shrunk := x[1] & (x[0] | after(out))) != out:
                out = shrunk
        else:  # not a path formula; its parents are still walked
            cause[i] = i
            continue
        if cause and (below := [cause[k] for k in kids if k in cause]):
            cause[i] = below[0]  # the leftmost, as a top-down walk meets it
        truth[i] = out
    if cause:
        raise GrammarError(
            f"cannot evaluate {rows[cause[len(rows) - 1]][0].__name__} "
            f"on a lasso", production="ltl")
    return bool(truth[-1] & 1)


# ---------------------------------------------------------------------------
# State-subformula reduction and the public checks
# ---------------------------------------------------------------------------

def _reduce(ts: TransitionSystem, rows):
    """(rows, labels, products): normal-form rows (formula.compile) with
    each E row replaced by a fresh atom's row, innermost first; ts.labels,
    or a copy with each fresh atom added to the states its row holds at;
    and the products that decided those.  The operands' rows stay, and
    each distinct E subformula is checked once."""
    reduced, labels, products = rows, ts.labels, []
    for i, (kind, _, kids) in enumerate(rows):
        if kind is fm.ExistsPaths:
            if not products:  # the first: copy the rows and the labels
                reduced, labels = list(rows), dict(labels)
            psi = tuple(reduced[:kids[0] + 1])
            product = _Product(ts, labels, ltl_to_buchi(psi))
            products.append(product)
            name = f"@q{len(products) - 1}"
            labels.update({q: labels[q] | {name} for q in ts.states
                           if product.nonempty_from(q)})
            reduced[i] = (fm.Atom, name, ())
    return tuple(reduced), labels, products


class Universality:
    """Does every infinite path from a state satisfy one formula?

    Built once per formula and system, and asked for any number of states:
    the negation is compiled once, straight to normal form, its path
    quantifiers are reduced to atoms once over the whole system, its rows
    make one Buchi automaton, and one product search continues from each
    state asked about, up to a first violating run.  A counterexample is
    built only when asked for.  A path into a dead end is not a run, so the
    callers rule out reachable dead ends (check_universal, mc)."""

    def __init__(self, ts: TransitionSystem, f: fm.Formula):
        self.formula = f
        self.reduced, self.labels, self.products = _reduce(
            ts, fm.compile(f, True))
        self.product = _Product(ts, self.labels, ltl_to_buchi(self.reduced))
        self.products.append(self.product)

    def holds_from(self, q) -> bool:
        return not self.product.nonempty_from(q)

    def counterexample(self, q) -> Counterexample | None:
        """A lasso from q violating the formula, or None if it holds at q.
        The lasso is re-validated before it is returned: the compiled
        negation must evaluate true on it."""
        found = self.product.lasso(q)
        if found is None:
            return None
        stem = tuple(n[0] for n in found[0])
        loop = tuple(n[0] for n in found[1])
        if not eval_on_lasso(self.reduced, [self.labels[s] for s in stem],
                             [self.labels[s] for s in loop]):
            raise AssertionError("internal error: counterexample does not "
                                 "violate the formula")
        return Counterexample(stem, loop, self.formula)

    def stats(self):
        """(Buchi states built, product nodes explored) by its products."""
        return (sum(len(p.buchi.states) for p in self.products),
                sum(len(p._succ) for p in self.products))


def check_universal(ts: TransitionSystem, f: fm.Formula):
    """Does every infinite path from the initial state satisfy f?

    Returns (True, None) or (False, counterexample); the counterexample is
    re-validated by direct lasso evaluation before being returned.
    """
    ts.require_total()
    cx = Universality(ts, f).counterexample(ts.initial)
    return cx is None, cx


def check_ctls(ts: TransitionSystem, f: fm.Formula) -> set:
    """States satisfying a CTL* state formula, by recursive labeling."""
    ts.require_total()
    rows, labels, _ = _reduce(ts, fm.compile(f, False))
    temporal = (fm.Next, fm.Until, fm.Release)
    escapes = []  # per row: has it a temporal operator outside quantifiers?
    for kind, _, kids in rows:
        escapes.append(kind in temporal or any(escapes[k] for k in kids))
    if escapes[-1]:
        raise GrammarError(
            "not a state formula: a temporal operator escapes every "
            "path quantifier", production="state-formula")
    return {q for q in ts.states if eval_on_lasso(rows, [], [labels[q]])}
