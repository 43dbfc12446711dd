"""CTL*/LTL model checking over the unweighted view of a stit automaton.

The pipeline is the classical one: path formulas compile to a generalized
Buchi automaton through the declarative tableau construction (states are
consistent valuations of the formula's atoms and next-step obligations),
state subformulas reduce to fresh atoms by recursive labeling, and
universality is emptiness of the product with the negation.

Universality(ts, f) does this once per formula and system, and answers
from any number of states: the reduction labels every state once, the
negation is compiled once, and one incremental Tarjan explores the product,
continuing from each state asked about and marking the nodes that reach an
accepting SCC as SCCs complete.  The reducer's own E-checks use the same
exploration.  A counterexample lasso is built only when asked for and is
re-checked by direct lasso evaluation before it leaves this module.

The tableau and the lasso evaluator each walk the formula's node table
(formula.node_table) once, children first, and hash no formula.  Each node's
truth under all 2^n valuations of the n elementary formulas (n capped at
formula.MAX_UNFOLD) is one Python int, computed with &, | and ^.  A tableau
state is the valuation itself, so the product finds a state's successors
by one list index per system successor.

Every entry point (Universality, check_universal, check_ctls, ltl_to_buchi,
eval_on_lasso) unfolds bounded operators through formula.expand_bounded,
which refuses one past that cap before unfolding it, so none of them
re-checks its input: nnf rejects what the tableau cannot compile, and the
lasso evaluator what it cannot evaluate.  check_ctls evaluates the reduced
state formula at each state as a lasso of one looping position.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from . import formula as fm
from .errors import GrammarError, ModelError, ResourceLimitError


class TransitionSystem:
    """Unlabeled-edge Kripke structure with a single initial state."""

    def __init__(self, states, initial, edges, labels):
        self.states = list(states)
        self.initial = initial
        self.succ: dict[str, list[str]] = {q: [] for q in self.states}
        for src, dst in edges:
            if dst not in self.succ[src]:
                self.succ[src].append(dst)
        self.labels = {q: frozenset(labels.get(q, ())) for q in self.states}

    def successors(self, state):
        return self.succ[state]

    def add_root(self, state, targets, label):
        """Add a state with these successors and label; nothing leads to it."""
        self.states.append(state)
        self.succ[state] = list(dict.fromkeys(targets))
        self.labels[state] = frozenset(label)

    def is_total(self):
        return all(self.succ[q] for q in self.states)

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
    """Generalized Buchi automaton over an alphabet of atom sets.

    State m is a valuation: its low bits say which atoms hold, one per name
    in atoms, and the bits above them which next-step promises it makes.
    step[promises << len(atoms) | letter] lists the states that read the
    letter (a label's atom bits) and fulfil exactly those promises: the
    successors, on that letter, of every state making them."""

    def __init__(self, atoms, initial, step, accepting):
        self.atoms = atoms  # sorted atom names
        self.states = range(len(step))
        self.initial = initial  # ascending state ids
        self.step = step
        self.accepting = accepting  # list of frozensets of state ids
        self.low = (1 << len(atoms)) - 1  # the atom bits of a state
        self._letters: dict[frozenset, int] = {}

    def letter(self, label):
        """The label's atom bits; each distinct label is projected once."""
        hit = self._letters.get(label)
        if hit is None:
            hit = self._letters[label] = sum(
                1 << i for i, a in enumerate(self.atoms) if a in label)
        return hit


def ltl_to_buchi(f: fm.Formula) -> BuchiAutomaton:
    """Tableau construction on the negation normal form: states are full
    valuations of the elementary formulas (the atoms plus one next-step
    obligation bit per X/U/R subformula), transitions make each obligation
    bit agree with the successor's truth, and one acceptance set per Until
    keeps its eventuality from being postponed forever.

    State m is the valuation whose bitmask is m: the sorted atoms take the
    low bits, the temporal nodes the bits above, in node-table order.  Each
    node is evaluated once, children first, into one int whose bit m is its
    truth under valuation m; the automaton is read off those columns."""
    nodes, kids = fm.node_table(fm.nnf(fm.expand_bounded(f)))
    atoms = sorted(g.name for g in nodes if type(g) is fm.Atom)
    n_atoms = len(atoms)
    n = n_atoms + sum(isinstance(g, (fm.Next, fm.Until, fm.Release))
                      for g in nodes)
    if n > fm.MAX_UNFOLD:
        raise ResourceLimitError(
            f"formula needs {n} elementary bits; "
            f"the tableau is capped at {fm.MAX_UNFOLD}")

    size = 1 << n
    every = (1 << size) - 1  # the column true under every valuation
    column = [(((1 << (1 << i)) - 1) << (1 << i))  # elementary bit i
              * (every // ((1 << (1 << (i + 1))) - 1)) for i in range(n)]
    truth = [0] * len(nodes)
    promised = []  # per temporal bit, the column its promise asserts next
    accepting = []
    for i, g in enumerate(nodes):
        kind, x = type(g), [truth[k] for k in kids[i]]
        if kind is fm.Atom:
            out = column[atoms.index(g.name)]
        elif kind is fm.TrueFormula:
            out = every
        elif kind is fm.FalseFormula:
            out = 0
        elif kind is fm.Not:  # NNF: negation only wraps atoms
            out = every ^ x[0]
        elif kind is fm.And:
            out = x[0] & x[1]
        elif kind is fm.Or:
            out = x[0] | x[1]
        elif kind is fm.Next:
            out = column[n_atoms + len(promised)]
            promised.append(x[0])
        elif kind is fm.Until:
            out = x[1] | (x[0] & column[n_atoms + len(promised)])
            promised.append(out)
            accepting.append(frozenset(_members((every ^ out) | x[1])))
        else:  # Release: nnf leaves no other node
            out = x[1] & (x[0] | column[n_atoms + len(promised)])
            promised.append(out)
        truth[i] = out

    next_vec = [0] * size
    for j, col in enumerate(promised):
        bit = 1 << j
        for m in _members(col):
            next_vec[m] |= bit
    step = [[] for _ in range(size)]
    low = (1 << n_atoms) - 1
    for m in range(size):
        step[next_vec[m] << n_atoms | m & low].append(m)
    return BuchiAutomaton(atoms, _members(truth[-1]), step, accepting)


def _members(col):
    """Set bit positions of a column, ascending."""
    return [m for m, ch in enumerate(bin(col)[:1:-1]) if ch == "1"]


# ---------------------------------------------------------------------------
# Product exploration and emptiness
# ---------------------------------------------------------------------------

class _Product:
    """The product of a transition system and a Buchi automaton, explored
    on demand by one incremental Tarjan.

    Each call continues the same exploration from new start nodes, so every
    node's successors are computed once however many states are asked
    about.  SCCs complete sinks first, so when one completes every node it
    leads to is decided: `good` holds the nodes that reach an accepting
    SCC, and `accepting` maps each member of an accepting SCC to that SCC's
    sorted members."""

    def __init__(self, ts, labels, buchi):
        self.ts, self.labels, self.buchi = ts, labels, buchi
        self._succ: dict = {}
        self._index: dict = {}
        self._low: dict = {}
        self.good: set = set()
        self.accepting: dict = {}

    def starts(self, q):
        buchi = self.buchi
        letter, low = buchi.letter(self.labels[q]), buchi.low
        return [(q, b) for b in buchi.initial if b & low == letter]

    def succ(self, node):
        hit = self._succ.get(node)
        if hit is None:
            q, b = node
            buchi, labels = self.buchi, self.labels
            step, letter = buchi.step, buchi.letter
            promises = b & ~buchi.low
            hit = []
            for q2 in self.ts.successors(q):
                for b2 in step[promises | letter(labels[q2])]:
                    hit.append((q2, b2))
            self._succ[node] = hit
        return hit

    def nonempty_from(self, q) -> bool:
        """Does some accepting run of the product start at state q?"""
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
        succ, good = self.succ, self.good
        if ((len(comp) > 1 or comp[0] in succ(comp[0]))
                and all(any(n[1] in acc for n in comp)
                        for acc in self.buchi.accepting)):
            members = sorted(comp)
            for n in comp:
                self.accepting[n] = members
            good.update(comp)
        elif any(nxt in good for n in comp for nxt in succ(n)):
            good.update(comp)

    def lasso(self, q):
        """(stem nodes, loop nodes) of an accepting run from state q, or
        None.  The stem is a shortest path through good nodes to an
        accepting SCC; the loop closes through one member of each
        acceptance set."""
        if not self.nonempty_from(q):
            return None
        good, succ = self.good, self.succ
        stem = _bfs_path([s for s in self.starts(q) if s in good],
                         self.accepting.__contains__,
                         lambda n: [x for x in succ(n) if x in good])
        anchor = stem[-1]
        members = self.accepting[anchor]
        comp = set(members)

        def in_comp(node):
            return [x for x in succ(node) if x in comp]

        targets = []
        for acc in self.buchi.accepting:
            hit = next(n for n in members if n[1] in acc)
            if hit not in targets:
                targets.append(hit)
        loop = []
        cur = anchor
        for t in targets:
            if cur != t:
                loop.extend(_bfs_path([cur], t.__eq__, in_comp)[1:])
                cur = t
        loop.extend(_bfs_path(in_comp(cur), anchor.__eq__, in_comp))
        return stem[:-1], [anchor] + loop[:-1]


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
    n_stem, n = len(stem), len(word)
    # the word's positions as a transition system: the last closes the loop
    ts = TransitionSystem(range(n), 0,
                          [(i, i + 1 if i + 1 < n else n_stem)
                           for i in range(n)], dict(enumerate(word)))
    return _Product(ts, ts.labels, buchi).nonempty_from(0)


# ---------------------------------------------------------------------------
# Lasso evaluation (fixpoint over the finite position graph)
# ---------------------------------------------------------------------------

def eval_on_lasso(f: fm.Formula, stem_labels, loop_labels) -> bool:
    """Truth of a pure path formula on the word stem . loop^omega.

    Each node of the formula's table is evaluated once, children first,
    into one int whose bit i is its truth at position i of the word; U and
    F are least fixpoints, R and G greatest ones."""
    nodes, kids = fm.node_table(fm.expand_bounded(f))
    stem, loop = list(stem_labels), list(loop_labels)
    if not loop:
        raise ModelError("lasso loop must be non-empty")
    labels, n_stem, last = stem + loop, len(stem), len(stem) + len(loop) - 1
    every = (1 << len(labels)) - 1

    def after(x):  # the positions whose successor is in x
        return x >> 1 | (x >> n_stem & 1) << last

    truth = [0] * len(nodes)
    cause: dict[int, int] = {}  # node -> the unevaluable node to name
    for i, g in enumerate(nodes):
        kind, x = type(g), [truth[k] for k in kids[i]]
        if kind is fm.Atom:
            out = sum(1 << j for j, label in enumerate(labels)
                      if g.name in label)
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
        elif kind is fm.Implies:
            out = (every ^ x[0]) | x[1]
        elif kind is fm.Next:
            out = after(x[0])
        elif kind is fm.Until or kind is fm.Eventually:
            left, out = x if kind is fm.Until else (every, x[0])
            while (grown := out | (left & after(out))) != out:
                out = grown
        elif kind is fm.Release or kind is fm.Always:
            left, right = x if kind is fm.Release else (0, x[0])
            out = every
            while (shrunk := right & (left | after(out))) != out:
                out = shrunk
        else:  # not a path formula; its parents are still walked
            cause[i] = i
            continue
        if cause and (below := [cause[k] for k in kids[i] if k in cause]):
            cause[i] = below[0]  # the leftmost, as a top-down walk meets it
        truth[i] = out
    if cause:
        raise GrammarError(
            f"cannot evaluate {type(nodes[cause[len(nodes) - 1]]).__name__} "
            f"on a lasso", production="ltl")
    return bool(truth[-1] & 1)


# ---------------------------------------------------------------------------
# State-subformula reduction and the public checks
# ---------------------------------------------------------------------------

class _Reducer:
    """Replaces path-quantified subformulas by fresh atoms, innermost first.

    Input formulas have their bounded operators expanded already."""

    def __init__(self, ts: TransitionSystem):
        self.ts = ts
        self.labels = dict(ts.labels)
        self.counter = itertools.count()
        self.cache: dict = {}

    def reduce(self, f):
        if isinstance(f, (fm.Cstit, fm.Dstit)):
            raise GrammarError("stit operator is not part of CTL*",
                               production="ctl-star")
        if isinstance(f, (fm.ForallPaths, fm.ExistsPaths)):
            inner = self.reduce(f.operand)
            node = type(f)(inner)
            if node in self.cache:
                return self.cache[node]
            if isinstance(f, fm.ForallPaths):
                sat = set(self.ts.states) - self._e_sat(fm.Not(inner))
            else:
                sat = self._e_sat(inner)
            name = f"@q{next(self.counter)}"
            for q in self.ts.states:
                if q in sat:
                    self.labels[q] = self.labels[q] | {name}
            atom = fm.Atom(name)
            self.cache[node] = atom
            return atom
        parts = fm.children(f)
        if not parts:
            return f
        if isinstance(f, (fm.Not, fm.Next, fm.Eventually, fm.Always)):
            return type(f)(self.reduce(f.operand))
        if isinstance(f, (fm.And, fm.Or, fm.Implies, fm.Until, fm.Release)):
            return type(f)(self.reduce(f.left), self.reduce(f.right))
        raise GrammarError(f"cannot reduce {type(f).__name__}",
                           production="ctl-star")

    def _e_sat(self, psi):
        """States from which some path satisfies psi."""
        product = _Product(self.ts, self.labels, ltl_to_buchi(psi))
        return {q for q in self.ts.states if product.nonempty_from(q)}


class Universality:
    """Does every infinite path from a state satisfy one formula?

    Built once per formula and system, and asked for any number of states:
    the path quantifiers are reduced to atoms once over the whole system,
    the negation is compiled to one Buchi automaton, and one product
    exploration continues from each state asked about.  A counterexample
    is built only when asked for.  A path into a dead end is not a run, so
    the callers rule out reachable dead ends (check_universal, mc)."""

    def __init__(self, ts: TransitionSystem, f: fm.Formula):
        self.formula = f
        reducer = _Reducer(ts)
        self.reduced = reducer.reduce(fm.expand_bounded(f))
        self.labels = reducer.labels
        self.product = _Product(ts, self.labels,
                                ltl_to_buchi(fm.Not(self.reduced)))

    def holds_from(self, q) -> bool:
        return not self.product.nonempty_from(q)

    def counterexample(self, q) -> Counterexample | None:
        """A lasso from q violating the formula, or None if it holds at q.
        The lasso is re-validated by direct evaluation before it is
        returned."""
        found = self.product.lasso(q)
        if found is None:
            return None
        stem = tuple(n[0] for n in found[0])
        loop = tuple(n[0] for n in found[1])
        if eval_on_lasso(self.reduced, [self.labels[s] for s in stem],
                         [self.labels[s] for s in loop]):
            raise AssertionError("internal error: counterexample does not "
                                 "violate the formula")
        return Counterexample(stem, loop, self.formula)


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
    reducer = _Reducer(ts)
    reduced = reducer.reduce(fm.expand_bounded(f))
    for g in fm.walk(reduced):
        if isinstance(g, (fm.Next, fm.Until, fm.Release, fm.Eventually,
                          fm.Always)):
            raise GrammarError(
                "not a state formula: a temporal operator escapes every "
                "path quantifier", production="state-formula")
    return {q for q in ts.states
            if eval_on_lasso(reduced, [], [reducer.labels[q]])}

