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

The tableau is built with bitsets: each subformula's truth under all 2^n
valuations of the n elementary formulas is one Python int, computed once
with &, | and ^, so no formula is looked up per valuation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from . import formula as fm
from .errors import GrammarError, ModelError, ResourceLimitError

_MAX_ELEMENTARY = 16


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
    """Generalized Buchi automaton over an alphabet of atom sets."""

    def __init__(self, atoms, states, initial, succ, accepting, state_atoms):
        self.atoms = frozenset(atoms)
        self.states = states  # list of opaque state ids (ints)
        self.initial = initial  # list of state ids
        self.succ = succ  # id -> list of ids
        self.accepting = accepting  # list of frozensets of ids
        self.state_atoms = state_atoms  # id -> frozenset of atom names
        self._by_atoms: dict[frozenset, set] = {}  # atom set -> its states
        self._reading: dict[frozenset, set] = {}   # label -> states reading it

    def reading(self, label):
        """The states whose atom set is the label restricted to the
        automaton's atoms.  Each distinct label is projected once, and the
        states of each atom set that is asked for are collected once."""
        hit = self._reading.get(label)
        if hit is None:
            atoms = frozenset(label) & self.atoms
            hit = self._by_atoms.get(atoms)
            if hit is None:
                hit = self._by_atoms[atoms] = {
                    b for b, own in self.state_atoms.items() if own == atoms}
            self._reading[label] = hit
        return hit


_TEMPORAL = (fm.Next, fm.Until, fm.Release)


def _check_buchi_input(f):
    for g in fm.walk(f):
        if isinstance(g, (fm.ForallPaths, fm.ExistsPaths)):
            raise GrammarError("path quantifier in LTL-to-Buchi input",
                               production="ltl")
        if isinstance(g, (fm.Cstit, fm.Dstit)):
            raise GrammarError("stit operator in LTL-to-Buchi input",
                               production="ltl")
        if isinstance(g, (fm.NextPow, fm.EventuallyBounded, fm.BoundedRelease)):
            raise GrammarError("bounded operator must be expanded first",
                               production="ltl")


def ltl_to_buchi(f: fm.Formula) -> BuchiAutomaton:
    """Tableau construction on the negation normal form: states are full
    valuations of the elementary formulas (the atoms plus one next-step
    obligation bit per X/U/R subformula), transitions make each obligation
    bit agree with the successor's truth, and one acceptance set per Until
    keeps its eventuality from being postponed forever.

    The construction is bit-parallel.  Valuation m is the bitmask of the
    elementary formulas it makes true, and each subformula is evaluated
    once, into one int whose bit m is its truth under valuation m; the
    automaton's parts are read off the set bits of those columns.  States
    are numbered by size, then lexicographically (``itertools.combinations``
    order over the elementary formulas)."""
    f = fm.nnf(fm.expand_bounded(f))
    _check_buchi_input(f)
    atoms = sorted(fm.atoms_of(f))
    temporals = [g for g in _dedup(fm.walk(f)) if isinstance(g, _TEMPORAL)]
    elementary = [fm.Atom(a) for a in atoms] + temporals
    n = len(elementary)
    if n > _MAX_ELEMENTARY:
        raise ResourceLimitError(
            f"formula needs {n} elementary bits; "
            f"the tableau is capped at {_MAX_ELEMENTARY}")

    size = 1 << n
    every = (1 << size) - 1  # the column true under every valuation
    column = {g: (((1 << (1 << i)) - 1) << (1 << i))
              * (every // ((1 << (1 << (i + 1))) - 1))
              for i, g in enumerate(elementary)}
    truth = _truth_columns([f] + [g.operand for g in temporals
                                  if isinstance(g, fm.Next)], column, every)

    # state id -> valuation mask, and back
    bits = [1 << i for i in range(n)]
    order = [sum(c) for r in range(n + 1)
             for c in itertools.combinations(bits, r)]
    rank = [0] * size
    for i, m in enumerate(order):
        rank[m] = i

    next_vec = [0] * size
    for j, g in enumerate(temporals):
        # the value the promise bit of g at the PREVIOUS state asserts
        col = truth[g.operand] if isinstance(g, fm.Next) else truth[g]
        bit = 1 << j
        for m in _members(col):
            next_vec[m] |= bit
    by_vec: dict[int, list[int]] = {}
    for i, m in enumerate(order):
        by_vec.setdefault(next_vec[m], []).append(i)
    n_atoms = len(atoms)
    succ = {i: by_vec.get(m >> n_atoms, []) for i, m in enumerate(order)}
    initial = sorted(rank[m] for m in _members(truth[f]))
    accepting = [frozenset(rank[m] for m in
                           _members((every ^ truth[g]) | truth[g.right]))
                 for g in temporals if isinstance(g, fm.Until)]
    atom_sets = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
                 for m in range(1 << n_atoms)]
    low = (1 << n_atoms) - 1
    state_atoms = {i: atom_sets[m & low] for i, m in enumerate(order)}
    return BuchiAutomaton(atoms, list(range(size)), initial, succ,
                          accepting, state_atoms)


def _dedup(items):
    return list(dict.fromkeys(items))


def _members(col):
    """Set bit positions of a column, ascending."""
    return [m for m, ch in enumerate(bin(col)[:1:-1]) if ch == "1"]


def _truth_columns(roots, column, every):
    """Column of every subformula of the NNF roots, each evaluated once."""
    truth: dict = {}

    def of(g):
        hit = truth.get(g)
        if hit is not None:
            return hit
        if isinstance(g, (fm.Atom, fm.Next)):
            out = column[g]
        elif isinstance(g, fm.TrueFormula):
            out = every
        elif isinstance(g, fm.FalseFormula):
            out = 0
        elif isinstance(g, fm.Not):
            # NNF: negation only wraps atoms
            out = every ^ of(g.operand)
        elif isinstance(g, fm.And):
            out = of(g.left) & of(g.right)
        elif isinstance(g, fm.Or):
            out = of(g.left) | of(g.right)
        elif isinstance(g, fm.Until):
            out = of(g.right) | (of(g.left) & column[g])
        elif isinstance(g, fm.Release):
            out = of(g.right) & (of(g.left) | column[g])
        else:
            raise GrammarError(f"cannot compile {type(g).__name__} to Buchi",
                               production="ltl")
        truth[g] = out
        return out

    for g in roots:
        of(g)
    return truth


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
        ok = self.buchi.reading(self.labels[q])
        return [(q, b) for b in self.buchi.initial if b in ok]

    def succ(self, node):
        hit = self._succ.get(node)
        if hit is None:
            q, b = node
            buchi, labels = self.buchi, self.labels
            after = buchi.succ[b]
            hit = []
            for q2 in self.ts.successors(q):
                ok = buchi.reading(labels[q2])
                for b2 in after:
                    if b2 in ok:
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
    """Truth of a pure path formula on the word stem . loop^omega."""
    f = fm.expand_bounded(f)
    _check_buchi_input(f)
    stem_labels = [frozenset(x) for x in stem_labels]
    loop_labels = [frozenset(x) for x in loop_labels]
    if not loop_labels:
        raise ModelError("lasso loop must be non-empty")
    n_stem, n = len(stem_labels), len(stem_labels) + len(loop_labels)
    labels = stem_labels + loop_labels
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = n_stem
    memo: dict = {}

    def sets(g) -> frozenset:
        if g in memo:
            return memo[g]
        if isinstance(g, fm.Atom):
            out = frozenset(i for i in range(n) if g.name in labels[i])
        elif isinstance(g, fm.TrueFormula):
            out = frozenset(range(n))
        elif isinstance(g, fm.FalseFormula):
            out = frozenset()
        elif isinstance(g, fm.Not):
            out = frozenset(range(n)) - sets(g.operand)
        elif isinstance(g, fm.And):
            out = sets(g.left) & sets(g.right)
        elif isinstance(g, fm.Or):
            out = sets(g.left) | sets(g.right)
        elif isinstance(g, fm.Implies):
            out = (frozenset(range(n)) - sets(g.left)) | sets(g.right)
        elif isinstance(g, fm.Next):
            inner = sets(g.operand)
            out = frozenset(i for i in range(n) if succ[i] in inner)
        elif isinstance(g, fm.Until):
            left, right = sets(g.left), sets(g.right)
            cur = set(right)
            while True:
                grown = cur | {i for i in left if succ[i] in cur}
                if grown == cur:
                    break
                cur = grown
            out = frozenset(cur)
        elif isinstance(g, fm.Release):
            left, right = sets(g.left), sets(g.right)
            cur = set(range(n))
            while True:
                shrunk = {i for i in cur
                          if i in right and (i in left or succ[i] in cur)}
                if shrunk == cur:
                    break
                cur = shrunk
            out = frozenset(cur)
        elif isinstance(g, fm.Eventually):
            out = sets(fm.Until(fm.TRUE, g.operand))
        elif isinstance(g, fm.Always):
            out = sets(fm.Release(fm.FALSE, g.operand))
        else:
            raise GrammarError(f"cannot evaluate {type(g).__name__} on a lasso",
                               production="ltl")
        memo[g] = out
        return out

    return 0 in sets(f)


# ---------------------------------------------------------------------------
# State-subformula reduction and the public checks
# ---------------------------------------------------------------------------

def _expand_bounded(f):
    """fm.expand_bounded(f), refused first if one bounded operator alone
    unfolds past the tableau's cap: X^n, F[lo:n] and BR[n] each unfold into
    at least n next-step obligations, so ltl_to_buchi would refuse them,
    and the unfolding is as deep as n."""
    for g in fm.walk(f):
        if isinstance(g, fm.NextPow):
            op, n = f"X^{g.steps}", g.steps
        elif isinstance(g, fm.EventuallyBounded):
            op, n = f"F[{g.lo}:{g.hi}]", g.hi
        elif isinstance(g, fm.BoundedRelease):
            op, n = f"BR[{g.bound}]", g.bound
        else:
            continue
        if n > _MAX_ELEMENTARY:
            raise ResourceLimitError(
                f"{op} unfolds into {n} next-step obligations; the tableau "
                f"is capped at {_MAX_ELEMENTARY} elementary bits")
    return fm.expand_bounded(f)


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
        self.reduced = reducer.reduce(_expand_bounded(f))
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
    reduced = reducer.reduce(_expand_bounded(f))
    for g in fm.walk(reduced):
        if isinstance(g, (fm.Next, fm.Until, fm.Release, fm.Eventually,
                          fm.Always)):
            raise GrammarError(
                "not a state formula: a temporal operator escapes every "
                "path quantifier", production="state-formula")
    return {q for q in ts.states if _eval_prop(reduced, reducer.labels[q])}


def _eval_prop(f, label):
    if isinstance(f, fm.Atom):
        return f.name in label
    if isinstance(f, fm.TrueFormula):
        return True
    if isinstance(f, fm.FalseFormula):
        return False
    if isinstance(f, fm.Not):
        return not _eval_prop(f.operand, label)
    if isinstance(f, fm.And):
        return _eval_prop(f.left, label) and _eval_prop(f.right, label)
    if isinstance(f, fm.Or):
        return _eval_prop(f.left, label) or _eval_prop(f.right, label)
    if isinstance(f, fm.Implies):
        return not _eval_prop(f.left, label) or _eval_prop(f.right, label)
    raise GrammarError(f"not propositional: {type(f).__name__}",
                       production="state-formula")
