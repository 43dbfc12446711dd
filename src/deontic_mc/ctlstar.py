"""CTL*/LTL model checking over the unweighted view of a stit automaton.

The pipeline is the classical one: path formulas compile to a generalized
Buchi automaton through the declarative tableau construction (states are
consistent valuations of the formula's atoms and next-step obligations),
state subformulas reduce to fresh atoms by recursive labeling, and
universality is emptiness of the product with the negation.  Returned
counterexamples are re-checked by direct lasso evaluation before they leave
this module.

The tableau is built with bitsets: each subformula's truth under all 2^n
valuations of the n elementary formulas is one Python int, computed once
with &, | and ^, so no formula is looked up per valuation.
"""

from __future__ import annotations

import itertools
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

    def reads(self, state, label):
        return self.state_atoms[state] == (frozenset(label) & self.atoms)


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
# Product graph, SCCs, emptiness
# ---------------------------------------------------------------------------

def _product_nodes(ts, labels, buchi):
    nodes = []
    for q in ts.states:
        lab = labels[q]
        for b in buchi.states:
            if buchi.reads(b, lab):
                nodes.append((q, b))
    return nodes


def _product_succ(ts, labels, buchi, node):
    q, b = node
    out = []
    for q2 in ts.successors(q):
        lab2 = labels[q2]
        for b2 in buchi.succ[b]:
            if buchi.reads(b2, lab2):
                out.append((q2, b2))
    return out


def _sccs(nodes, succ):
    """Tarjan; returns SCCs in reverse topological order of discovery."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = itertools.count()
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = next(counter)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if not advanced:
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
                    sccs.append(comp)
    return sccs


def _accepting_scc(members, succ, accepting, buchi_of):
    """Does this SCC witness acceptance (non-trivial, hits every set)?"""
    mset = set(members)
    nontrivial = len(members) > 1 or any(
        m in succ(m) for m in members)
    if not nontrivial:
        return False
    for acc in accepting:
        if not any(buchi_of(m) in acc for m in members):
            return False
    return True


def _bfs_path(starts, goal_test, succ):
    """Shortest node path from any start to a goal (inclusive), or None."""
    from collections import deque
    prev = {}
    seen = set()
    queue = deque()
    for s in starts:
        if s in seen:
            continue
        seen.add(s)
        queue.append(s)
        prev[s] = None
    while queue:
        node = queue.popleft()
        if goal_test(node):
            path = []
            while node is not None:
                path.append(node)
                node = prev[node]
            return list(reversed(path))
        for nxt in succ(node):
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = node
                queue.append(nxt)
    return None


def _find_accepting_lasso(ts, labels, buchi, start_nodes):
    """(stem nodes, loop nodes) of an accepting run, or None if empty."""
    succ_cache: dict = {}

    def succ(node):
        hit = succ_cache.get(node)
        if hit is None:
            hit = _product_succ(ts, labels, buchi, node)
            succ_cache[node] = hit
        return hit

    # Tarjan rooted at the starts visits exactly the reachable nodes
    target_scc = None
    for comp in _sccs(start_nodes, succ):
        if _accepting_scc(comp, succ, buchi.accepting, lambda n: n[1]):
            target_scc = sorted(comp)
            break
    if target_scc is None:
        return None
    comp_set = set(target_scc)

    def in_comp(node):
        return [x for x in succ(node) if x in comp_set]

    stem_path = _bfs_path(start_nodes, lambda n: n in comp_set, succ)
    anchor = stem_path[-1]
    # close a loop from the anchor through one member of each acceptance set
    loop = []
    cur = anchor
    targets = []
    for acc in buchi.accepting:
        hit = next((n for n in target_scc if n[1] in acc), None)
        if hit is not None and hit not in targets:
            targets.append(hit)
    for t in targets:
        if cur == t:
            continue
        seg = _bfs_path([cur], lambda n: n == t, in_comp)
        loop.extend(seg[1:])
        cur = t
    back = _bfs_path(in_comp(cur), lambda n: n == anchor, in_comp)
    loop.extend(back)
    return stem_path[:-1], [anchor] + loop[:-1]


def buchi_accepts(buchi: BuchiAutomaton, stem_labels, loop_labels) -> bool:
    """Does the automaton accept the ultimately periodic word stem.loop^omega?"""
    stem_labels = [frozenset(x) for x in stem_labels]
    loop_labels = [frozenset(x) for x in loop_labels]
    n_stem, n = len(stem_labels), len(stem_labels) + len(loop_labels)
    labels = stem_labels + loop_labels

    def pos_succ(i):
        return i + 1 if i + 1 < n else n_stem

    def succ(node):
        i, b = node
        j = pos_succ(i)
        return [(j, b2) for b2 in buchi.succ[b] if buchi.reads(b2, labels[j])]

    starts = [(0, b) for b in buchi.initial if buchi.reads(b, labels[0])]
    for comp in _sccs(starts, succ):
        if _accepting_scc(comp, succ, buchi.accepting, lambda node: node[1]):
            return True
    return False


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
        buchi = ltl_to_buchi(psi)
        succ_cache: dict = {}

        def succ(node):
            hit = succ_cache.get(node)
            if hit is None:
                hit = _product_succ(self.ts, self.labels, buchi, node)
                succ_cache[node] = hit
            return hit

        # good = nodes that reach an accepting SCC; Tarjan emits sinks
        # first, so every successor component is decided before its callers
        good = set()
        for comp in _sccs(_product_nodes(self.ts, self.labels, buchi), succ):
            if (_accepting_scc(comp, succ, buchi.accepting, lambda n: n[1])
                    or any(nxt in good for m in comp for nxt in succ(m))):
                good.update(comp)
        return {q for q in self.ts.states
                if any((q, b) in good for b in buchi.initial
                       if buchi.reads(b, self.labels[q]))}


def check_universal(ts: TransitionSystem, f: fm.Formula):
    """Does every infinite path from the initial state satisfy f?

    Returns (True, None) or (False, counterexample); the counterexample is
    re-validated by direct lasso evaluation before being returned.
    """
    ts.require_total()
    reducer = _Reducer(ts)
    reduced = reducer.reduce(fm.expand_bounded(f))
    buchi = ltl_to_buchi(fm.Not(reduced))
    starts = [(ts.initial, b) for b in buchi.initial
              if buchi.reads(b, reducer.labels[ts.initial])]
    found = _find_accepting_lasso(ts, reducer.labels, buchi, starts)
    if found is None:
        return True, None
    stem_nodes, loop_nodes = found
    stem = tuple(q for q, _ in stem_nodes)
    loop = tuple(q for q, _ in loop_nodes)
    word_stem = [reducer.labels[q] for q in stem]
    word_loop = [reducer.labels[q] for q in loop]
    if eval_on_lasso(reduced, word_stem, word_loop):
        raise AssertionError("internal error: counterexample does not violate "
                             "the formula")
    return False, Counterexample(stem, loop, f)


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
