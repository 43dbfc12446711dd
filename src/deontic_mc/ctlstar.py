"""CTL*/LTL model checking over the unweighted view of a stit automaton.

The pipeline is the classical one: path formulas compile to a generalized
Buchi automaton through the declarative tableau construction (states are
consistent valuations of the formula's atoms and next-step obligations),
state subformulas reduce to fresh atoms by recursive labeling, and
universality is emptiness of the product with the negation.

Universality(ts, f) does this once per formula and system, and answers
from any number of states: the reduction labels every state once, the
negation is compiled once, and one depth-first search explores the product
on the fly, continuing from each state asked about and stopping at the
first cycle through every acceptance set (Couvreur's emptiness check on
Gabow's path-based SCC search).  The reducer's own E-checks use the same
exploration.  A counterexample lasso is built only when asked for and is
re-checked by direct lasso evaluation before it leaves this module.

Every pass is one loop over the rows of formula.compile, which each entry
point calls once, at the door; none recurses or hashes a formula.  The
reduction turns each quantified row into a fresh atom's row, the tableau
reads formula.nnf_rows of the reduced rows, and the lasso evaluator reads
them as they are.  Each row's truth under all 2^n valuations of the n
elementary formulas (n capped at formula.MAX_UNFOLD) is one Python int,
computed with &, | and ^.  A tableau state is the valuation itself, so the
product finds a state's successors by one list index per system successor.

compile refuses one bounded operator past that cap, the tableau nested
ones past it, so no entry point re-checks its input: nnf_rows rejects what
the tableau cannot compile, and the lasso evaluator what it cannot evaluate.
check_ctls evaluates the reduced state formula at each state as a lasso of
one looping position.
"""

from __future__ import annotations

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
    successors, on that letter, of every state making them.  Bit j of
    accepting[m] says that state m is in acceptance set j; full has the
    bit of every set."""

    def __init__(self, atoms, initial, step, accepting, full):
        self.atoms = atoms  # sorted atom names
        self.states = range(len(step))
        self.initial = initial  # ascending state ids
        self.step = step
        self.accepting = accepting
        self.full = full
        self.low = (1 << len(atoms)) - 1  # the atom bits of a state
        self._letters: dict[frozenset, int] = {}

    def letter(self, label):
        """The label's atom bits; each distinct label is projected once."""
        hit = self._letters.get(label)
        if hit is None:
            hit = self._letters[label] = sum(
                1 << i for i, a in enumerate(self.atoms) if a in label)
        return hit


def ltl_to_buchi(f) -> BuchiAutomaton:
    """Tableau construction on the negation normal form: states are full
    valuations of the elementary formulas (the atoms plus one next-step
    obligation bit per X/U/R subformula), transitions make each obligation
    bit agree with the successor's truth, and one acceptance set per Until
    keeps its eventuality from being postponed forever.

    f is a formula, compiled here, or the rows of one (formula.compile).
    State m is the valuation whose bitmask is m: the sorted atoms take the
    low bits, the temporal rows the bits above, in formula.nnf_rows order.
    Each row is evaluated once, children first, into one int whose bit m is
    its truth under valuation m; the automaton is read off those columns."""
    rows = fm.nnf_rows(f if type(f) is tuple else fm.compile(f))
    atoms = sorted(data for kind, data, _ in rows if kind is fm.Atom)
    n_atoms = len(atoms)
    n = n_atoms + sum(kind in (fm.Next, fm.Until, fm.Release)
                      for kind, _, _ in rows)
    if n > fm.MAX_UNFOLD:
        raise ResourceLimitError(
            f"formula needs {n} elementary bits; "
            f"the tableau is capped at {fm.MAX_UNFOLD}")

    size = 1 << n
    every = (1 << size) - 1  # the column true under every valuation
    column = [(((1 << (1 << i)) - 1) << (1 << i))  # elementary bit i
              * (every // ((1 << (1 << (i + 1))) - 1)) for i in range(n)]
    truth = []
    promised = []  # per temporal bit, the column its promise asserts next
    accepting = []
    for kind, data, kids in rows:
        x = [truth[k] for k in kids]
        if kind is fm.Atom:
            out = column[atoms.index(data)]
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
            accepting.append((every ^ out) | x[1])
        else:  # Release: nnf_rows leaves no other row
            out = x[1] & (x[0] | column[n_atoms + len(promised)])
            promised.append(out)
        truth.append(out)

    next_vec, acc = [0] * size, [0] * size  # per state: promises, sets
    for vec, cols in ((next_vec, promised), (acc, accepting)):
        for j, col in enumerate(cols):
            bit = 1 << j
            for m in _members(col):
                vec[m] |= bit
    step = [[] for _ in range(size)]
    low = (1 << n_atoms) - 1
    for m in range(size):
        step[next_vec[m] << n_atoms | m & low].append(m)
    return BuchiAutomaton(atoms, _members(truth[-1]), step, acc,
                          (1 << len(accepting)) - 1)


def _members(col):
    """Set bit positions of a column, ascending."""
    return [m for m, ch in enumerate(bin(col)[:1:-1]) if ch == "1"]


# ---------------------------------------------------------------------------
# Product exploration and emptiness
# ---------------------------------------------------------------------------

class _Product:
    """The product of a transition system and a Buchi automaton, explored
    on demand by one depth-first search that stops at the first accepting
    cycle it closes.

    Each call continues the same exploration from new start nodes, so every
    node's successors are computed once however many states are asked
    about.  Between calls every explored node is decided: `good` holds
    nodes that reach a cycle through every acceptance set, `_bad` nodes
    that reach none, and `accepting` maps each node on such a cycle to the
    strongly connected nodes it was found among."""

    def __init__(self, ts, labels, buchi):
        self.ts, self.labels, self.buchi = ts, labels, buchi
        self._succ: dict = {}
        self.good: set = set()
        self._bad: set = set()
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
        return any(self._search(s) for s in self.starts(q))

    def _search(self, root):
        """Is root good?  Depth first from root, with roots holding one
        [stack position, acceptance bits] per partial SCC on the stack: a
        back edge merges those above its target, ORing their bits, and bits
        covering every set close an accepting cycle in that stack segment.
        Then, or on an edge into a good node, the whole stack is good; an
        SCC that completes first is popped as not good."""
        good, bad, succ = self.good, self._bad, self.succ
        acc, full = self.buchi.accepting, self.buchi.full
        stack, pos, roots = [], {}, [[-1, 0]]
        work = [(-1, iter([root]))]  # a frame below root, leading to it
        while work:
            i, it = work[-1]
            for nxt in it:
                if nxt in good:
                    break
                if nxt in bad:
                    continue
                j = pos.get(nxt)
                if j is None:
                    pos[nxt] = j = len(stack)
                    stack.append(nxt)
                    roots.append([j, acc[nxt[1]]])
                    work.append((j, iter(succ(nxt))))
                    break
                while roots[-1][0] > j:
                    bits = roots.pop()[1]
                    roots[-1][1] |= bits
                top = roots[-1]
                if top[1] == full:
                    members = stack[top[0]:]
                    for n in members:
                        self.accepting[n] = members
                    good.update(members)
                    break
            else:
                work.pop()
                if roots[-1][0] == i:
                    roots.pop()
                    bad.update(stack[i:])
                    del stack[i:]
                continue
            if nxt in good:
                good.update(stack)
                return True
        return False

    def lasso(self, q):
        """(stem nodes, loop nodes) of an accepting run from state q, or
        None.  The stem is a shortest path through good nodes to an
        accepting cycle's nodes; the loop closes through one member of each
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

        acc, need = self.buchi.accepting, self.buchi.full
        loop, cur = [], anchor
        for t in members:  # the first member of each set, in stack order
            if acc[t[1]] & need:
                need &= ~acc[t[1]]
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

def eval_on_lasso(f, stem_labels, loop_labels) -> bool:
    """Truth of a pure path formula on the word stem . loop^omega.

    f is a formula, compiled here, or the rows of one (formula.compile).
    Each row is evaluated once, children first, into one int whose bit i
    is its truth at position i of the word; U and F are least fixpoints, R
    and G greatest ones."""
    rows = f if type(f) is tuple else fm.compile(f)
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
    """(rows, labels): a formula's rows with each path-quantified row
    replaced by a fresh atom's row, innermost first, and the system's
    labels with each fresh atom added to the states that satisfy its row.
    The quantified rows' operands stay, for their own tableaux, and each
    distinct quantified subformula is one row, so it is checked once."""
    rows, labels = list(rows), dict(ts.labels)
    fresh = 0
    for i, (kind, _, kids) in enumerate(rows):
        if kind is fm.Cstit or kind is fm.Dstit:
            raise GrammarError("stit operator is not part of CTL*",
                               production="ctl-star")
        if kind is fm.ForallPaths or kind is fm.ExistsPaths:
            # E psi: some path satisfies psi; A psi: none satisfies !psi
            k, exists = kids[0], kind is fm.ExistsPaths
            psi = tuple(rows[:k + 1])
            if not exists:
                psi += ((fm.Not, None, (k,)),)
            product = _Product(ts, labels, ltl_to_buchi(psi))
            name = f"@q{fresh}"
            fresh += 1
            labels.update({q: labels[q] | {name} for q in ts.states
                           if product.nonempty_from(q) == exists})
            rows[i] = (fm.Atom, name, ())
    return tuple(rows), labels


class Universality:
    """Does every infinite path from a state satisfy one formula?

    Built once per formula and system, and asked for any number of states:
    the path quantifiers are reduced to atoms once over the whole system,
    the negation is compiled to one Buchi automaton, and one product
    search continues from each state asked about, up to a first violating
    run.  A counterexample is built only when asked for.  A path into a
    dead end is not a run, so the callers rule out reachable dead ends
    (check_universal, mc)."""

    def __init__(self, ts: TransitionSystem, f: fm.Formula):
        self.formula = f
        self.reduced, self.labels = _reduce(ts, fm.compile(f))
        negation = ((fm.Not, None, (len(self.reduced) - 1,)),)
        self.product = _Product(ts, self.labels,
                                ltl_to_buchi(self.reduced + negation))

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
    rows, labels = _reduce(ts, fm.compile(f))
    temporal = (fm.Next, fm.Until, fm.Release, fm.Eventually, fm.Always)
    escapes = []  # per row: has it a temporal operator outside quantifiers?
    for kind, _, kids in rows:
        escapes.append(kind in temporal or any(escapes[k] for k in kids))
    if escapes[-1]:
        raise GrammarError(
            "not a state formula: a temporal operator escapes every "
            "path quantifier", production="state-formula")
    return {q for q in ts.states if eval_on_lasso(rows, [], [labels[q]])}
