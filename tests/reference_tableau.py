"""The LTL-to-Buchi tableau built eagerly over every valuation: the
reference that deontic_mc.ctlstar's on-demand node expansion is compared
against, by the language each automaton accepts.

State m is the valuation whose bitmask is m over the n elementary formulas:
the sorted atoms take the low bits, the Next, Until and Release rows of
reference_nnf.nnf_rows the bits above, in row order.  Each row is evaluated
once, children first, into one int whose bit m is its truth under valuation m,
and the automaton is read off those columns: transitions make each
next-step bit agree with the successor's truth, and one acceptance set per
Until keeps its eventuality from being postponed forever.  It has 2^n
states, so it refuses formulas with more than CAP elementary bits.

It offers what ctlstar._Product reads of an automaton: a key is a state's
promise bits (its temporal bits) or initial, the one bit above them that
starts a word, ORed with a letter, and expand(key) lists the states that
fulfil the promises and read the letter.
"""

from deontic_mc import formula as fm
from deontic_mc.ctlstar import BuchiAutomaton
from deontic_mc.errors import ResourceLimitError
from reference_nnf import nnf_rows

CAP = 16


class EagerBuchi:
    def __init__(self, atoms, states, initial, initial_states, step,
                 accepting, full):
        self.atoms = atoms  # sorted atom names
        self.low = (1 << len(atoms)) - 1  # the atom bits of a state
        self.states = states
        self.initial = initial
        self.initial_states = initial_states  # ascending
        self.step = step
        self.nexts = [m & ~self.low for m in states]
        self.free = [False] * len(states)  # so the search expands every node
        self.accepting = accepting
        self.full = full
        self._letters: dict = {}

    letter = BuchiAutomaton.letter

    def expand(self, key):
        return self.step.setdefault(key, [])


def eager_ltl_to_buchi(f) -> EagerBuchi:
    """The eager tableau of a path formula, or of its rows as written
    (formula.compile(f))."""
    rows = nnf_rows(f if type(f) is tuple else fm.compile(f))
    atoms = sorted(data for kind, data, _ in rows if kind is fm.Atom)
    n_atoms = len(atoms)
    n = n_atoms + sum(kind in (fm.Next, fm.Until, fm.Release)
                      for kind, _, _ in rows)
    if n > CAP:
        raise ResourceLimitError(
            f"formula needs {n} elementary bits; the eager tableau is "
            f"capped at {CAP}")

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
            for m in members(col):
                vec[m] |= bit
    low = (1 << n_atoms) - 1
    step: dict = {}
    for m in range(size):
        step.setdefault(next_vec[m] << n_atoms | m & low, []).append(m)
    initial, initial_states = 1 << n, members(truth[-1])
    for m in initial_states:
        step.setdefault(initial | m & low, []).append(m)
    return EagerBuchi(atoms, range(size), initial, initial_states, step,
                      acc, (1 << len(accepting)) - 1)


def members(col):
    """Set bit positions of a column, ascending."""
    return [m for m, ch in enumerate(bin(col)[:1:-1]) if ch == "1"]
