"""Acceptance of one ultimately periodic word by a Buchi automaton: the
word's positions as a transition system whose last position closes the
loop, and ctlstar._Product's emptiness search from its first position.
The tests compare automata by the words they accept with it; the checker
itself never asks about a single word.
"""

from deontic_mc.ctlstar import BuchiAutomaton, TransitionSystem, _Product
from deontic_mc.errors import ModelError


def buchi_accepts(buchi: BuchiAutomaton, stem_labels, loop_labels) -> bool:
    """Does the automaton accept the ultimately periodic word stem.loop^omega?"""
    stem = [frozenset(x) for x in stem_labels]
    word = stem + [frozenset(x) for x in loop_labels]
    if len(word) == len(stem):
        raise ModelError("lasso loop must be non-empty")
    n_stem, n = len(stem), len(word)
    ts = TransitionSystem(range(n), 0,
                          [(i, i + 1 if i + 1 < n else n_stem)
                           for i in range(n)], dict(enumerate(word)))
    return _Product(ts, ts.labels, buchi).nonempty_from(0)
