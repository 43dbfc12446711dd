"""Independent brute-force machinery for the test suites.

Everything here deliberately avoids the package's evaluation paths: formulas
are evaluated on ultimately periodic words by bounded scanning (not by the
package's fixpoint labeling or Buchi products), histories of an automaton
are enumerated as explicit lassos (stems and loops bounded by the state
count), and the dominance ought is decided straight from its definition.
"""

from __future__ import annotations

from fractions import Fraction

from deontic_mc import formula as fm


# ---------------------------------------------------------------------------
# Scan-style LTL evaluation on ultimately periodic words
# ---------------------------------------------------------------------------

def scan_eval(f: fm.Formula, stem_labels, loop_labels, pos: int = 0) -> bool:
    """Truth of a quantifier-free formula on stem.loop^omega by scanning.

    Any until-style eventuality on an ultimately periodic word has a witness
    before S + 2L, so scanning that window with canonicalized positions is
    exact.
    """
    stem_labels = [frozenset(x) for x in stem_labels]
    loop_labels = [frozenset(x) for x in loop_labels]
    s_len, l_len = len(stem_labels), len(loop_labels)
    horizon = s_len + 2 * l_len
    memo: dict = {}

    def canon(i: int) -> int:
        return i if i < s_len else s_len + (i - s_len) % l_len

    def label(i: int):
        i = canon(i)
        return stem_labels[i] if i < s_len else loop_labels[i - s_len]

    def ev(g, i: int) -> bool:
        i = canon(i)
        key = (g, i)
        if key in memo:
            return memo[key]
        memo[key] = out = _scan(g, i)
        return out

    def _scan(g, i: int) -> bool:
        if isinstance(g, fm.Atom):
            return g.name in label(i)
        if isinstance(g, fm.TrueFormula):
            return True
        if isinstance(g, fm.FalseFormula):
            return False
        if isinstance(g, fm.Not):
            return not ev(g.operand, i)
        if isinstance(g, fm.And):
            return ev(g.left, i) and ev(g.right, i)
        if isinstance(g, fm.Or):
            return ev(g.left, i) or ev(g.right, i)
        if isinstance(g, fm.Implies):
            return not ev(g.left, i) or ev(g.right, i)
        if isinstance(g, fm.Next):
            return ev(g.operand, i + 1)
        if isinstance(g, fm.NextPow):
            return ev(g.operand, i + g.steps)
        if isinstance(g, fm.Until):
            for j in range(i, i + horizon + 1):
                if ev(g.right, j):
                    return True
                if not ev(g.left, j):
                    return False
            return False
        if isinstance(g, fm.Release):
            return not _scan(fm.Until(fm.Not(g.left), fm.Not(g.right)), i)
        if isinstance(g, fm.Eventually):
            return _scan(fm.Until(fm.TRUE, g.operand), i)
        if isinstance(g, fm.Always):
            return not _scan(fm.Until(fm.TRUE, fm.Not(g.operand)), i)
        if isinstance(g, fm.EventuallyBounded):
            return any(ev(g.operand, i + t) for t in range(g.lo, g.hi + 1))
        if isinstance(g, fm.BoundedRelease):
            if ev(g.left, i):
                return True
            for k in range(1, g.bound + 1):
                if not ev(g.right, i + k - 1):
                    return False
                if ev(g.left, i + k):
                    return True
            return ev(g.right, i + g.bound)
        raise TypeError(f"scan_eval cannot handle {type(g).__name__}")

    return ev(f, pos)


# ---------------------------------------------------------------------------
# Lasso enumeration over automata / transition systems
# ---------------------------------------------------------------------------

def enumerate_lassos(aut, max_stem=None, max_loop=None):
    """All (stem, loop) transition-lassos from the initial state with
    len(stem) <= |Q| and len(loop) <= |Q| (or the given bounds)."""
    n = len(aut.states)
    max_stem = n if max_stem is None else max_stem
    max_loop = n if max_loop is None else max_loop
    lassos = []

    def loops_from(anchor):
        found = []

        def dfs(state, path):
            for t in aut.out(state):
                if t.dst == anchor:
                    found.append(tuple(path + [t]))
                if len(path) + 1 < max_loop:
                    dfs(t.dst, path + [t])

        dfs(anchor, [])
        return found

    loop_cache = {}

    def stems(state, path):
        if state not in loop_cache:
            loop_cache[state] = loops_from(state)
        for loop in loop_cache[state]:
            lassos.append((tuple(path), loop))
        if len(path) < max_stem:
            for t in aut.out(state):
                stems(t.dst, path + [t])

    stems(aut.initial, [])
    return lassos


def lasso_word(aut, stem, loop):
    """State-label word of a lasso: (stem labels, loop labels)."""
    stem_states = [aut.initial] + [t.dst for t in stem]
    stem_labels = [aut.label(q) for q in stem_states[:-1]]
    anchor = stem_states[-1]
    loop_states = [anchor] + [t.dst for t in loop]
    loop_labels = [aut.label(q) for q in loop_states[:-1]]
    return stem_labels, loop_labels


def lasso_value(stem, loop) -> Fraction:
    return min(t.weight for t in stem + loop)


def enumerate_ts_lassos(ts, max_stem=None, max_loop=None):
    """(stem states, loop states) lassos of a transition system; the loop
    starts at the state right after the stem ends."""
    n = len(ts.states)
    max_stem = n if max_stem is None else max_stem
    max_loop = n if max_loop is None else max_loop
    out = []

    def loops_from(anchor):
        found = []

        def dfs(state, path):
            for nxt in ts.successors(state):
                if nxt == anchor:
                    found.append(tuple(path))
                if len(path) < max_loop:
                    dfs(nxt, path + [nxt])

        dfs(anchor, [anchor])
        return found

    cache = {}

    def stems(state, path):
        if state not in cache:
            cache[state] = loops_from(state)
        for loop in cache[state]:
            out.append((tuple(path[:-1]), loop))
        if len(path) - 1 < max_stem:
            for nxt in ts.successors(state):
                stems(nxt, path + [nxt])

    stems(ts.initial, [ts.initial])
    return out


# ---------------------------------------------------------------------------
# Brute-force dominance-ought evaluation on an automaton
# ---------------------------------------------------------------------------

def brute_extremal(aut):
    """(min, max) bottleneck over the enumerated lassos."""
    values = [lasso_value(stem, loop)
              for stem, loop in enumerate_lassos(aut)]
    return min(values), max(values)


def brute_force_ought(aut, agent, obligation, condition=None) -> bool:
    """Evaluate the dominance ought on the lasso-approximated history set.

    Histories are the enumerated lassos, grouped by first action into the
    root choice; an action is strictly dominated when every value of another
    action sits strictly above all of its own; the ought requires every
    un-dominated action to guarantee the obligation.  With a condition, only
    the un-dominated actions that guarantee the condition must (none: the
    ought holds vacuously).
    """
    ob = fm.normalize_obligation(obligation)
    lassos = enumerate_lassos(aut)
    cells: dict[str, list] = {}
    for stem, loop in lassos:
        first = (stem[0] if stem else loop[0]).action
        word = lasso_word(aut, stem, loop)
        cells.setdefault(first, []).append(
            (lasso_value(stem, loop), word))
    word_sat: dict = {}

    def sat_word(phi, word):
        key = (phi, tuple(word[0]), tuple(word[1]))
        if key not in word_sat:
            word_sat[key] = scan_eval(phi, word[0], word[1])
        return word_sat[key]

    def guarantees(action, a) -> bool:
        if isinstance(a, fm.Plain):
            return all(sat_word(a.formula, w) for _, w in cells[action])
        if isinstance(a, fm.DstitOf):
            assert isinstance(a.body, fm.Plain) and a.agent == agent
            phi = a.body.formula
            forced = all(sat_word(phi, w) for _, w in cells[action])
            avoidable = any(not sat_word(phi, w)
                            for acts in cells.values() for _, w in acts)
            return forced and avoidable
        if isinstance(a, fm.NegatedObligation):
            # after normalization only a dstit sits under the negation, and
            # dstit membership is constant across an action's histories, so
            # complementing "guarantees" is exact
            assert isinstance(a.body, fm.DstitOf)
            return not guarantees(action, a.body)
        raise TypeError(f"bad obligation {type(a).__name__}")

    def dominated(action) -> bool:
        hi = max(v for v, _ in cells[action])
        return any(other != action
                   and min(v for v, _ in cells[other]) > hi
                   for other in cells)

    optimal = [a for a in cells if not dominated(a)]
    if condition is not None:
        cond = fm.normalize_obligation(condition)
        optimal = [a for a in optimal if guarantees(a, cond)]
    return all(guarantees(a, ob) for a in optimal)
