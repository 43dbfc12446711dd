"""Negation normal form as a second pass over compiled rows: the reference
that formula.compile's normal-form modes are compared against.

nnf_rows reads the as-written rows of formula.compile (compile(f)) and
returns the normal form, over atoms, X, U and R, of the formula their last
row stands for, as rows of its own; nnf_rows(compile(f) + a negation row)
is the normal form of !f.
"""

from deontic_mc import formula as fm
from deontic_mc.errors import GrammarError

# Negation normal form: each kind as it becomes unnegated and negated.  F
# and G become U and R over a constant, ``true U .`` and ``false R .``;
# a negation moves onto its operand.
_NNF = {
    fm.Not: (None, None), fm.TrueFormula: (fm.TrueFormula, fm.FalseFormula),
    fm.FalseFormula: (fm.FalseFormula, fm.TrueFormula),
    fm.And: (fm.And, fm.Or), fm.Or: (fm.Or, fm.And),
    fm.Implies: (fm.Or, fm.And), fm.Next: (fm.Next, fm.Next),
    fm.Until: (fm.Until, fm.Release), fm.Release: (fm.Release, fm.Until),
    fm.Eventually: (fm.Until, fm.Release),
    fm.Always: (fm.Release, fm.Until),
}


def nnf_rows(rows):
    """The negation normal form over atoms, X, U and R of the formula that
    the rows' last row stands for, as rows of its own (see compile).

    Negation survives only on atoms.  Quantified and stit rows cannot be
    normalized.  Only the rows the last one reaches are walked, and the
    normal form's rows come children first and left to right, in the
    order a recursive post-order walk of it meets them.  Iterative: one
    explicit stack of (row, polarity) keys, each normalized once."""
    index, at = {}, {}  # row -> its place; 2 * row + negated -> a place

    def add(row):
        return index.setdefault(row, len(index))

    todo = [2 * len(rows) - 2]
    while todo:
        key = todo[-1]
        if key in at:
            todo.pop()
            continue
        kind, _, kids = row = rows[key >> 1]
        neg = key & 1
        if kind is fm.Atom:
            i = add(row)
            at[todo.pop()] = add((fm.Not, None, (i,))) if neg else i
            continue
        if kind not in _NNF:
            raise GrammarError(f"cannot normalize {kind.__name__}; strip "
                               f"quantifiers first", production="nnf")
        become = _NNF[kind][neg]
        want = [2 * k + neg for k in kids]
        if kind is fm.Not or kind is fm.Implies:  # the left operand flips
            want[0] ^= 1
        first = ()  # F and G: the constant comes before the operand
        if kind is fm.Eventually or kind is fm.Always:
            first = (add((fm.TrueFormula if become is fm.Until
                          else fm.FalseFormula, None, ())),)
        missing = [w for w in want if w not in at]
        if missing:
            todo += reversed(missing)
            continue
        todo.pop()
        kids = first + tuple([at[w] for w in want])
        at[key] = kids[0] if become is None else add((become, None, kids))
    return tuple(index)


def reference_rows(f, negated=False):
    """The normal form of f, or of !f, by the second pass."""
    rows = fm.compile(f)
    if negated:
        rows += ((fm.Not, None, (len(rows) - 1,)),)
    return nnf_rows(rows)
