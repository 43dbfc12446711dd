"""Obligation normalisation as a fixpoint of two recursive rewrites, and the
formula-to-obligation coercion as recursion over each leading negation:
the references that deontic_mc.formula's one-pass versions are compared
against.  Both recurse once per link of the chain, so they are bounded by
the Python stack.
"""

from deontic_mc.errors import GrammarError
from deontic_mc.formula import (
    Cstit,
    Dstit,
    DstitOf,
    NegatedObligation,
    Not,
    Obligation,
    Plain,
    contains_stit,
)


def formula_to_obligation(f) -> Obligation:
    """Coerce a parsed formula into the obligation grammar.

    ``[a dstit: ...]`` maps to a dstit obligation, negation folds into the
    formula when the body is plain, and anything embedding a stit operator
    inside boolean/temporal structure is rejected.
    """
    if isinstance(f, Dstit):
        return DstitOf(f.agent, f.body)
    if isinstance(f, Not):
        inner = formula_to_obligation(f.operand)
        if isinstance(inner, Plain):
            return Plain(Not(inner.formula))
        return NegatedObligation(inner)
    if isinstance(f, Cstit):
        raise GrammarError(
            "cstit is not part of the obligation grammar (phi | [a dstit: A] | !A)",
            production="obligation")
    if contains_stit(f):
        raise GrammarError(
            "a stit operator may not be embedded in formula structure inside "
            "an obligation (grammar: phi | [a dstit: A] | !A)",
            production="obligation")
    return Plain(f)


def _classify(f):
    """Most specific reading of a top-level formula parse."""
    try:
        ob = formula_to_obligation(f)
    except GrammarError:
        return f
    if isinstance(ob, (DstitOf, NegatedObligation)):
        return ob
    return f


def rewrite_dstit_idempotent(ob: Obligation) -> Obligation:
    """Collapse stacked same-agent dstits.

    ``[a dstit: [a dstit: A]]`` collapses to ``[a dstit: A]`` and the
    refrain-from-refraining form ``[a dstit: ![a dstit: ![a dstit: A]]]``
    collapses to ``[a dstit: A]``; different agents are left alone.
    """
    if isinstance(ob, Plain):
        return ob
    if isinstance(ob, NegatedObligation):
        return NegatedObligation(rewrite_dstit_idempotent(ob.body))
    if isinstance(ob, DstitOf):
        body = rewrite_dstit_idempotent(ob.body)
        if isinstance(body, DstitOf) and body.agent == ob.agent:
            return body
        if (isinstance(body, NegatedObligation)
                and isinstance(body.body, DstitOf)
                and body.body.agent == ob.agent
                and isinstance(body.body.body, NegatedObligation)
                and isinstance(body.body.body.body, DstitOf)
                and body.body.body.body.agent == ob.agent):
            return body.body.body.body
        return DstitOf(ob.agent, body)
    raise TypeError(f"not an obligation: {type(ob).__name__}")


def normalize_obligation(ob: Obligation) -> Obligation:
    """Fold negations (double negation, negated plain formulas) and apply
    the dstit collapses, to fixpoint."""
    def strip(a):
        if isinstance(a, NegatedObligation):
            inner = strip(a.body)
            if isinstance(inner, NegatedObligation):
                return inner.body
            if isinstance(inner, Plain):
                if isinstance(inner.formula, Not):
                    return Plain(inner.formula.operand)
                return Plain(Not(inner.formula))
            return NegatedObligation(inner)
        if isinstance(a, DstitOf):
            return DstitOf(a.agent, strip(a.body))
        return a

    previous = None
    while previous != ob:
        previous = ob
        ob = rewrite_dstit_idempotent(strip(ob))
    return ob
