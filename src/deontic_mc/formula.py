"""Statement syntax: formulas, obligations, oughts, parser and printer.

Three layers of abstract syntax:

* ``Formula`` -- CTL*-style path/state formulas extended with agentive
  see-to-it operators (``[a cstit: ...]``, ``[a dstit: ...]``).
* ``Obligation`` -- the restricted grammar ``A ::= phi | [a dstit: A] | !A``
  where ``phi`` is a pure (stit-free) formula.
* ``OughtStatement`` -- ``O[a cstit: A]`` and the conditional form
  ``O[a cstit: A / B]``; the agent slot may name a group.

The concrete grammar is documented in docs/grammar.ebnf.  Its spellings
live in tables that the parser and the printer share.  ``_INFIX`` binds the
binary operators, from tightest: ``BR[n]``, ``U``/``R``, ``&``, ``|``,
``->``.  ``!`` and the prefixes of ``_PREFIX`` bind tighter still, and
``_UNFOLDS`` spells the bounded heads ``X^t``, ``F[lo:hi]`` and ``BR[n]``.
The path quantifiers ``A`` and ``E`` swallow the longest formula to their
right.  The tokenizer is one regular expression; ``children`` and
``render`` look each node's kind up in a table.

Two limits live here.  MAX_DEPTH bounds how deep a parsed statement nests,
so that the passes that still recurse (the parser, render, the
dataclasses' hash and equality, and tree_model) stay inside Python's
default recursion limit; deeper text is a ParseError.
MAX_UNFOLD bounds how far compile unfolds one X^t, F[n:m] or BR[N]; past
it the operator is refused before it is unfolded, as a ResourceLimitError.
Nested ones add rows, and only ctlstar.MAX_TABLEAU_STEPS bounds their work.
"""

from __future__ import annotations

import functools
import operator
import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import GrammarError, ParseError, ResourceLimitError

# X^n, F[lo:n] and BR[n] unfold into n next-step rows; compile refuses one
# that would unfold into more.
MAX_UNFOLD = 64
# A statement nests at most this many operators, brackets and parentheses
# deep, so that every recursive pass over it stays inside Python's default
# recursion limit.
MAX_DEPTH = 400

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class Formula:
    """Base class for path/state formulas."""

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class NextPow(Formula):
    """``X^t f``: t-fold repetition of the next operator."""

    steps: int
    operand: Formula

    def __post_init__(self):
        if self.steps < 0:
            raise GrammarError("X^t needs t >= 0", production="next-pow")


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class EventuallyBounded(Formula):
    """``F[lo:hi] f``: f within lo..hi steps from now."""

    lo: int
    hi: int
    operand: Formula

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise GrammarError(
                f"F[{self.lo}:{self.hi}] needs 0 <= lo <= hi",
                production="bounded-eventually")


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True)
class BoundedRelease(Formula):
    """``l BR[n] r``: within n steps, l now, or r continuously until l."""

    bound: int
    left: Formula
    right: Formula

    def __post_init__(self):
        if self.bound < 0:
            raise GrammarError("BR[n] needs n >= 0", production="bounded-release")


@dataclass(frozen=True)
class ForallPaths(Formula):
    operand: Formula


@dataclass(frozen=True)
class ExistsPaths(Formula):
    operand: Formula


@dataclass(frozen=True)
class Cstit(Formula):
    """``[agent cstit: body]``: the agent's current choice guarantees body."""

    agent: str
    body: "Obligation"


@dataclass(frozen=True)
class Dstit(Formula):
    """``[agent dstit: body]``: cstit plus a genuinely open alternative."""

    agent: str
    body: "Obligation"


TRUE = TrueFormula()
FALSE = FalseFormula()


class Obligation:
    """Base class for the obligation grammar ``A ::= phi | [a dstit: A] | !A``."""

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Plain(Obligation):
    """A pure formula used as an obligation; must be stit-free."""

    formula: Formula

    def __post_init__(self):
        if contains_stit(self.formula):
            raise GrammarError(
                "the formula leaf of an obligation must be stit-free",
                production="obligation-plain")


@dataclass(frozen=True)
class DstitOf(Obligation):
    agent: str
    body: Obligation


@dataclass(frozen=True)
class NegatedObligation(Obligation):
    body: Obligation


@dataclass(frozen=True)
class OughtStatement:
    """``O[agents cstit: body]``, optionally conditioned: ``... / condition``."""

    agents: tuple[str, ...]
    body: Obligation
    condition: Obligation | None = None

    def __post_init__(self):
        if not self.agents:
            raise GrammarError("ought needs at least one agent", production="ought")
        if len(set(self.agents)) != len(self.agents):
            raise GrammarError("duplicate agent in ought", production="ought")

    def __str__(self):
        return render(self)


def ought(agent, body, condition=None):
    """Build an OughtStatement; `agent` is a name or an iterable of names."""
    agents = (agent,) if isinstance(agent, str) else tuple(agent)
    return OughtStatement(agents, body, condition)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

# Each node kind's subterms, in field order; a kind not listed is a leaf.
_CHILDREN = {
    **dict.fromkeys((Not, Next, NextPow, Eventually, EventuallyBounded, Always,
                     ForallPaths, ExistsPaths), lambda f: (f.operand,)),
    **dict.fromkeys((And, Or, Implies, Until, Release, BoundedRelease),
                    operator.attrgetter("left", "right")),
    **dict.fromkeys((Cstit, Dstit, DstitOf, NegatedObligation),
                    lambda f: (f.body,)),
    Plain: lambda f: (f.formula,),
    OughtStatement: lambda f: (
        (f.body,) if f.condition is None else (f.body, f.condition)),
}


def children(f):
    """Immediate subterms of a formula/obligation node."""
    read = _CHILDREN.get(type(f))
    return read(f) if read else ()


def walk(f):
    """All nodes of f, preorder; iterative, so any depth is walked."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(children(g)))


def contains_stit(f):
    return any(isinstance(g, (Cstit, Dstit, DstitOf)) for g in walk(f))


def or_all(parts):
    parts = list(parts)
    return functools.reduce(Or, parts) if parts else FALSE


def and_all(parts):
    parts = list(parts)
    return functools.reduce(And, parts) if parts else TRUE


# ---------------------------------------------------------------------------
# Syntax tables, read by the parser and the printer alike
# ---------------------------------------------------------------------------

# The binary operators, the one binding table of the grammar: text ->
# (binding power, right-associative, constructor).  Every unary operator
# binds tighter than all of them.
_INFIX = {
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "&": (3, False, And),
    "U": (4, True, Until),
    "R": (4, True, Release),
    "BR": (5, True, BoundedRelease),
}
# The prefix operators spelt by one word; X^t and F[lo:hi] extend X and F.
_PREFIX = {"X": Next, "F": Eventually, "G": Always}
# "A" and "E" double as path quantifiers and as plain atom names; the parser
# disambiguates on one token of lookahead.
_QUANTIFIERS = {"A": ForallPaths, "E": ExistsPaths}
_STITS = {"cstit": Cstit, "dstit": Dstit}
# The words that name an operator and so are no atom
_OPERATOR_WORDS = frozenset(w for w in (*_INFIX, *_STITS) if w.isalpha())
_FORMULA_START_SYMS = {"(", "[", "!"}

# The bounded operators, each unfolding into n next-step obligations:
# kind -> (n, the operator's head as printed and as refusals name it)
_UNFOLDS = {
    NextPow: lambda g: (g.steps, f"X^{g.steps}"),
    EventuallyBounded: lambda g: (g.hi, f"F[{g.lo}:{g.hi}]"),
    BoundedRelease: lambda g: (g.bound, f"BR[{g.bound}]"),
}


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

# kind -> (its layout, the word it is spelt with), read off the tables
_SHAPES = {
    Atom: ("atom", None),
    TrueFormula: ("word", "true"),
    FalseFormula: ("word", "false"),
    Plain: ("plain", None),
    **dict.fromkeys((Not, NegatedObligation), ("prefix", "!")),
    **{kind: ("prefix", word + " ") for word, kind in _PREFIX.items()},
    **dict.fromkeys((NextPow, EventuallyBounded), ("prefix", None)),
    **{kind: ("infix", word) for word, (_, _, kind) in _INFIX.items()},
    BoundedRelease: ("bounded", None),  # BR[n], not _INFIX's bare BR
    **{kind: ("quantifier", word) for word, kind in _QUANTIFIERS.items()},
    **{kind: ("stit", word) for word, kind in _STITS.items()},
    DstitOf: ("stit", "dstit"),
    OughtStatement: ("ought", None),
}


def render(x) -> str:
    """Canonical re-parsable text for a formula, obligation, or ought.
    Each level of x costs one frame, a prefix's operand two."""
    shape, word = _SHAPES.get(type(x), (None, None))
    if shape == "infix":
        return f"({render(x.left)} {word} {render(x.right)})"
    if shape == "prefix":  # X^t and F[lo:hi] take their head from _UNFOLDS
        return (word or _UNFOLDS[type(x)](x)[1] + " ") + _tight(children(x)[0])
    if shape == "atom":
        return x.name
    if shape == "plain":
        return render(x.formula)
    if shape == "word":
        return word
    if shape == "bounded":
        head = _UNFOLDS[type(x)](x)[1]
        return f"{_tight(x.left)} {head} {_tight(x.right)}"
    if shape == "stit":
        return f"[{x.agent} {word}: {render(x.body)}]"
    if shape == "quantifier":
        return f"({word} {render(x.operand)})"
    if shape == "ought":
        cond = "" if x.condition is None else f" / {render(x.condition)}"
        return f"O[{','.join(x.agents)} cstit: {render(x.body)}{cond}]"
    raise TypeError(f"cannot render {type(x).__name__}")


def _tight(x):
    # an operand of a prefix or of BR: a bounded release is the only
    # construct whose text is not self-delimiting, so it is parenthesised,
    # also as a plain obligation's formula under !
    if type(x) is Plain:
        x = x.formula
    return f"({render(x)})" if type(x) is BoundedRelease else render(x)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "ident", "int", "sym", "eof"
    text: str
    line: int
    column: int


# One match per token: a symbol, ASCII digits, a word, whitespace, or any
# other character, which is an error.  A word's first class also admits
# numerals that are not letters, such as "\u00b2"; _tokenize refuses those.
_TOKEN = re.compile(r"(?P<sym>->|[()\[\]{},:/!&|^])|(?P<int>[0-9]+)"
                    r"|(?P<ident>[^\W\d][\w.]*)|(?P<space>\s+)|(?P<other>.)",
                    re.S)


def _tokenize(text):
    toks = []
    line, start = 1, 0  # start: the offset where the line begins
    for m in _TOKEN.finditer(text):
        kind, word, at = m.lastgroup, m.group(), m.start()
        if kind == "space":
            if "\n" in word:
                line += word.count("\n")
                start = at + word.rindex("\n") + 1
        elif kind == "other" or kind == "ident" and not (
                word[0].isalpha() or word[0] == "_"):
            raise ParseError(f"unexpected character {word[0]!r}", line,
                             at - start + 1)
        else:
            toks.append(_Token(kind, word, line, at - start + 1))
    toks.append(_Token("eof", "", line, len(text) - start + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect_sym(self, sym):
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            self.error(f"expected {sym!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_ident(self, what="identifier"):
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_int(self):
        tok = self.next()
        if tok.kind != "int":
            self.error(f"expected integer, found {tok.text or 'end of input'!r}", tok)
        return int(tok.text)

    # statement = ought | obligation | formula
    def statement(self):
        if self._at_ought():
            node = self.ought()
        else:
            node = _classify(self.formula()[0])
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def _at_ought(self):
        tok = self.peek()
        return tok.kind == "ident" and tok.text == "O" and \
            self.peek(1).kind == "sym" and self.peek(1).text == "["

    def ought(self):
        self.expect_ident()  # the O
        self.expect_sym("[")
        agents = [self.expect_ident("agent name").text]
        while self.peek().text == ",":
            self.next()
            agents.append(self.expect_ident("agent name").text)
        kw = self.expect_ident("'cstit'")
        if kw.text != "cstit":
            if kw.text == "dstit":
                self.error("oughts are built with cstit, not dstit", kw)
            self.error(f"expected 'cstit', found {kw.text!r}", kw)
        self.expect_sym(":")
        body = self.obligation()
        condition = None
        if self.peek().text == "/":
            self.next()
            condition = self.obligation()
        self.expect_sym("]")
        return OughtStatement(tuple(agents), body, condition)

    def obligation(self):
        tok = self.peek()
        return self._as_obligation(self.formula()[0], tok)

    def _as_obligation(self, f, tok):
        """f coerced into the obligation grammar; a violation is reported
        at tok, where f starts."""
        try:
            return formula_to_obligation(f)
        except GrammarError as exc:
            self.error(str(exc), tok)

    # MAX_DEPTH bounds two nestings.  `level` counts the constructs and
    # parentheses open around the token being parsed, and is refused past
    # the limit before the parser recurses further; each level costs at
    # most two parser frames.  Each formula parse also returns its node's
    # depth, the operators and brackets on its longest path to an atom,
    # refused past the limit as soon as the construct is built.

    def _deepen(self, depth, tok):
        """The depth of the construct at tok over a part depth deep."""
        if depth >= MAX_DEPTH:
            self._too_deep(tok)
        return depth + 1

    def _too_deep(self, tok):
        self.error(f"formula nested deeper than {MAX_DEPTH} levels", tok)

    def formula(self, floor=1, level=0):
        """A formula whose binary operators bind at least as tightly as
        floor: precedence climbing over _INFIX."""
        left, depth = self._unary(level)
        while True:
            tok = self.peek()
            op = _INFIX.get(tok.text)
            if op is None or op[0] < floor:
                return left, depth
            power, right_assoc, build = op
            self.next()
            if build is BoundedRelease:
                self.expect_sym("[")
                build = functools.partial(BoundedRelease, self.expect_int())
                self.expect_sym("]")
            right, right_depth = self.formula(
                power if right_assoc else power + 1, level + 1)
            left = build(left, right)
            depth = self._deepen(max(depth, right_depth), tok)

    def _unary(self, level):
        tok = self.peek()
        if level > MAX_DEPTH:
            self._too_deep(tok)
        if tok.text == "!":
            self.next()
            f, depth = self._unary(level + 1)
            return Not(f), self._deepen(depth, tok)
        if tok.text == "(":
            self.next()
            f, depth = self.formula(1, level + 1)
            self.expect_sym(")")
            return f, depth
        if tok.text == "[":
            self.next()
            agent = self.expect_ident("agent name").text
            kw = self.expect_ident("'cstit' or 'dstit'")
            if kw.text not in _STITS:
                self.error(f"expected 'cstit' or 'dstit', found {kw.text!r}",
                           kw)
            self.expect_sym(":")
            start = self.peek()
            f, depth = self.formula(1, level + 1)
            body = self._as_obligation(f, start)
            self.expect_sym("]")
            return _STITS[kw.text](agent, body), self._deepen(depth, tok)
        if tok.kind == "ident":
            if tok.text in _QUANTIFIERS and self._starts_formula(1):
                self.next()
                f, depth = self.formula(1, level + 1)
                return _QUANTIFIERS[tok.text](f), self._deepen(depth, tok)
            return self._ident_formula(level)
        self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)

    def _ident_formula(self, level):
        tok = self.next()
        name = tok.text
        if name == "true":
            return TRUE, 0
        if name == "false":
            return FALSE, 0
        if name == "O":
            raise GrammarError(
                "an ought operator cannot appear inside a formula",
                production="formula")
        build = _PREFIX.get(name)
        if build is None:
            if name in _OPERATOR_WORDS:
                self.error(f"{name!r} is an operator, not an atom", tok)
            return Atom(name), 0
        if name == "X" and self.peek().text == "^":
            self.next()
            build = functools.partial(NextPow, self.expect_int())
        # F[ starts a bound only when an integer follows; otherwise the
        # bracket is a stit operand, as under X and G
        elif name == "F" and self.peek().text == "[" and \
                self.peek(1).kind == "int":
            self.next()
            lo = self.expect_int()
            self.expect_sym(":")
            hi = self.expect_int()
            self.expect_sym("]")
            if lo > hi:
                self.error(f"F[{lo}:{hi}] needs lo <= hi", tok)
            build = functools.partial(EventuallyBounded, lo, hi)
        f, depth = self._unary(level + 1)
        return build(f), self._deepen(depth, tok)

    def _starts_formula(self, ahead):
        tok = self.peek(ahead)
        if tok.kind == "ident":
            return tok.text not in _OPERATOR_WORDS
        return tok.kind == "sym" and tok.text in _FORMULA_START_SYMS


def formula_to_obligation(f) -> Obligation:
    """Coerce a parsed formula into the obligation grammar.

    ``[a dstit: ...]`` under any number of negations maps to a dstit
    obligation under as many negated obligations; any other formula must be
    stit-free, and becomes one plain obligation, its negations included.
    Anything embedding a stit operator inside boolean/temporal structure is
    rejected.
    """
    negations, g = 0, f
    while isinstance(g, Not):
        negations, g = negations + 1, g.operand
    if isinstance(g, Dstit):
        ob = DstitOf(g.agent, g.body)
        for _ in range(negations):
            ob = NegatedObligation(ob)
        return ob
    if isinstance(g, Cstit):
        raise GrammarError(
            "cstit is not part of the obligation grammar (phi | [a dstit: A] | !A)",
            production="obligation")
    if contains_stit(g):
        raise GrammarError(
            "a stit operator may not be embedded in formula structure inside "
            "an obligation (grammar: phi | [a dstit: A] | !A)",
            production="obligation")
    return Plain(f)


def _classify(f):
    """Most specific reading of a top-level formula parse: negations over a
    dstit are an obligation, anything else stays a formula."""
    g = f
    while isinstance(g, Not):
        g = g.operand
    return formula_to_obligation(f) if isinstance(g, Dstit) else f


def parse(text: str):
    """Parse text into the most specific of OughtStatement/Obligation/Formula."""
    return _Parser(text).statement()


def parse_formula(text: str) -> Formula:
    node = parse(text)
    if isinstance(node, OughtStatement):
        raise GrammarError("expected a formula, parsed an ought statement",
                           production="formula")
    if isinstance(node, Obligation):
        node = obligation_to_formula(node)
    return node


def parse_obligation(text: str) -> Obligation:
    node = parse(text)
    if isinstance(node, OughtStatement):
        raise GrammarError("expected an obligation, parsed an ought statement",
                           production="obligation")
    if isinstance(node, Formula):
        return formula_to_obligation(node)
    return node


def parse_ought(text: str) -> OughtStatement:
    node = parse(text)
    if not isinstance(node, OughtStatement):
        raise GrammarError("expected an ought statement", production="ought")
    return node


def obligation_to_formula(ob) -> Formula:
    """View an obligation as a formula (dstit obligations become Dstit nodes)."""
    negations = 0
    while isinstance(ob, NegatedObligation):
        negations, ob = negations + 1, ob.body
    if isinstance(ob, Plain):
        f = ob.formula
    elif isinstance(ob, DstitOf):
        f = Dstit(ob.agent, ob.body)
    else:
        raise TypeError(f"not an obligation: {type(ob).__name__}")
    for _ in range(negations):
        f = Not(f)
    return f


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

# Negation normal form, per path kind: the kind it becomes unnegated and
# negated.  ! leaves no row of its own, -> flips its left operand, F g is
# true U g, G g is false R g, and a bounded operator unfolds into | and &
# unnegated, & and | negated.
_DUALS = {
    Not: (None, None), TrueFormula: (TrueFormula, FalseFormula),
    FalseFormula: (FalseFormula, TrueFormula),
    And: (And, Or), Or: (Or, And), Implies: (Or, And), Next: (Next, Next),
    Until: (Until, Release), Release: (Release, Until),
    Eventually: (Until, Release), Always: (Release, Until),
    **dict.fromkeys(_UNFOLDS, (Or, And)),
}
_CONSTANTS = {Eventually: TRUE, Always: FALSE}
_QUANTIFIED = {ExistsPaths: 0, ForallPaths: 1}  # the operand's polarity


def compile(f, negated=None):
    """f, a formula or an obligation, as rows (kind, data, kids): one row
    per distinct subformula, children before parents and f last.  kind is
    the node's class, data its atom name or agent (else None), and kids
    its children's row indices.

    negated=None compiles f as written; False compiles its negation normal
    form, and True that of !f, with negation on atoms only (see _DUALS),
    E psi one row over psi's normal form, A psi as !E !psi, and each stit
    or obligation row opaque: as written, under a negation when negated.

    X^t, F[n:m] and BR[N] are unfolded, negated, in place, into chains of
    t, m or N next-step rows that share rows (X^3 p runs through X^2 p's);
    one past MAX_UNFOLD is refused before it is unfolded:

    F[n:m] f     =  X^n f | ... | X^m f,  !F[n:m] f = X^n !f & ... & X^m !f
    l BR[0] r    =  l | r
    l BR[N] r    =  l | (r & X (l BR[N-1] r))
    !(l BR[N] r) =  !l & (!r | X !(l BR[N-1] r))

    Iterative, walking each node once per polarity, and it hashes no
    formula: a row is found again by its kind, data and kids.  The rows
    come in the order a recursive post-order walk of the result meets
    them, so F's and G's constant comes before their operand."""
    index, done = {}, {}  # index: row -> its place; done: node key -> place
    add = index.setdefault  # add(row, len(index)): the row's place

    # a node's polarity is 0 for its normal form, 1 for its negation's and
    # 2 as written, and its key id << 2 | polarity
    todo = [(f, 2 if negated is None else int(negated), None)]
    while todo:
        g, pol, wants = todo.pop()
        kind = type(g)
        if wants is None:  # refuse, then place the operands
            if id(g) << 2 | pol in done:
                continue
            if kind in _UNFOLDS:
                n, op = _UNFOLDS[kind](g)
                if n > MAX_UNFOLD:
                    raise ResourceLimitError(
                        f"{op} unfolds into {n} next-step obligations; "
                        f"compile unfolds at most {MAX_UNFOLD}")
            read = _CHILDREN.get(kind)
            if read is not None:
                parts = read(g)
                if pol == 2:
                    sides = 2, 2
                elif kind in _DUALS:  # ! and ->'s left operand flip
                    sides = (pol ^ 1, pol) if kind is Not or kind is Implies \
                        else (pol, pol)
                    if kind in _CONSTANTS:
                        parts = (_CONSTANTS[kind], *parts)
                else:  # stits and obligations are compiled as written
                    sides = (_QUANTIFIED.get(kind, 2),) * 2
                wants = tuple(zip(parts, sides))
                todo.append((g, pol, wants))
                todo += [(c, side, None) for c, side in reversed(wants)]
                continue
        kids = tuple([done[id(c) << 2 | side] for c, side in wants or ()])
        key = id(g) << 2 | pol
        if kind in _UNFOLDS:
            join, meet = _DUALS[kind][::-1] if pol == 1 else _DUALS[kind]
            if kind is BoundedRelease:
                left, right = kids
                i = add((join, None, kids), len(index))
                for _ in range(g.bound):
                    i = add((Next, None, (i,)), len(index))
                    i = add((meet, None, (right, i)), len(index))
                    i = add((join, None, (left, i)), len(index))
            else:  # X^t g is F[t:t] g
                lo = g.steps if kind is NextPow else g.lo
                i = last = kids[0]
                for t in range(1, _UNFOLDS[kind](g)[0] + 1):
                    last = add((Next, None, (last,)), len(index))
                    i = last if t <= lo else \
                        add((join, None, (i, last)), len(index))
        elif pol < 2 and kind in _DUALS:
            become = _DUALS[kind][pol]
            i = kids[0] if become is None else \
                add((become, None, kids), len(index))
        else:  # as written, or an opaque row
            if kind is ForallPaths and pol < 2:
                kind, pol = ExistsPaths, pol ^ 1
            data = g.name if kind is Atom else getattr(g, "agent", None)
            i = add((kind, data, kids), len(index))
            if pol == 1:
                i = add((Not, None, (i,)), len(index))
        done[key] = i
    return tuple(index)


def decompile(rows):
    """The formula or obligation that the rows' last row stands for."""
    built = []
    for kind, data, kids in rows:
        parts = [built[k] for k in kids]
        built.append(kind(*parts) if data is None else kind(data, *parts))
    return built[-1]


def expand_bounded(f):
    """f, a formula or an obligation, with X^t, F[n:m] and BR[N] unfolded
    into X / and / or structure (see compile)."""
    return decompile(compile(f))


def nnf(f):
    """The negation normal form of a formula (see compile)."""
    return decompile(compile(f, False))


def normalize_obligation(ob: Obligation) -> Obligation:
    """The normal form of an obligation, in one pass over its chain of
    negations and dstits, innermost first: a negation directly over the
    formula folds into it (unwrapping one leading ``!``), ``!!A`` is A,
    ``[a dstit: [a dstit: A]]`` is ``[a dstit: A]``, and so is the
    refrain-from-refraining ``[a dstit: ![a dstit: ![a dstit: A]]]``;
    different agents are left alone.  An obligation already in normal form
    is returned as it is."""
    chain = []  # the negations and dstits, outermost first
    leaf = ob
    while isinstance(leaf, (NegatedObligation, DstitOf)):
        chain.append(leaf)
        leaf = leaf.body
    if not isinstance(leaf, Plain):
        raise TypeError(f"not an obligation: {type(leaf).__name__}")
    links = len(chain)
    phi = leaf.formula
    while chain and isinstance(chain[-1], NegatedObligation):
        chain.pop()
        phi = phi.operand if isinstance(phi, Not) else Not(phi)
    # the links kept, innermost first: a dstit's agent, or None for a
    # negation.  They stay in normal form, so the next link can only match
    # a rule together with the links at the top.
    kept = []
    for link in reversed(chain):
        agent = link.agent if isinstance(link, DstitOf) else None
        if kept[-1:] == [agent]:  # !! cancels, [a][a] keeps one [a]
            if agent is None:
                kept.pop()
        elif kept[-4:] == [agent, None, agent, None]:  # [a]![a]![a]
            del kept[-3:]
        else:
            kept.append(agent)
    if len(kept) == links:
        return ob
    out = leaf if phi is leaf.formula else Plain(phi)
    for agent in kept:
        out = NegatedObligation(out) if agent is None else DstitOf(agent, out)
    return out
