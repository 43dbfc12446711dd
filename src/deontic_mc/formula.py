"""Statement syntax: formulas, obligations, oughts, parser and printer.

Three layers of abstract syntax:

* ``Formula`` -- CTL*-style path/state formulas extended with agentive
  see-to-it operators (``[a cstit: ...]``, ``[a dstit: ...]``).
* ``Obligation`` -- the restricted grammar ``A ::= phi | [a dstit: A] | !A``
  where ``phi`` is a pure (stit-free) formula.
* ``OughtStatement`` -- ``O[a cstit: A]`` and the conditional form
  ``O[a cstit: A / B]``; the agent slot may name a group.

The concrete grammar is documented in docs/grammar.ebnf.  Precedence, from
tightest to loosest: ``!`` and the unary temporal operators, then the binary
operators as the table ``_INFIX`` binds them: ``BR[n]``, ``U``/``R``, ``&``,
``|``, ``->``.  The path quantifiers ``A`` and ``E`` swallow the longest
formula to their right.

Two limits live here.  MAX_DEPTH bounds how deep a parsed statement nests,
so that the passes that still recurse (the parser, render, the
dataclasses' hash and equality, and tree_model) stay inside Python's
default recursion limit; deeper text is a ParseError.
MAX_UNFOLD bounds how far compile unfolds X^t, F[n:m] and BR[N]; past it
the tableau would refuse the result, so the operator is refused first, as
a ResourceLimitError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import GrammarError, ParseError, ResourceLimitError

# X^n, F[lo:n] and BR[n] unfold into n next-step obligations, each one
# elementary bit of ctlstar's tableau: one cap bounds both.
MAX_UNFOLD = 16
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

_UNARY = (Not, Next, NextPow, Eventually, EventuallyBounded, Always,
          ForallPaths, ExistsPaths)
_BINARY = (And, Or, Implies, Until, Release, BoundedRelease)


def children(f):
    """Immediate subterms of a formula/obligation node."""
    if isinstance(f, _UNARY):
        return (f.operand,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, (Cstit, Dstit, DstitOf, NegatedObligation)):
        return (f.body,)
    if isinstance(f, Plain):
        return (f.formula,)
    if isinstance(f, OughtStatement):
        return (f.body,) + ((f.condition,) if f.condition is not None else ())
    return ()


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
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def and_all(parts):
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def render(x) -> str:
    """Canonical re-parsable text for a formula, obligation, or ought."""
    if isinstance(x, OughtStatement):
        head = ",".join(x.agents)
        if x.condition is None:
            return f"O[{head} cstit: {render(x.body)}]"
        return f"O[{head} cstit: {render(x.body)} / {render(x.condition)}]"
    if isinstance(x, Plain):
        return render(x.formula)
    if isinstance(x, DstitOf):
        return f"[{x.agent} dstit: {render(x.body)}]"
    if isinstance(x, NegatedObligation):
        return f"!{render(x.body)}"
    if isinstance(x, Atom):
        return x.name
    if isinstance(x, TrueFormula):
        return "true"
    if isinstance(x, FalseFormula):
        return "false"
    if isinstance(x, Not):
        return f"!{_tight(x.operand)}"
    if isinstance(x, And):
        return f"({render(x.left)} & {render(x.right)})"
    if isinstance(x, Or):
        return f"({render(x.left)} | {render(x.right)})"
    if isinstance(x, Implies):
        return f"({render(x.left)} -> {render(x.right)})"
    if isinstance(x, Next):
        return f"X {_tight(x.operand)}"
    if isinstance(x, NextPow):
        return f"X^{x.steps} {_tight(x.operand)}"
    if isinstance(x, Until):
        return f"({render(x.left)} U {render(x.right)})"
    if isinstance(x, Release):
        return f"({render(x.left)} R {render(x.right)})"
    if isinstance(x, Eventually):
        return f"F {_tight(x.operand)}"
    if isinstance(x, EventuallyBounded):
        return f"F[{x.lo}:{x.hi}] {_tight(x.operand)}"
    if isinstance(x, Always):
        return f"G {_tight(x.operand)}"
    if isinstance(x, BoundedRelease):
        return f"{_tight(x.left)} BR[{x.bound}] {_tight(x.right)}"
    if isinstance(x, ForallPaths):
        return f"(A {render(x.operand)})"
    if isinstance(x, ExistsPaths):
        return f"(E {render(x.operand)})"
    if isinstance(x, Cstit):
        return f"[{x.agent} cstit: {render(x.body)}]"
    if isinstance(x, Dstit):
        return f"[{x.agent} dstit: {render(x.body)}]"
    raise TypeError(f"cannot render {type(x).__name__}")


def _tight(f):
    # operand position of a unary operator: BR is the only construct whose
    # rendering is not self-delimiting
    if isinstance(f, BoundedRelease):
        return f"({render(f)})"
    return render(f)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "sym", "eof"
    text: str
    line: int
    column: int


def _tokenize(text):
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if text.startswith("->", i):
            toks.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]{},:/!&|^":
            toks.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


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

# "A" and "E" double as path quantifiers and as plain atom names; the parser
# disambiguates on one token of lookahead.
_FORMULA_START_SYMS = {"(", "[", "!"}


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
            if kw.text not in ("cstit", "dstit"):
                self.error(f"expected 'cstit' or 'dstit', found {kw.text!r}",
                           kw)
            self.expect_sym(":")
            start = self.peek()
            f, depth = self.formula(1, level + 1)
            body = self._as_obligation(f, start)
            self.expect_sym("]")
            stit = Cstit if kw.text == "cstit" else Dstit
            return stit(agent, body), self._deepen(depth, tok)
        if tok.kind == "ident":
            if tok.text in ("A", "E") and self._starts_formula(1):
                self.next()
                f, depth = self.formula(1, level + 1)
                path = ForallPaths if tok.text == "A" else ExistsPaths
                return path(f), self._deepen(depth, tok)
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
        if name == "X":
            if self.peek().text == "^":
                self.next()
                steps = self.expect_int()
                f, depth = self._unary(level + 1)
                return NextPow(steps, f), self._deepen(depth, tok)
            f, depth = self._unary(level + 1)
            return Next(f), self._deepen(depth, tok)
        if name == "F":
            # F[ starts a bound only when an integer follows; otherwise
            # the bracket is a stit operand, as under X and G
            if self.peek().text == "[" and self.peek(1).kind == "int":
                self.next()
                lo = self.expect_int()
                self.expect_sym(":")
                hi = self.expect_int()
                self.expect_sym("]")
                if lo > hi:
                    self.error(f"F[{lo}:{hi}] needs lo <= hi", tok)
                f, depth = self._unary(level + 1)
                return EventuallyBounded(lo, hi, f), self._deepen(depth, tok)
            f, depth = self._unary(level + 1)
            return Eventually(f), self._deepen(depth, tok)
        if name == "G":
            f, depth = self._unary(level + 1)
            return Always(f), self._deepen(depth, tok)
        if name in ("U", "R", "BR", "cstit", "dstit"):
            self.error(f"{name!r} is an operator, not an atom", tok)
        return Atom(name), 0

    def _starts_formula(self, ahead):
        tok = self.peek(ahead)
        if tok.kind == "ident":
            return tok.text not in ("U", "R", "BR", "cstit", "dstit")
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

# The bounded operators, each unfolding into n next-step obligations:
# kind -> (n, the operator as refusals name it)
_UNFOLDS = {
    NextPow: lambda g: (g.steps, f"X^{g.steps}"),
    EventuallyBounded: lambda g: (g.hi, f"F[{g.lo}:{g.hi}]"),
    BoundedRelease: lambda g: (g.bound, f"BR[{g.bound}]"),
}
# the bodies that count their unfolding afresh: quantifiers and stits
_FRESH = (ForallPaths, ExistsPaths, Cstit, Dstit, DstitOf)


def compile(f):
    """f, a formula or an obligation, as rows (kind, data, kids): one row
    per distinct subformula, children before parents and f last.  kind is
    the node's class, data its atom name or agent (else None), and kids
    its children's row indices.

    X^t, F[n:m] and BR[N] are unfolded in place, and the unfolded chains
    share rows (X^3 p runs through the rows of X^2 p):

    F[n:m] f  =  X^n f | ... | X^m f
    l BR[0] r =  l | r
    l BR[N] r =  l | (r & X (l BR[N-1] r))

    Each unfolds into a chain of t, m or N next-step obligations, nested in
    the chains of the bounded operators around it up to the nearest path
    quantifier or stit (nexts of them); past MAX_UNFOLD in all the tableau
    would refuse them, so the first such operator from the root down, left
    first, is refused before it is unfolded.

    Iterative, and it hashes no formula: a row is found again by its kind,
    data and kids."""
    index, done = {}, {}  # index: row -> its place; done: (id, nexts) -> row

    def add(kind, data, *kids):
        return index.setdefault((kind, data, kids), len(index))

    todo = [(f, 0, None)]
    while todo:
        g, nexts, inner = todo.pop()
        kind, parts = type(g), children(g)
        if inner is None:  # first visit: refuse, then place the children
            if (id(g), nexts) in done:
                continue
            inner = 0 if kind in _FRESH else nexts
            if kind in _UNFOLDS:
                n, op = _UNFOLDS[kind](g)
                inner += n
                if inner > MAX_UNFOLD:
                    raise ResourceLimitError(
                        f"{op} unfolds into {n} next-step obligations"
                        f"{f' inside {nexts} more' if nexts else ''}; the "
                        f"tableau is capped at {MAX_UNFOLD} elementary bits")
            if parts:
                todo.append((g, nexts, inner))
                todo += [(c, inner, None) for c in reversed(parts)]
                continue
        kids = [done[id(c), inner] for c in parts]
        if kind is BoundedRelease:
            left, right = kids
            i = add(Or, None, left, right)
            for _ in range(g.bound):
                i = add(Or, None, left,
                        add(And, None, right, add(Next, None, i)))
        elif kind in _UNFOLDS:  # X^t g is F[t:t] g
            chain = kids
            for _ in range(_UNFOLDS[kind](g)[0]):
                chain.append(add(Next, None, chain[-1]))
            lo = g.steps if kind is NextPow else g.lo
            i = chain[lo]
            for later in chain[lo + 1:]:
                i = add(Or, None, i, later)
        else:
            data = g.name if kind is Atom else getattr(g, "agent", None)
            i = add(kind, data, *kids)
        done[id(g), nexts] = i
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


# Negation normal form: each kind as it becomes unnegated and negated.  F
# and G become U and R over a constant, ``true U .`` and ``false R .``;
# a negation moves onto its operand.
_NNF = {
    Not: (None, None), TrueFormula: (TrueFormula, FalseFormula),
    FalseFormula: (FalseFormula, TrueFormula),
    And: (And, Or), Or: (Or, And), Implies: (Or, And), Next: (Next, Next),
    Until: (Until, Release), Release: (Release, Until),
    Eventually: (Until, Release), Always: (Release, Until),
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
        if kind is Atom:
            i = add(row)
            at[todo.pop()] = add((Not, None, (i,))) if neg else i
            continue
        if kind not in _NNF:
            raise GrammarError(f"cannot normalize {kind.__name__}; strip "
                               f"quantifiers first", production="nnf")
        become = _NNF[kind][neg]
        want = [2 * k + neg for k in kids]
        if kind is Not or kind is Implies:  # the left operand flips
            want[0] ^= 1
        first = ()  # F and G: the constant comes before the operand
        if kind is Eventually or kind is Always:
            first = (add((TrueFormula if become is Until else FalseFormula,
                          None, ())),)
        missing = [w for w in want if w not in at]
        if missing:
            todo += reversed(missing)
            continue
        todo.pop()
        kids = first + tuple([at[w] for w in want])
        at[key] = kids[0] if become is None else add((become, None, kids))
    return tuple(index)


def nnf(f):
    """The negation normal form of a formula (see nnf_rows)."""
    return decompile(nnf_rows(compile(f)))


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
