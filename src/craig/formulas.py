"""Propositional/modal formula ASTs, parsing, semantics, and clause-set algebra.

The connective set is {false, atoms, ~, &, |, []}.  `true` and `->` exist
only as parser sugar: `A -> B` expands to `~A | B` and `true` parses to the
canonical top formula `~false`.
"""

from __future__ import annotations

import itertools
import re
import threading
import weakref
from dataclasses import dataclass


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    """Malformed input text; carries 1-based line and column."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class IncompleteAssignment(FormulaError):
    pass


class ModalNotSupported(FormulaError):
    pass


class NotValidImplication(FormulaError):
    pass


class TooManySharedVars(FormulaError):
    pass


class PruneTooLarge(FormulaError):
    """prune would build more than MAX_PRUNE_RESOLVENTS resolvents for one atom."""


# ---------------------------------------------------------------------------
# Formula AST
# ---------------------------------------------------------------------------
#
# Formulas are hash-consed (Filliâtre & Conchon, "Type-safe modular
# hash-consing", 2006): building a node returns the one live node with that
# structure, so equal formulas are the same object, and equality and hashing
# are by identity.  The intern table is a weak-valued dictionary from
# (Atom, name) or (class, the identities of the children) to the node.  A
# node holds its children, so while it lives the identities in its key name
# the same objects; when it dies its entry goes with it, so the table holds
# only live formulas.  A node keeps its nesting depth, and stores its
# printed text (the canonical sort key), literal key, variable set, length
# and modality on first use.

# true and false name the constants, never an atom
ATOM_NAME = re.compile(r"(?!(?:true|false)\Z)[a-z][a-zA-Z0-9_]*\Z")

# The deepest nesting the parser accepts, as depth of the built tree: atoms
# and false are 0 deep and each connective adds one, so a flat chain of &,
# | or -> operands counts as nesting too.  The formula walkers recurse up to
# three times per level and the parser four times per parenthesis, well
# inside the recursion limit craig.sequent sets; that limit does not guard
# the C stack, though, which Python 3.10 spends on every frame.  There,
# with an 8 MB stack, printing and evaluation of one formula crash
# between 6000 and 7000 levels, so this bound leaves a sixfold margin for
# the walkers that run over formulas inside proofs.
MAX_DEPTH = 1000

_INTERN = weakref.WeakValueDictionary()
_INTERN_LOCK = threading.Lock()
_store = object.__setattr__


def _intern(key, cls, *fields, **stored):
    """The live node for key; one made of cls, the field values (in
    __slots__ order) and the stored attributes if there is none."""
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        _store(node, name, value)
    for name, value in stored.items():
        _store(node, name, value)
    with _INTERN_LOCK:
        return _INTERN.setdefault(key, node)


def _not_a_formula(f):
    return FormulaError(f"not a formula: {f!r}")


def _atom_name(name) -> str:
    if not ATOM_NAME.match(name):
        raise FormulaError(f"bad atom name: {name!r}")
    return name


def _depth(child) -> int:
    if not isinstance(child, Formula):
        raise _not_a_formula(child)
    return child.depth


class Formula:
    """An immutable interned formula node.  Build one with Atom, Neg, And,
    Or or Box, or take BOTTOM or TOP."""

    __slots__ = ("depth", "_key", "_literal_key", "_vars", "_length", "_modal", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError("formulas are immutable")

    def __delattr__(self, name):
        raise AttributeError("formulas are immutable")

    def __repr__(self):
        return f"<{format_formula(self)}>"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, which returns
        # the interned node
        return type(self), tuple(getattr(self, name) for name in type(self).__slots__)


class Bottom(Formula):
    __slots__ = ()

    def __new__(cls):
        return _intern((Bottom,), Bottom, depth=0)


class Atom(Formula):
    __slots__ = ("name",)

    def __new__(cls, name):
        key = (Atom, name)
        return _INTERN.get(key) or _intern(key, Atom, _atom_name(name), depth=0)


class Neg(Formula):
    __slots__ = ("body",)

    def __new__(cls, body):
        key = (Neg, id(body))
        return _INTERN.get(key) or _intern(key, Neg, body, depth=_depth(body) + 1)


class Box(Formula):
    __slots__ = ("body",)

    def __new__(cls, body):
        key = (Box, id(body))
        return _INTERN.get(key) or _intern(key, Box, body, depth=_depth(body) + 1)


class And(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        key = (And, id(left), id(right))
        return _INTERN.get(key) or _intern(key, And, left, right, depth=max(_depth(left), _depth(right)) + 1)


class Or(Formula):
    __slots__ = ("left", "right")

    def __new__(cls, left, right):
        key = (Or, id(left), id(right))
        return _INTERN.get(key) or _intern(key, Or, left, right, depth=max(_depth(left), _depth(right)) + 1)


BOTTOM = Bottom()
TOP = Neg(BOTTOM)


def impl(a, b):
    """A -> B as sugar: ~A | B."""
    return Or(Neg(a), b)


def vars_of(f: Formula) -> frozenset:
    try:
        return f._vars
    except AttributeError:
        pass
    if isinstance(f, Atom):
        v = frozenset([f.name])
    elif isinstance(f, (Neg, Box)):
        v = vars_of(f.body)
    elif isinstance(f, (And, Or)):
        v = vars_of(f.left) | vars_of(f.right)
    elif isinstance(f, Bottom):
        v = frozenset()
    else:
        raise _not_a_formula(f)
    _store(f, "_vars", v)
    return v


def formula_length(f: Formula) -> int:
    """Symbol count: atoms and false weigh 1, each connective adds 1."""
    try:
        return f._length
    except AttributeError:
        pass
    if isinstance(f, (Atom, Bottom)):
        n = 1
    elif isinstance(f, (Neg, Box)):
        n = 1 + formula_length(f.body)
    elif isinstance(f, (And, Or)):
        n = 1 + formula_length(f.left) + formula_length(f.right)
    else:
        raise _not_a_formula(f)
    _store(f, "_length", n)
    return n


def is_modal(f: Formula) -> bool:
    try:
        return f._modal
    except AttributeError:
        pass
    if isinstance(f, Box):
        m = True
    elif isinstance(f, Neg):
        m = is_modal(f.body)
    elif isinstance(f, (And, Or)):
        m = is_modal(f.left) or is_modal(f.right)
    elif isinstance(f, (Atom, Bottom)):
        m = False
    else:
        raise _not_a_formula(f)
    _store(f, "_modal", m)
    return m


def signed_subformulas(f: Formula, positive=True):
    """All (subformula, polarity) pairs occurring in f, f itself positive."""
    out = {(f, positive)}
    if isinstance(f, (And, Or)):
        out |= signed_subformulas(f.left, positive)
        out |= signed_subformulas(f.right, positive)
    elif isinstance(f, Neg):
        out |= signed_subformulas(f.body, not positive)
    elif isinstance(f, Box):
        out |= signed_subformulas(f.body, positive)
    return out


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# How tightly each node binds; a child that binds looser than its place in
# the parent needs parentheses.  & and | group to the left.
_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3
_PREC = {Or: _PREC_OR, And: _PREC_AND}


def _wrap(g, prec):
    """format_formula(g), parenthesized when g binds looser than prec."""
    t = format_formula(g)
    return "(" + t + ")" if _PREC.get(type(g), _PREC_UNARY) < prec else t


def _text(f):
    """f printed, its children through format_formula."""
    if f is TOP:
        return "true"
    cls = type(f)
    if cls is Atom:
        return f.name
    if cls is Bottom:
        return "false"
    if cls is Neg:
        return "~" + _wrap(f.body, _PREC_UNARY)
    if cls is Box:
        return "[]" + _wrap(f.body, _PREC_UNARY)
    if cls is And:
        return _wrap(f.left, _PREC_AND) + " & " + _wrap(f.right, _PREC_AND + 1)
    if cls is Or:
        return _wrap(f.left, _PREC_OR) + " | " + _wrap(f.right, _PREC_OR + 1)
    raise _not_a_formula(f)


def format_formula(f: Formula) -> str:
    """The printed text, which is also the canonical sort key."""
    try:
        return f._key
    except AttributeError:
        pass
    key = _text(f)
    _store(f, "_key", key)
    return key


def format_formula_compact(f: Formula) -> str:
    """The printed text without the spaces around & and |, the only spaces
    it holds."""
    return format_formula(f).replace(" ", "")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"->|\[\]|[~&|()]|(?P<word>[a-z][a-zA-Z0-9_]*)|\S")
_SYMBOLS = frozenset(("->", "[]", "~", "&", "|", "(", ")", "true", "false"))


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.items = []  # (kind, value, offset)
        for m in _TOKEN_RE.finditer(text):
            tok = m.group()
            if tok in _SYMBOLS:
                self.items.append((tok, tok, m.start()))
            elif m.lastgroup:
                self.items.append(("atom", tok, m.start()))
            else:
                raise self.error(f"unexpected token {tok!r}", m.start())
        self.items.append(("eof", "", len(text)))
        self.idx = 0
        self.parens = 0  # parentheses open at the current token

    def error(self, message, offset) -> ParseError:
        """A ParseError at the 1-based line and column of offset."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)

    def peek(self):
        return self.items[self.idx]

    def next(self):
        item = self.items[self.idx]
        self.idx += 1
        return item

    def expect(self, kind):
        item = self.next()
        if item[0] != kind:
            raise self.error(f"expected {kind!r}, found {item[1]!r}", item[2])
        return item


def _too_deep(toks, token):
    return toks.error(f"formula nested deeper than {MAX_DEPTH}", token[2])


def _bounded(toks, f, token):
    """f, built at token, unless it is nested deeper than MAX_DEPTH."""
    if f.depth > MAX_DEPTH:
        raise _too_deep(toks, token)
    return f


def _parse_impl(toks):
    # right-associative, folded without recursion
    operands = [_parse_or(toks)]
    arrows = []
    while toks.peek()[0] == "->":
        arrows.append(toks.next())
        operands.append(_parse_or(toks))
    f = operands.pop()
    while operands:
        f = _bounded(toks, impl(operands.pop(), f), arrows.pop())
    return f


def _parse_or(toks):
    f = _parse_and(toks)
    while toks.peek()[0] == "|":
        op = toks.next()
        f = _bounded(toks, Or(f, _parse_and(toks)), op)
    return f


def _parse_and(toks):
    f = _parse_unary(toks)
    while toks.peek()[0] == "&":
        op = toks.next()
        f = _bounded(toks, And(f, _parse_unary(toks)), op)
    return f


def _parse_unary(toks):
    prefixes = []  # applied innermost first, without recursion
    while toks.peek()[0] in ("~", "[]"):
        prefixes.append(toks.next())
    token = toks.next()
    kind, value, offset = token
    if kind == "atom":
        f = Atom(value)
    elif kind == "false":
        f = BOTTOM
    elif kind == "true":
        f = TOP
    elif kind == "(":
        toks.parens += 1
        if toks.parens > MAX_DEPTH:
            raise _too_deep(toks, token)
        f = _parse_impl(toks)
        toks.expect(")")
        toks.parens -= 1
    else:
        raise toks.error(f"unexpected token {value!r}", offset)
    for op in reversed(prefixes):
        f = _bounded(toks, Neg(f) if op[0] == "~" else Box(f), op)
    return f


def parse_formula(text: str) -> Formula:
    toks = _Tokens(text)
    f = _parse_impl(toks)
    kind, value, offset = toks.peek()
    if kind != "eof":
        raise toks.error(f"trailing input {value!r}", offset)
    return f


# ---------------------------------------------------------------------------
# Semantics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KripkeModel:
    """Finite Kripke model: worlds, successor map, per-world valuation."""

    worlds: tuple
    successors: tuple  # tuple of (world, frozenset of worlds)
    valuation: tuple   # tuple of (world, tuple of (atom, bool))

    def succ(self, w):
        for world, out in self.successors:
            if world == w:
                return out
        return frozenset()

    def value(self, w, name):
        for world, pairs in self.valuation:
            if world == w:
                for atom, b in pairs:
                    if atom == name:
                        return b
                return False
        return False


def make_model(worlds, successors, valuation) -> KripkeModel:
    return KripkeModel(
        tuple(worlds),
        tuple((w, frozenset(successors.get(w, ()))) for w in worlds),
        tuple((w, tuple(sorted(valuation.get(w, {}).items()))) for w in worlds),
    )


def eval_formula(f: Formula, assignment=None, model: KripkeModel = None, world=None) -> bool:
    if model is not None:
        return _eval_kripke(f, model, world)
    if is_modal(f):
        raise ModalNotSupported("modal formula needs a Kripke model")
    return _eval_classical(f, assignment or {})


def _eval_classical(f, a):
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        if f.name not in a:
            raise IncompleteAssignment(f"no value for atom {f.name}")
        return a[f.name]
    if isinstance(f, Neg):
        return not _eval_classical(f.body, a)
    if isinstance(f, And):
        return _eval_classical(f.left, a) and _eval_classical(f.right, a)
    if isinstance(f, Or):
        return _eval_classical(f.left, a) or _eval_classical(f.right, a)
    raise FormulaError(f"cannot evaluate {f!r}")


def _eval_kripke(f, model, w):
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        return model.value(w, f.name)
    if isinstance(f, Neg):
        return not _eval_kripke(f.body, model, w)
    if isinstance(f, And):
        return _eval_kripke(f.left, model, w) and _eval_kripke(f.right, model, w)
    if isinstance(f, Or):
        return _eval_kripke(f.left, model, w) or _eval_kripke(f.right, model, w)
    if isinstance(f, Box):
        return all(_eval_kripke(f.body, model, v) for v in model.succ(w))
    raise FormulaError(f"cannot evaluate {f!r}")


def assignments_over(names):
    names = sorted(names)
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def entails(a: Formula, b: Formula) -> bool:
    if is_modal(a) or is_modal(b):
        raise ModalNotSupported("use the modal prover for modal entailment")
    names = vars_of(a) | vars_of(b)
    return all(
        _eval_classical(b, v) for v in assignments_over(names) if _eval_classical(a, v)
    )


def equiv(f: Formula, g: Formula) -> bool:
    if is_modal(f) or is_modal(g):
        raise ModalNotSupported("use the modal prover for modal equivalence")
    names = vars_of(f) | vars_of(g)
    return all(
        _eval_classical(f, v) == _eval_classical(g, v) for v in assignments_over(names)
    )


def sel(c: Formula, x: Formula, y: Formula) -> Formula:
    """Ternary selector (c | x) & (~c | y), kept unexpanded in the AST."""
    return And(Or(c, x), Or(Neg(c), y))


# ---------------------------------------------------------------------------
# Literals, clauses, clause sets
# ---------------------------------------------------------------------------

# A clause literal is the formula itself: an atom, false or a boxed formula
# when positive, and the negation of one when negative.  TOP, ~false, is the
# literal `true`.

def Literal(negated, body) -> Formula:
    """The literal over body: body itself, or Neg(body) when negated."""
    if not isinstance(body, (Atom, Bottom, Box)):
        raise FormulaError(f"literal body must be an atom, false, or boxed: {body!r}")
    return Neg(body) if negated else body


def split_literal(lit):
    """(negated, body) of a literal; raises if lit is not one."""
    negated = type(lit) is Neg
    body = lit.body if negated else lit
    if not isinstance(body, (Atom, Bottom, Box)):
        raise FormulaError(f"not a literal: {lit!r}")
    return negated, body


def format_literal(lit: Formula) -> str:
    negated, body = split_literal(lit)
    if isinstance(body, Bottom):
        return "true" if negated else "false"
    text = "[](" + format_formula_compact(body.body) + ")" if isinstance(body, Box) else body.name
    return "~" + text if negated else text


def literal_key(lit: Formula):
    """(negated, the literal's text without its sign): the canonical
    literal order."""
    try:
        return lit._literal_key
    except AttributeError:
        pass
    key = isinstance(lit, Neg), format_literal(lit).lstrip("~")
    _store(lit, "_literal_key", key)
    return key


def clause(*lits) -> frozenset:
    out = []
    for l in lits:
        if isinstance(l, str):
            l = parse_literal(l)
        out.append(l)
    return frozenset(out)


def sorted_literals(c) -> list:
    return sorted(c, key=literal_key)


def clause_key(c):
    """The literal keys of c in order, each computed once."""
    return tuple(sorted(map(literal_key, c)))


def sorted_clauses(cs) -> list:
    return sorted(cs, key=clause_key)


def cross(cs1, cs2) -> frozenset:
    """Clause-set product: pairwise unions."""
    return frozenset(c | d for c in cs1 for d in cs2)


def clause_formula(c) -> Formula:
    lits = sorted_literals(c)
    if not lits:
        return BOTTOM
    f = lits[-1]
    for l in reversed(lits[:-1]):
        f = Or(l, f)
    return f


def clause_set_formula(cs) -> Formula:
    """Right-associated conjunction of right-associated disjunctions."""
    clauses_ = sorted_clauses(cs)
    if not clauses_:
        return TOP
    f = clause_formula(clauses_[-1])
    for c in reversed(clauses_[:-1]):
        f = And(clause_formula(c), f)
    return f


def parse_literal(text: str) -> Formula:
    text = text.strip()
    negated = text.startswith("~")
    if negated:
        text = text[1:]
    if text == "false":
        return Literal(negated, BOTTOM)
    if text == "true":
        return Literal(not negated, BOTTOM)
    doubly, body = split_literal(parse_formula(text))
    if doubly:
        raise FormulaError(f"doubly negated literal text: {text!r}")
    return Literal(negated, body)


def _split_clause_line(line):
    # split on whitespace outside parentheses so boxed bodies stay intact
    if "(" not in line and ")" not in line:
        return line.split()
    parts = []
    depth = 0
    cur = []
    for ch in line:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch.isspace() and depth == 0:
            if cur:
                parts.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return parts


def parse_clause_set(text: str) -> frozenset:
    if text == "":
        return frozenset()
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    out = []
    for line in lines:
        out.append(frozenset(parse_literal(tok) for tok in _split_clause_line(line)))
    return frozenset(out)


def format_clause(c) -> str:
    return " ".join(format_literal(l) for l in sorted_literals(c))


def format_clause_set(cs) -> str:
    return "".join(format_clause(c) + "\n" for c in sorted_clauses(cs))


# ---------------------------------------------------------------------------
# NNF and CNF
# ---------------------------------------------------------------------------

_OPAQUE = (Atom, Bottom, Box)


def nnf(f: Formula, done=None) -> Formula:
    """Push negations to atoms; boxed subformulas are kept opaque.  One
    bottom-up pass on an explicit stack over the distinct formulas whose
    NNFs make up f's: interned formulas are equal only when identical, so
    done, a dict keyed by formula (a fresh one when None), holds each one's
    NNF once, and a later call given the same dict reuses them.  A formula
    that is its own NNF (an atom, false, a box or the negation of one)
    stays out of the dict."""
    if done is None:
        done = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # a formula whose parts are done
            g, build, parts = g
            parts = [done.get(h, h) for h in parts]
            done[g] = build(*parts) if build else parts[0]
            continue
        if g in done or isinstance(g, _OPAQUE):
            continue
        if isinstance(g, (And, Or)):
            parts, build = (g.left, g.right), type(g)
        else:
            body = g.body
            if isinstance(body, _OPAQUE):
                continue
            if isinstance(body, Neg):
                parts, build = (body.body,), None
            elif isinstance(body, (And, Or)):
                parts = Neg(body.left), Neg(body.right)
                build = Or if isinstance(body, And) else And
            else:
                raise FormulaError(f"cannot normalize {g!r}")
        stack.append((g, build, parts))
        stack += reversed(parts)  # the left part first
    return done.get(f, f)


def cnf(f: Formula, done=None) -> frozenset:
    """Distributive clause-set normal form of an NNF formula.  One
    bottom-up pass on an explicit stack over the distinct subformulas,
    with done as in nnf."""
    if done is None:
        done = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # a conjunction or disjunction whose parts are done
            (g,) = g
            left, right = done[g.left], done[g.right]
            done[g] = left | right if isinstance(g, And) else cross(left, right)
        elif g in done:
            continue
        elif isinstance(g, (And, Or)):
            stack += ((g,), g.right, g.left)  # the left part first
        elif g is TOP:
            done[g] = frozenset()
        elif isinstance(g, Bottom):
            done[g] = frozenset([frozenset()])
        else:
            split_literal(g)  # raises unless g is a literal
            done[g] = frozenset([frozenset([g])])
    return done[f]


def formula_cnf(f: Formula, memo=None) -> frozenset:
    """cnf(nnf(f)).  memo, a pair of dicts for nnf and cnf, lets a later
    call reuse the work on the subformulas it shares with f."""
    nnfs, cnfs = ({}, {}) if memo is None else memo
    return cnf(nnf(f, nnfs), cnfs)


# ---------------------------------------------------------------------------
# Subsumption and pruning
# ---------------------------------------------------------------------------

def subsumes(a, b) -> bool:
    """a subsumes b: every clause of b contains some clause of a."""
    return all(any(c <= d for c in a) for d in b)


def is_pruned_clause_set(cs) -> bool:
    polarity = {}
    for c in cs:
        for lit in c:
            if lit is TOP:
                return False
            negated, body = split_literal(lit)
            seen = polarity.setdefault(body, set())
            seen.add(negated)
            if len(seen) == 2:
                return False
    return True


# The most resolvents prune builds for one atom.  Each elimination can
# square the clause count, and a few dozen random 3-clauses already exhaust
# memory; the largest elimination in the tests and the benchmark builds 2.
MAX_PRUNE_RESOLVENTS = 100_000


def prune(cs) -> frozenset:
    """Resolve away every atom occurring in both polarities.

    Deletes clauses containing the literal `true` first, drops tautological
    clauses, then eliminates each mixed-polarity atom in canonical order by
    replacing its clauses with all resolvents.  Raises PruneTooLarge before
    an elimination that would build more than MAX_PRUNE_RESOLVENTS.
    """
    cs = frozenset(c for c in cs if TOP not in c)
    mixed = set()
    polarity = {}
    for c in cs:
        for lit in c:
            negated, body = split_literal(lit)
            if body is BOTTOM:
                continue
            seen = polarity.setdefault(body, set())
            seen.add(negated)
            if len(seen) == 2:
                mixed.add(body)
    for plus in sorted(mixed, key=format_formula_compact):
        minus = Neg(plus)
        cs = frozenset(c for c in cs if not (plus in c and minus in c))
        keep = [c for c in cs if plus not in c and minus not in c]
        with_plus = [c for c in cs if plus in c]
        with_minus = [c for c in cs if minus in c]
        if len(with_plus) * len(with_minus) > MAX_PRUNE_RESOLVENTS:
            raise PruneTooLarge(
                f"eliminating {format_formula_compact(plus)} would build "
                f"{len(with_plus)} x {len(with_minus)} resolvents, more than {MAX_PRUNE_RESOLVENTS}"
            )
        resolvents = [
            (c1 - {plus}) | (c2 - {minus}) for c1 in with_plus for c2 in with_minus
        ]
        cs = frozenset(keep) | frozenset(resolvents)
    return cs


def clause_set_vars(cs) -> frozenset:
    out = set()
    for c in cs:
        for lit in c:
            out |= vars_of(lit)
    return frozenset(out)


def is_clause_set_interpolant(cs, a: Formula, b: Formula) -> bool:
    f = clause_set_formula(cs)
    return (
        clause_set_vars(cs) <= (vars_of(a) & vars_of(b))
        and entails(a, f)
        and entails(f, b)
    )


def is_pruned_interpolant(cs, a: Formula, b: Formula) -> bool:
    """Pruned clause set, interpolant, and no clause has an a-entailed proper subclause."""
    if not is_pruned_clause_set(cs):
        return False
    if not is_clause_set_interpolant(cs, a, b):
        return False
    for c in cs:
        lits = list(c)
        for r in range(len(lits)):
            for sub in itertools.combinations(lits, r):
                if entails(a, clause_formula(frozenset(sub))):
                    return False
    return True


# ---------------------------------------------------------------------------
# Semantic interpolant oracle
# ---------------------------------------------------------------------------

def _projected_rows(f, shared):
    """Truth-table rows over the shared atoms reachable by some model of f."""
    rows = set()
    extra = sorted(vars_of(f) - set(shared))
    for row in assignments_over(shared):
        for ext in assignments_over(extra):
            v = dict(row)
            v.update(ext)
            if _eval_classical(f, v):
                rows.add(tuple(row[x] for x in shared))
                break
    return rows


def _forcing_rows(b, shared):
    """Rows over the shared atoms under which b holds for every extension."""
    rows = set()
    extra = sorted(vars_of(b) - set(shared))
    for row in assignments_over(shared):
        ok = True
        for ext in assignments_over(extra):
            v = dict(row)
            v.update(ext)
            if not _eval_classical(b, v):
                ok = False
                break
        if ok:
            rows.add(tuple(row[x] for x in shared))
    return rows


def _prime_implicate_cnf(true_rows, shared):
    """Canonical CNF of a boolean function given by its true rows: all minimal implied clauses."""
    implied = []
    for signs in itertools.product([None, False, True], repeat=len(shared)):
        # signs[i] True puts shared[i] in the clause, False puts ~shared[i]
        if all(any(sign == value for sign, value in zip(signs, row)) for row in true_rows):
            implied.append(frozenset(
                Literal(not sign, Atom(name)) for name, sign in zip(shared, signs) if sign is not None
            ))
    minimal = [c for c in implied if not any(d < c for d in implied)]
    return frozenset(minimal)


def enumerate_interpolants(a: Formula, b: Formula, max_shared=4):
    """One canonical representative per equivalence class of interpolants of a -> b.

    Brute force over all boolean functions on the shared atoms; each class is
    rendered as the formula of its prime-implicate clause set.
    """
    if is_modal(a) or is_modal(b):
        raise ModalNotSupported("interpolant enumeration is propositional")
    shared = sorted(vars_of(a) & vars_of(b))
    if len(shared) > max_shared:
        raise TooManySharedVars(f"{len(shared)} shared atoms exceeds cap {max_shared}")
    lower = _projected_rows(a, shared)
    upper = _forcing_rows(b, shared)
    if not lower <= upper:
        raise NotValidImplication("the implication is not valid")
    free = sorted(upper - lower)
    out = []
    for picks in itertools.product([False, True], repeat=len(free)):
        rows = set(lower) | {r for r, take in zip(free, picks) if take}
        out.append((rows, clause_set_formula(_prime_implicate_cnf(rows, shared))))
    order = list(itertools.product([False, True], repeat=len(shared)))
    out.sort(key=lambda rf: tuple(r in rf[0] for r in order))
    return [f for _, f in out]


# ---------------------------------------------------------------------------
# Modal CNF
# ---------------------------------------------------------------------------

def outer_boxes(f: Formula):
    """Boxed subformulas not nested inside another box, in first-seen order."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Box):
            if g not in out:
                out.append(g)
        elif isinstance(g, Neg):
            stack.append(g.body)
        elif isinstance(g, (And, Or)):
            stack += (g.right, g.left)
    return out


def mcnf(f: Formula) -> frozenset:
    """Clause set of modal literals: abstract outer boxes, take CNF, substitute back."""
    boxes = outer_boxes(f)
    taken = vars_of(f)
    names = {}
    i = 0
    for box in boxes:
        while f"b{i}" in taken:
            i += 1
        names[box] = f"b{i}"
        i += 1

    def abstract(g):
        if isinstance(g, Box):
            return Atom(names[g])
        if isinstance(g, Neg):
            return Neg(abstract(g.body))
        if isinstance(g, And):
            return And(abstract(g.left), abstract(g.right))
        if isinstance(g, Or):
            return Or(abstract(g.left), abstract(g.right))
        return g

    back = {name: box for box, name in names.items()}
    try:
        cs = formula_cnf(abstract(f))
    finally:
        del abstract  # it refers to itself: a cycle per call
    result = []
    for c in cs:
        lits = []
        for lit in c:
            negated, body = split_literal(lit)
            if isinstance(body, Atom) and body.name in back:
                lits.append(Literal(negated, back[body.name]))
            else:
                lits.append(lit)
        result.append(frozenset(lits))
    return frozenset(result)
