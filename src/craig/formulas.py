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
from functools import reduce
from operator import or_


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
# | or -> operands counts as nesting too.  No walker recurses, so the bound
# is not for the stack: it bounds the printed texts that the nodes store,
# which grow with the square of the depth.
MAX_DEPTH = 1000

# The longest formula, in symbols, whose repr is its text
REPR_LENGTH = 200

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
        length = formula_length(self)  # a long text is not printed, so not stored
        if length > REPR_LENGTH:
            return f"<{type(self).__name__} depth={self.depth} length={length}>"
        return f"<{format_formula(self)}>"

    def __reduce__(self):
        # each distinct subformula once, in fold order, as its class and its
        # name or its parts' indices, rebuilt in one loop through the
        # constructors: no recursion at any depth, and the interned node back
        rows = []

        def row(g, indices):
            rows.append((type(g), g.name) if type(g) is Atom else (type(g), *indices))
            return len(rows) - 1

        fold(self, row, {})
        return _unpickled, (tuple(rows),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


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


def _unpickled(rows) -> Formula:
    """The formula that Formula.__reduce__ wrote as rows."""
    nodes = []
    for cls, *args in rows:
        nodes.append(cls(*args) if cls is Atom else cls(*map(nodes.__getitem__, args)))
    return nodes[-1]


def impl(a, b):
    """A -> B as sugar: ~A | B."""
    return Or(Neg(a), b)


# ---------------------------------------------------------------------------
# The fold
# ---------------------------------------------------------------------------
#
# Every walk over a formula is one fold: a bottom-up pass on an explicit
# stack that computes the value of each distinct formula it reaches once,
# from the values of its parts.  So a walk takes time linear in the distinct
# subformulas, however much a formula shares, and no recursion at any depth.

def parts(g) -> tuple:
    """The immediate subformulas of g, the left one first."""
    cls = type(g)
    if cls is And or cls is Or:
        return g.left, g.right
    if cls is Neg or cls is Box:
        return (g.body,)
    return ()


def parts_outside_boxes(g) -> tuple:
    """parts, with boxed formulas opaque."""
    return () if type(g) is Box else parts(g)


_MISSING = object()


def fold(f: Formula, combine, memo, parts=parts, slot=None):
    """The value of f, where combine(g, the values of parts(g) in a list) is
    the value of g, computed once for each distinct formula g that f reaches
    through parts.  memo, a dict keyed by formula, gains every value
    computed; a formula it holds is not walked, so a caller may seed it or
    pass the same dict to a later call.  slot names the Formula attribute,
    if any, that stores the value on the node: every value computed is
    stored there, and a formula below f that has one is not walked (the
    callers read f's own before they fold)."""
    if not isinstance(f, Formula):
        raise _not_a_formula(f)
    stack = [f]
    value_of = memo.__getitem__
    while stack:
        g = stack.pop()
        if type(g) is tuple:  # a formula whose parts are done
            g, below = g
        elif g in memo:
            continue
        else:
            below = parts(g)
            waiting = False  # whether g is back on the stack, under its parts
            for h in reversed(below):  # the left part first
                if h in memo:
                    continue
                if slot is not None:
                    value = getattr(h, slot, _MISSING)
                    if value is not _MISSING:
                        memo[h] = value
                        continue
                if not waiting:
                    stack.append((g, below))
                    waiting = True
                stack.append(h)
            if waiting:
                continue
        value = memo[g] = combine(g, list(map(value_of, below)))
        if slot is not None:
            _store(g, slot, value)
    return memo[f]


def _variables(g, values):
    return frozenset((g.name,)) if type(g) is Atom else frozenset().union(*values)


def vars_of(f: Formula) -> frozenset:
    try:
        return f._vars
    except AttributeError:
        return fold(f, _variables, {}, slot="_vars")


def formula_length(f: Formula) -> int:
    """Symbol count: atoms and false weigh 1, each connective adds 1."""
    try:
        return f._length
    except AttributeError:
        return fold(f, lambda g, values: 1 + sum(values), {}, slot="_length")


def is_modal(f: Formula) -> bool:
    try:
        return f._modal
    except AttributeError:
        return fold(f, lambda g, values: type(g) is Box or any(values), {}, parts_outside_boxes, "_modal")


def subformulas(f: Formula):
    """The distinct subformulas of f, f and the bodies of boxes among them,
    as the keys of a dict, each after its parts."""
    memo = {}
    fold(f, lambda g, values: None, memo)
    return memo.keys()


def _rebuilt(g, values):
    """g over the given parts."""
    return type(g)(*values) if values else g


def substitute(f: Formula, mapping) -> Formula:
    """f with each subformula that mapping, a dict from formula to formula,
    holds replaced by its image, all at once; an image is not walked.  The
    dict is the fold's memo and gains the result for every subformula
    walked, so a later call given it reuses them."""
    return fold(f, _rebuilt, mapping)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# How tightly each node binds; a child that binds looser than its place in
# the parent needs parentheses.  & and | group to the left.
_PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3
_PREC = {Or: _PREC_OR, And: _PREC_AND}


def _wrap(g, text, prec):
    """text, g's, parenthesized when g binds looser than prec."""
    return "(" + text + ")" if _PREC.get(type(g), _PREC_UNARY) < prec else text


def _printed(g, texts):
    """g printed, given the texts of its parts."""
    cls = type(g)
    if cls is Atom:
        return g.name
    if cls is Bottom:
        return "false"
    if g is TOP:
        return "true"
    if cls is Neg or cls is Box:
        return ("~" if cls is Neg else "[]") + _wrap(g.body, texts[0], _PREC_UNARY)
    prec = _PREC[cls]
    op = " & " if cls is And else " | "
    return _wrap(g.left, texts[0], prec) + op + _wrap(g.right, texts[1], prec + 1)


def format_formula(f: Formula) -> str:
    """The printed text, which is also the canonical sort key."""
    try:
        return f._key
    except AttributeError:
        return fold(f, _printed, {}, slot="_key")


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

    def error(self, message, offset) -> ParseError:
        """A ParseError at the 1-based line and column of offset."""
        line_start = self.text.rfind("\n", 0, offset) + 1
        return ParseError(message, self.text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _too_deep(toks, token):
    return toks.error(f"formula nested deeper than {MAX_DEPTH}", token[2])


def _bounded(toks, f, token):
    """f, built at token, unless it is nested deeper than MAX_DEPTH."""
    if f.depth > MAX_DEPTH:
        raise _too_deep(toks, token)
    return f


def parse_formula(text: str) -> Formula:
    """One left-to-right pass on explicit stacks, one frame per open
    parenthesis.  ~ and [] bind tightest, then &, then | (both grouped to
    the left), then -> (grouped to the right)."""
    toks = _Tokens(text)
    items, i = toks.items, 0
    # the levels open inside the innermost parenthesis: the prefixes of the
    # operand being read, the & and | chains so far, each with the token
    # that extends it, and the -> operands so far, each with its arrow
    prefixes, conj, disj, arrows = [], None, None, []
    frames = []  # the levels open inside each enclosing parenthesis
    while True:
        token = items[i]
        i += 1
        kind, value, offset = token
        if kind == "~" or kind == "[]":
            prefixes.append(token)
            continue
        if kind == "(":
            if len(frames) == MAX_DEPTH:
                raise _too_deep(toks, token)
            frames.append((prefixes, conj, disj, arrows))
            prefixes, conj, disj, arrows = [], None, None, []
            continue
        if kind == "atom":
            f = Atom(value)
        elif kind == "false":
            f = BOTTOM
        elif kind == "true":
            f = TOP
        else:
            raise toks.error(f"unexpected token {value!r}", offset)
        while True:  # f is an operand: close each level that ends with it
            for op in reversed(prefixes):
                f = _bounded(toks, Neg(f) if op[0] == "~" else Box(f), op)
            prefixes = []
            if conj is not None:
                f = _bounded(toks, And(conj[0], f), conj[1])
            kind, value, offset = token = items[i]
            i += 1
            if kind == "&":
                conj = f, token
                break
            conj = None
            if disj is not None:
                f = _bounded(toks, Or(disj[0], f), disj[1])
            if kind == "|":
                disj = f, token
                break
            disj = None
            if kind == "->":
                arrows.append((f, token))
                break
            while arrows:
                left, arrow = arrows.pop()
                f = _bounded(toks, impl(left, f), arrow)
            if not frames:
                if kind != "eof":
                    raise toks.error(f"trailing input {value!r}", offset)
                return f
            if kind != ")":
                raise toks.error(f"expected ')', found {value!r}", offset)
            prefixes, conj, disj, arrows = frames.pop()


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
                return dict(pairs).get(name, False)
        return False


def make_model(worlds, successors, valuation) -> KripkeModel:
    return KripkeModel(
        tuple(worlds),
        tuple((w, frozenset(successors.get(w, ()))) for w in worlds),
        tuple((w, tuple(sorted(valuation.get(w, {}).items()))) for w in worlds),
    )


def eval_formula(f: Formula, assignment=None, model: KripkeModel = None, world=None) -> bool:
    """f's truth value under assignment, a dict from atom name to truth
    value, or at world in model: a fold over the distinct subformulas.  An
    unassigned atom is unknown, ~, & and | follow Kleene's three-valued
    rules, and IncompleteAssignment is raised only when f is unknown."""
    if model is not None:
        # the worlds f's value at world depends on: the model's, their
        # successors, and world itself
        worlds = frozenset(model.worlds).union([world], *(out for _, out in model.successors))
        return world in fold(f, lambda g, values: _holds(g, values, model, worlds), {})
    if is_modal(f):
        raise ModalNotSupported("modal formula needs a Kripke model")
    assignment = assignment or {}
    memo = {}
    if fold(f, lambda g, values: _kleene(g, values, assignment), memo) is not None:
        return memo[f]
    # name the leftmost missing atom reached through undecided parts only
    while type(f) is not Atom:
        f = next(g for g in parts(f) if memo[g] is None)
    raise IncompleteAssignment(f"no value for atom {f.name}")


def _kleene(g, values, assignment):
    """g's truth value, None when an unassigned atom leaves it unknown."""
    cls = type(g)
    if cls is Atom:
        return bool(assignment[g.name]) if g.name in assignment else None
    if cls is Neg:
        return None if values[0] is None else not values[0]
    if cls is And or cls is Or:
        decides = cls is Or  # the value of a part that decides g alone
        return decides if decides in values else None if None in values else not decides
    return False


def _holds(g, values, model, worlds):
    """The worlds where g holds."""
    cls = type(g)
    if cls is Atom:
        return frozenset(w for w in worlds if model.value(w, g.name))
    if cls is Neg:
        return worlds - values[0]
    if cls is And or cls is Or:
        return (frozenset.intersection if cls is And else frozenset.union)(*values)
    if cls is Box:
        return frozenset(w for w in worlds if model.succ(w) <= values[0])
    return frozenset()


def _table(g, values):
    cls = type(g)
    if cls is Neg:
        return ~values[0]
    if cls is And:
        return values[0] & values[1]
    if cls is Or:
        return values[0] | values[1]
    if cls is Bottom:
        return 0
    if cls is Atom:
        raise IncompleteAssignment(f"no value for atom {g.name}")
    raise ModalNotSupported("a truth table needs a propositional formula")


def truth_table(f: Formula, names) -> int:
    """The truth table of f over the atom names in the given order, as an
    int whose bit i is the value of f on row i of
    itertools.product([False, True], repeat=len(names)): names[0] varies
    slowest, and each connective is one operation on whole columns."""
    rows = 1 << len(names)
    memo = {}
    for j, name in enumerate(names):
        run = rows >> (j + 1)  # rows in a run of one value of names[j]
        column, width = ((1 << run) - 1) << run, 2 * run
        while width < rows:  # doubled, not divided: division is quadratic
            column |= column << width
            width *= 2
        memo[Atom(name)] = column
    return fold(f, _table, memo, parts_outside_boxes) & ((1 << rows) - 1)


def entails(a: Formula, b: Formula) -> bool:
    if is_modal(a) or is_modal(b):
        raise ModalNotSupported("use the modal prover for modal entailment")
    names = sorted(vars_of(a) | vars_of(b))
    return truth_table(a, names) & ~truth_table(b, names) == 0


def equiv(f: Formula, g: Formula) -> bool:
    if is_modal(f) or is_modal(g):
        raise ModalNotSupported("use the modal prover for modal equivalence")
    names = sorted(vars_of(f) | vars_of(g))
    return truth_table(f, names) == truth_table(g, names)


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
    return frozenset(parse_literal(l) if isinstance(l, str) else l for l in lits)


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
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return frozenset(frozenset(parse_literal(tok) for tok in _split_clause_line(line)) for line in lines)


def format_clause(c) -> str:
    return " ".join(format_literal(l) for l in sorted_literals(c))


def format_clause_set(cs) -> str:
    return "".join(format_clause(c) + "\n" for c in sorted_clauses(cs))


# ---------------------------------------------------------------------------
# NNF and CNF
# ---------------------------------------------------------------------------

def _nnf_parts(g) -> tuple:
    """The formulas whose NNFs make up the NNF of g, boxes opaque: under a
    negation, the parts of its body, negated unless the body is one."""
    if type(g) is not Neg:
        return parts_outside_boxes(g)
    below = parts_outside_boxes(g.body)
    return below if type(g.body) is Neg else tuple(map(Neg, below))


def _nnf_of(g, values):
    if type(g) is Neg and values:
        body = type(g.body)
        return values[0] if body is Neg else (Or if body is And else And)(*values)
    return _rebuilt(g, values)


def nnf(f: Formula, done=None) -> Formula:
    """Push negations to atoms; boxed subformulas are kept opaque.  A fold
    with done, a dict keyed by formula (a fresh one when None), as its memo,
    so a later call given the same dict reuses the NNFs in it."""
    return fold(f, _nnf_of, {} if done is None else done, _nnf_parts)


def _clauses(g, values):
    cls = type(g)
    if cls is And:
        return values[0] | values[1]
    if cls is Or:
        return cross(*values)
    if g is TOP:
        return frozenset()
    if cls is Bottom:
        return frozenset([frozenset()])
    split_literal(g)  # raises unless g is a literal
    return frozenset([frozenset([g])])


def cnf(f: Formula, done=None) -> frozenset:
    """Distributive clause-set normal form of an NNF formula: a fold, with
    done as in nnf."""
    return fold(f, _clauses, {} if done is None else done, parts_outside_boxes)


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


def _mixed(cs) -> set:
    """The literal bodies that occur in cs in both polarities."""
    lits = set().union(*cs)
    for lit in lits:
        split_literal(lit)  # raises unless lit is a literal
    return {lit.body for lit in lits if type(lit) is Neg and lit.body in lits}


def is_pruned_clause_set(cs) -> bool:
    return not any(TOP in c for c in cs) and not _mixed(cs)


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
    for plus in sorted(_mixed(cs), key=format_formula_compact):
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
    return frozenset().union(*(vars_of(lit) for c in cs for lit in c))


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
    # an interpolant's atoms are all a's, and a clause holds where one of
    # its literals does
    names = sorted(vars_of(a))
    table = truth_table(a, names)
    for c in cs:
        lits = [truth_table(lit, names) for lit in c]
        for r in range(len(lits)):
            for sub in itertools.combinations(lits, r):
                if table & ~reduce(or_, sub, 0) == 0:
                    return False
    return True


# ---------------------------------------------------------------------------
# Semantic interpolant oracle
# ---------------------------------------------------------------------------

def _shared_rows(f, shared, every):
    """The rows over shared, a sorted list of atoms, as tuples of truth
    values, under which f holds for some extension to its other atoms, or
    for every extension when every.  In f's truth table over shared and
    then its other atoms, each row is one block of consecutive bits."""
    extra = sorted(vars_of(f) - set(shared))
    table = truth_table(f, shared + extra)
    width = 1 << len(extra)
    block = (1 << width) - 1
    rows = set()
    for i, row in enumerate(itertools.product([False, True], repeat=len(shared))):
        bits = table >> (i * width) & block
        if bits == block if every else bits:
            rows.add(row)
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
    lower = _shared_rows(a, shared, every=False)
    upper = _shared_rows(b, shared, every=True)
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

def mcnf(f: Formula) -> frozenset:
    """Clause set of modal literals: abstract the outer boxes, those inside
    no other box, to fresh atoms, take the CNF, and substitute back."""
    outer = {}
    fold(f, lambda g, values: None, outer, parts_outside_boxes)
    taken = vars_of(f)
    fresh = (Atom(name) for name in map("b{}".format, itertools.count()) if name not in taken)
    abstract = dict(zip((g for g in outer if type(g) is Box), fresh))
    back = {atom: box for box, atom in abstract.items()}
    cs = formula_cnf(substitute(f, abstract))
    return frozenset(frozenset(substitute(lit, back) for lit in c) for c in cs)
