"""Split sequents, proof trees, rule checking, occurrence ancestry, and
cut/axiom classification for propositional and normal modal systems."""

from __future__ import annotations

import operator
import re
from bisect import bisect_right
from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    Formula,
    Neg,
    Or,
    TOP,
    format_formula,
    fold,
    formula_length,
    is_modal,
    parse_formula,
    subformulas,
    substitute,
    vars_of,
)


class ProofError(ValueError):
    pass


class ProofCheckFailed(ProofError):
    """A proof that craig built fails check_proof: an internal bug."""


class NoAtomAvailable(ProofError):
    pass


@dataclass(frozen=True)
class Violation:
    path: tuple
    reason: str


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class System:
    name: str
    modal_rules: frozenset
    cut_policy: str

    @property
    def modal(self):
        return bool(self.modal_rules)


LKMINUS = System("lk-minus", frozenset(), "none")
LKAT = System("lk-at", frozenset(), "atomic")
LKLIT = System("lk-lit", frozenset(), "literal")
LKMONO = System("lk-mono", frozenset(), "mono")
LK = System("lk", frozenset(), "any")
K = System("k", frozenset({"k"}), "modal-atomic")
KD = System("kd", frozenset({"k", "d"}), "modal-atomic")
KT = System("kt", frozenset({"k", "t"}), "modal-atomic")
K4 = System("k4", frozenset({"4"}), "modal-atomic")
# d4 is the seriality rule under 4: its premise keeps the boxes too
KD4 = System("kd4", frozenset({"4", "d", "d4"}), "modal-atomic")
S4 = System("s4", frozenset({"4", "t"}), "modal-atomic")

SYSTEMS = {
    s.name: s
    for s in (LKMINUS, LKAT, LKLIT, LKMONO, LK, K, KD, KT, K4, KD4, S4)
}


def system_by_name(name: str) -> System:
    key = name.lower()
    if key in SYSTEMS:
        return SYSTEMS[key]
    raise ProofError(f"unknown system {name!r}; choose from {sorted(SYSTEMS)}")


def is_atomic_cut_formula(f: Formula) -> bool:
    return isinstance(f, (Atom, Bottom)) or f == TOP


def is_literal_cut_formula(f: Formula) -> bool:
    if is_atomic_cut_formula(f):
        return True
    return isinstance(f, Neg) and isinstance(f.body, (Atom, Bottom))


def is_monochromatic(f: Formula, s: "Sequent") -> bool:
    """Every atom of f is on one side of s's partition."""
    v = vars_of(f)
    return v <= s.side_vars(1) or v <= s.side_vars(2)


def cut_allowed(f: Formula, system: System, conclusion: "Sequent") -> bool:
    policy = system.cut_policy
    if policy == "none":
        return False
    if policy == "any":
        return True
    if policy == "atomic":
        return is_atomic_cut_formula(f)
    if policy == "literal":
        return is_literal_cut_formula(f)
    if policy == "mono":
        return is_monochromatic(f, conclusion)
    if policy == "modal-atomic":
        return is_atomic_cut_formula(f) or isinstance(f, Box)
    raise ProofError(f"unknown cut policy {policy!r}")


# ---------------------------------------------------------------------------
# Split sequents
# ---------------------------------------------------------------------------

COMPONENTS = ("g1", "g2", "d1", "d2")
_INDEX = {c: i for i, c in enumerate(COMPONENTS)}
# the component on the other side of the sequent arrow, same partition side
ACROSS = {"g1": "d1", "g2": "d2", "d1": "g1", "d2": "g2"}
_new = tuple.__new__


def _sorted(fs) -> tuple:
    return tuple(sorted(fs, key=format_formula))


def _in_order(fs) -> bool:
    """fs is in the canonical order: no key is above the next one."""
    if len(fs) < 2:
        return True
    keys = [format_formula(f) for f in fs]
    return all(map(operator.le, keys, keys[1:]))


class Sequent(tuple):
    """g1 ; g2 => d1 ; d2 as the positional 4-tuple of its components, each
    a tuple of formulas in the canonical order, so that building, comparing
    and hashing a sequent are tuple's.  The names in COMPONENTS address the
    components at the edges: the builders' comp argument, main_comp, .prf
    text and format_sequent.  The constructor makes each component a tuple;
    insert, remove_one and sequent() build from tuples directly."""

    __slots__ = ()

    def __new__(cls, g1=(), g2=(), d1=(), d2=()):
        return _new(cls, (tuple(g1), tuple(g2), tuple(d1), tuple(d2)))

    def __reduce__(self):
        # copies and pickles rebuild the sequent from its four components
        return type(self), tuple(self)

    g1, g2, d1, d2 = (property(operator.itemgetter(i)) for i in range(4))

    def comp(self, name) -> tuple:
        return self[_INDEX[name]]

    def insert(self, name, f) -> "Sequent":
        """Add f to component name at its place in the canonical order."""
        parts = list(self)
        i = _INDEX[name]
        fs = parts[i]
        k = bisect_right(fs, format_formula(f), key=format_formula)
        parts[i] = fs[:k] + (f,) + fs[k:]
        return _new(Sequent, parts)

    def remove_one(self, name, f) -> "Sequent":
        parts = list(self)
        i = _INDEX[name]
        fs = parts[i]
        try:
            k = fs.index(f)
        except ValueError:
            raise ProofError(f"no {format_formula(f)} in {name} to remove") from None
        parts[i] = fs[:k] + fs[k + 1:]
        return _new(Sequent, parts)

    def antecedent(self):
        return self[0] + self[1]

    def succedent(self):
        return self[2] + self[3]

    def side_vars(self, side) -> frozenset:
        return frozenset().union(*map(vars_of, self[side - 1] + self[side + 1]))

    def all_vars(self) -> frozenset:
        return self.side_vars(1) | self.side_vars(2)

    def occurrences(self):
        for c, fs in zip(COMPONENTS, self):
            for i, f in enumerate(fs):
                yield c, i, f

    def flat_index(self, comp, idx) -> int:
        if comp not in _INDEX:
            raise ProofError(f"bad component {comp!r}")
        return sum(map(len, self[:_INDEX[comp]])) + idx

    def from_flat(self, flat):
        """(comp, idx) at flat index flat, or None past the end."""
        for c, fs in zip(COMPONENTS, self):
            if flat < len(fs):
                return c, flat
            flat -= len(fs)
        return None

    def length(self) -> int:
        return sum(formula_length(f) for fs in self for f in fs)

    def __repr__(self):
        return f"<seq {format_sequent(self, repr)}>"


def sequent(g1=(), g2=(), d1=(), d2=()) -> Sequent:
    return _new(Sequent, (_sorted(g1), _sorted(g2), _sorted(d1), _sorted(d2)))


def format_sequent(s: Sequent, show=format_formula) -> str:
    g1, g2, d1, d2 = (", ".join(map(show, fs)) for fs in s)
    return f"{g1} ; {g2} => {d1} ; {d2}"


def parse_sequent(text: str) -> Sequent:
    return _parse_sequent(text, {})


def _parse_sequent(text: str, memo) -> Sequent:
    """parse_sequent, taking each formula from memo, a dict from formula
    text without its outer whitespace to formula that this call extends."""
    if text.count("=>") != 1:
        raise ProofError(f"sequent text needs exactly one '=>': {text!r}")
    left, right = text.split("=>")
    if left.count(";") != 1 or right.count(";") != 1:
        raise ProofError(f"each side needs exactly one ';': {text!r}")

    def formulas(chunk):
        chunk = chunk.strip()
        return tuple(_memo_formula(piece, memo) for piece in chunk.split(",")) if chunk else ()

    return sequent(*map(formulas, left.split(";") + right.split(";")))


def _memo_formula(piece: str, memo) -> Formula:
    """The formula of piece from memo, or parsed and entered into it."""
    key = piece.strip()
    f = memo.get(key)
    if f is None:
        # the piece as written, so that a ParseError keeps its column
        f = memo[key] = parse_formula(piece)
    return f


# ---------------------------------------------------------------------------
# Proof trees
# ---------------------------------------------------------------------------

# The propositional rules, t and cut, one schema each after the G-systems
# of Troelstra and Schwichtenberg: the side of the main occurrence (g for an
# antecedent component, d for a succedent one; a cut's main occurrence is
# its placement), the connective of the main formula (None for any) and, per
# premise, premise_aux as a function of the main formula m and its component
# c.  infer, rebuild and premises_of are derived from the rows.
RULE_SCHEMA = {
    "lw": ("g", None, (lambda m, c: (),)),
    "rw": ("d", None, (lambda m, c: (),)),
    "lc": ("g", None, (lambda m, c: ((c, m), (c, m)),)),
    "rc": ("d", None, (lambda m, c: ((c, m), (c, m)),)),
    "land1": ("g", And, (lambda m, c: ((c, m.left),),)),
    "land2": ("g", And, (lambda m, c: ((c, m.right),),)),
    "rand": ("d", And, (lambda m, c: ((c, m.left),), lambda m, c: ((c, m.right),))),
    "lor": ("g", Or, (lambda m, c: ((c, m.left),), lambda m, c: ((c, m.right),))),
    "ror1": ("d", Or, (lambda m, c: ((c, m.left),),)),
    "ror2": ("d", Or, (lambda m, c: ((c, m.right),),)),
    "lneg": ("g", Neg, (lambda m, c: ((ACROSS[c], m.body),),)),
    "rneg": ("d", Neg, (lambda m, c: ((ACROSS[c], m.body),),)),
    "t": ("g", Box, (lambda m, c: ((c, m.body),),)),
    "cut": ("d", None, (lambda m, c: ((c, m),), lambda m, c: ((ACROSS[c], m),))),
}

# k, d, 4 and d4 are the modal jumps: their premise comes from jump_premise
RULES = ("ax", "bot", *RULE_SCHEMA, "k", "d", "4", "d4")


@dataclass(frozen=True)
class Proof:
    rule: str
    sequentv: Sequent
    children: tuple = ()
    main_comp: str = None
    main_formula: Formula = None

    def __post_init__(self):
        # the parts are immutable, so whatever is stored on the node stays
        # true
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))
        if type(self.sequentv) is not Sequent:
            object.__setattr__(self, "sequentv", Sequent(*self.sequentv))

    def __repr__(self):
        return f"<proof {self.rule} {format_sequent(self.sequentv, repr)}>"

    def __eq__(self, other):
        """Field by field on an explicit stack, each pair of nodes once."""
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        seen = set()
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            seen.add((id(a), id(b)))
            if (a.rule != b.rule or a.sequentv != b.sequentv or a.main_comp != b.main_comp
                    or a.main_formula != b.main_formula or len(a.children) != len(b.children)):
                return False
            stack.extend(zip(a.children, b.children))
        return True

    def __hash__(self):
        # the node's own fields and its arity, never its premises
        return hash((self.rule, self.sequentv, len(self.children), self.main_comp, self.main_formula))

    def __reduce__(self):
        # a pickle is the .prf text, which writes each distinct node once
        # and is read back without recursion; it carries no stored fact
        return parse_proof, (format_proof(self),)

    def __copy__(self):
        # one node with the same fields and premises and no stored fact
        return relink(self, self.children)

    def __deepcopy__(self, memo):
        # one rebuild, each distinct node once, so the copy shares as self does
        return _drive(_folding, self, relink)


# Facts that depend only on a node are stored in its __dict__, outside its
# fields, so they take no part in equality, hashing or repr, and
# dataclasses.replace, the builders and the parsers build nodes without
# them.  A node and its parts are immutable once built, so a fact stored on
# it stays true.  A passed check_proof verdict (_passed) holds that each premise
# is the sequent premises_of demands: check_proof then skips the subproof,
# format_proof writes no premise sequent, direct_ancestors checks no premise.
#
# Every walk over a proof, and the backward proof search over sequents, is
# _drive running steps.  A step checks its node before it yields a premise,
# so a walk meets the nodes, and raises the first failure, in preorder.  A
# step that finds its node's stored fact returns it without yielding, and
# one may read a premise's stored fact instead of yielding the premise.

def _drive(step, node, arg, memo=None):
    """The value of step(node, arg), a generator that yields each (node,
    argument) whose value it needs, is sent that value and returns its own,
    computed on an explicit stack of such steps.  memo (a fresh one when
    None) maps (id(node), argument) to (node, value) for each step run,
    the node kept so that its id stays its own, and is read before a step
    starts, so a pair reached through several parents is computed once per
    memo."""
    if memo is None:
        memo = {}
    key = (id(node), arg)
    if key in memo:
        return memo[key][1]
    stack, steps, value = [], step(node, arg), None
    while True:
        try:
            sub, sub_arg = steps.send(value)
        except StopIteration as done:
            value = done.value
            memo[key] = node, value
            if not stack:
                return value
            key, node, steps = stack.pop()
            continue
        sub_key = (id(sub), sub_arg)
        if sub_key in memo:
            value = memo[sub_key][1]
        else:
            stack.append((key, node, steps))
            key, node, steps, value = sub_key, sub, step(sub, sub_arg), None


def _folding(node: Proof, combine):
    """A _drive step: combine(node, the values of its premises)."""
    values = []
    for child in node.children:
        values.append((yield child, combine))
    return combine(node, values)


def relink(node: Proof, children) -> Proof:
    """A node with node's fields over the given premise proofs."""
    return Proof(node.rule, node.sequentv, tuple(children), node.main_comp, node.main_formula)


def first_node(p: Proof, test):
    """The path of the first node in preorder that passes test, or None;
    each distinct node is tested once."""
    found = _drive(_finding, p, test)
    return None if found is None else tuple(reversed(found))


def _finding(node: Proof, test):
    """One first_node step: the path from node to the first node at or
    above it that passes test, reversed, or None."""
    if test(node):
        return []
    for i, child in enumerate(node.children):
        found = yield child, test
        if found is not None:
            found.append(i)
            return found
    return None


def _heights(node: Proof, fact):
    """A _drive step for fact = (name, test): (height, first), the length of
    the longest path from node to a node at or above it that passes test
    (-1 when none does), and the premise that starts the leftmost one (None
    when node is its end).  It is stored on node under name, so test must
    read only the node, and the walk stops at premises that store theirs."""
    name, test = fact
    height, first = (0 if test(node) else -1), None
    for i, child in enumerate(node.children):
        h, _ = getattr(child, name, None) or (yield child, fact)
        if h >= 0 and h >= height:
            height, first = h + 1, i
    node.__dict__[name] = height, first
    return height, first


def _deepest(p: Proof, fact):
    """The path of the deepest node that passes fact's test, the leftmost
    of the deepest ones, or None: a descent along the stored heights."""
    height, first = _drive(_heights, p, fact)
    path = []
    while first is not None:
        path.append(first)
        p = p.children[first]
        first = getattr(p, fact[0])[1]
    return None if height < 0 else tuple(path)


def proof_size(p: Proof) -> int:
    """Node count of the tree, a shared subproof counted at each use."""
    return _drive(_folding, p, lambda node, sizes: 1 + sum(sizes))


def proof_depth(p: Proof) -> int:
    return _drive(_folding, p, lambda node, depths: 1 + max(depths) if depths else 0)


def proof_length(p: Proof) -> int:
    """Symbol count summed over every sequent in the tree."""
    return _drive(_folding, p, lambda node, lengths: node.sequentv.length() + sum(lengths))


def subproof_at(p: Proof, path) -> Proof:
    for i in path:
        p = p.children[i]
    return p


def replace_at(p: Proof, path, new: Proof) -> Proof:
    """p with the node at path replaced by new and each node below it
    rebuilt, from the deepest up."""
    spine = []
    for i in path:
        spine.append((p, i))
        p = p.children[i]
    for node, i in reversed(spine):
        kids = list(node.children)
        kids[i] = new
        new = relink(node, kids)
    return new


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def ax(f: Formula, ant="g1", suc="d1") -> Proof:
    if ant not in ("g1", "g2") or suc not in ("d1", "d2"):
        raise ProofError("axiom components must be one antecedent and one succedent")
    return Proof("ax", sequent(**{ant: [f], suc: [f]}))


def bot_axiom(comp="g1") -> Proof:
    if comp not in ("g1", "g2"):
        raise ProofError("false-axiom lives in an antecedent component")
    return Proof("bot", sequent(**{comp: [BOTTOM]}))


def _need(cond, msg):
    if not cond:
        raise ProofError(msg)


_SIDES = {"g": "an antecedent", "d": "a succedent"}


def _schema(rule, main, comp) -> int:
    """The number of premises of rule, after checking that main at comp
    fits its schema; raises ProofError otherwise."""
    try:
        side, connective, auxes = RULE_SCHEMA[rule]
    except KeyError:
        raise ProofError(f"unknown rule {rule!r}") from None
    if not isinstance(main, Formula) or comp not in COMPONENTS:
        raise ProofError(f"rule {rule} needs a main occurrence")
    if comp[0] != side:
        raise ProofError(f"rule {rule} needs its main occurrence in {_SIDES[side]} component")
    if connective is not None and not isinstance(main, connective):
        raise ProofError(f"rule {rule} needs a main formula of type {connective.__name__}")
    return len(auxes)


def premise_aux(rule, main, comp, ci: int):
    """(comp, formula) pairs of premise ci that become the main occurrence
    main at comp, or that a cut consumes: the row of rule in RULE_SCHEMA."""
    try:
        aux = RULE_SCHEMA[rule][2][ci]
    except (KeyError, IndexError):
        raise ProofError(f"rule {rule!r} has no premise {ci}") from None
    return aux(main, comp)


def infer(rule, premises, main: Formula, comp) -> Proof:
    """The instance of rule over the premise proofs with main occurrence
    main at comp: every premise less its auxiliary formulas is one shared
    context, and the conclusion is that context plus main (a cut adds
    nothing)."""
    premises = tuple(premises)
    arity = _schema(rule, main, comp)
    if len(premises) != arity:
        raise ProofError(f"rule {rule} takes {arity} premises")
    # the structural rules add main to the premise or drop one of its copies
    s = premises[0].sequentv
    if rule in ("lw", "rw"):
        return Proof(rule, s.insert(comp, main), premises, comp, main)
    if rule in ("lc", "rc"):
        if s.comp(comp).count(main) < 2:
            raise ProofError(f"{rule} needs two copies")
        return Proof(rule, s.remove_one(comp, main), premises, comp, main)
    context = None
    for ci, child in enumerate(premises):
        s = child.sequentv
        for c, f in premise_aux(rule, main, comp, ci):
            s = s.remove_one(c, f)
        if context is None:
            context = s
        elif s != context:
            raise ProofError(f"{rule} premises must share their context")
    return Proof(rule, context if rule == "cut" else context.insert(comp, main), premises, comp, main)


def cut(left: Proof, right: Proof, f: Formula, side=2) -> Proof:
    return infer("cut", (left, right), f, f"d{side}")


def weaken(child: Proof, f: Formula, comp) -> Proof:
    """lw or rw, by the side of comp."""
    return infer("lw" if comp in ("g1", "g2") else "rw", (child,), f, comp)


def contract(child: Proof, f: Formula, comp) -> Proof:
    """lc or rc, by the side of comp."""
    return infer("lc" if comp in ("g1", "g2") else "rc", (child,), f, comp)


MODAL_JUMPS = ("k", "d", "4", "d4")
# the rules a System's modal_rules may name: the jumps and t
MODAL_RULES = frozenset({*MODAL_JUMPS, "t"})


def jump_premise(rule, s: Sequent) -> Sequent:
    """The premise of the modal jump rule (k, d, 4 or d4) with conclusion s:
    the bodies of s's boxed antecedent (for 4 and d4 followed by the boxes
    themselves) over the body of s's one boxed succedent formula, or for d
    and d4 over nothing.  Raises ProofError when s does not fit the rule."""
    if rule not in MODAL_JUMPS:
        raise ProofError(f"{rule!r} is not a modal jump rule")
    if not all(isinstance(f, Box) for f in s.antecedent()):
        raise ProofError(f"{rule} conclusion antecedent must be boxed")
    sucs = s.succedent()
    if rule in ("d", "d4"):
        _need(not sucs, f"{rule} conclusion succedent must be empty")
        ds = ((), ())
    elif len(sucs) == 1 and isinstance(sucs[0], Box):
        ds = ((sucs[0].body,), ()) if s.d1 else ((), (sucs[0].body,))
    else:
        raise ProofError(f"{rule} conclusion succedent must be one boxed formula")
    four = rule in ("4", "d4")
    gs = [[f.body for f in fs] + (list(fs) if four else []) for fs in (s.g1, s.g2)]
    return sequent(*gs, *ds)


def jump(rule, premise: Proof, conclusion: Sequent) -> Proof:
    """The modal jump rule (k, d, 4 or d4) from premise, which must end in
    the conclusion's jump_premise; k's and 4's main occurrence is the
    conclusion's one succedent formula, and d and d4 have none."""
    if jump_premise(rule, conclusion) != premise.sequentv:
        raise ProofError(f"{rule} does not conclude {format_sequent(conclusion)} "
                         f"from {format_sequent(premise.sequentv)}")
    if rule in ("d", "d4"):
        return Proof(rule, conclusion, (premise,))
    dcomp = "d1" if conclusion.d1 else "d2"
    return Proof(rule, conclusion, (premise,), dcomp, conclusion.comp(dcomp)[0])


def first_index(s: Sequent, comp: str, f: Formula) -> int:
    return _first_indices(s.comp(comp), f, 1)[0]


def rebuild(node: Proof, children) -> Proof:
    """The same rule instance over new premise proofs, whose contexts may
    differ but for a modal jump: it keeps node's conclusion, and raises
    ProofError over a premise other than that conclusion's jump_premise."""
    children = tuple(children)
    if node.rule in RULE_SCHEMA:
        return infer(node.rule, children, node.main_formula, node.main_comp)
    if node.rule in MODAL_JUMPS and len(children) == 1:
        return jump(node.rule, children[0], node.sequentv)
    raise ProofError(f"cannot rebuild rule {node.rule!r} over {len(children)} premises")


def weaken_to(p: Proof, target: Sequent) -> Proof:
    """Add weakenings until the end-sequent matches target (a superset)."""
    for comp in COMPONENTS:
        have = list(p.sequentv.comp(comp))
        for f in target.comp(comp):
            if f in have:
                have.remove(f)
            else:
                p = weaken(p, f, comp)
    _need(p.sequentv == target, "weaken_to target must extend the end-sequent")
    return p


def wax(f: Formula, target: Sequent, ant="g1", suc="d1") -> Proof:
    """Axiom f => f weakened up to the target sequent."""
    return weaken_to(ax(f, ant, suc), target)


# ---------------------------------------------------------------------------
# Expected premises
# ---------------------------------------------------------------------------

def premises_of(rule, s: Sequent, m: Formula, comp):
    """The premise sequents that the instance of rule with conclusion s and
    main occurrence m at comp demands, () for the axioms.  Raises
    ProofError when the instance does not fit its rule's schema."""
    if rule in ("ax", "bot"):
        return ()
    if rule in MODAL_JUMPS:
        premise = jump_premise(rule, s)
        if rule not in ("d", "d4") and not (comp in ("d1", "d2") and s.comp(comp) == (m,)):
            raise ProofError(f"rule {rule} needs its succedent formula as main occurrence")
        return (premise,)
    arity = _schema(rule, m, comp)
    # the structural rules: the premise lacks main, or has one more copy
    if rule in ("lw", "rw"):
        return (s.remove_one(comp, m),)
    if rule in ("lc", "rc"):
        if m not in s.comp(comp):
            raise ProofError(f"rule {rule} has no {format_formula(m)} in {comp} to contract")
        return (s.insert(comp, m),)
    base = s if rule == "cut" else s.remove_one(comp, m)
    out = []
    for ci in range(arity):
        premise = base
        for c, f in premise_aux(rule, m, comp, ci):
            premise = premise.insert(c, f)
        out.append(premise)
    return tuple(out)


def expected_premises(p: Proof):
    """The premise sequents this node's rule demands."""
    return premises_of(p.rule, p.sequentv, p.main_formula, p.main_comp)


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_proof(p: Proof, system: System):
    """None if every node matches its schema and the system's cut policy,
    else the Violation at the first offending node in preorder.

    The canonical order of every component and, in a non-modal system, the
    absence of boxes are checked on the root sequent only, by induction:
    a premise passes only when it equals the sequent that its rule demands
    of its checked conclusion, and premises_of builds that sequent
    with insert and remove_one, which keep the order, or with sequent(),
    which sorts.  Its formulas are the conclusion's, their subformulas, or
    a cut formula.  So a cut in a non-modal system checks its formula for
    boxes, and reports a boxed one at its left premise, the first node in
    preorder whose sequent holds it.

    Each distinct node is checked once per call.  When the proof passes,
    each node walked stores the system, and a later call under an equal
    system skips it with the subproof above it, which passed too (its nodes
    were walked, or skipped for the same reason), and skips the root checks
    when it is the root."""
    if system not in getattr(p, "_passed", ()):
        s = p.sequentv
        for c, fs in zip(COMPONENTS, s):
            if not _in_order(fs):
                return Violation((), f"component {c} is not canonically sorted")
        if not system.modal and any(is_modal(f) for fs in s for f in fs):
            return Violation((), _BOXED)
    memo = {}
    bad = _drive(_checking, p, system, memo)
    if bad is not None:
        below, reason = bad
        return Violation(tuple(reversed(below)), reason)
    for node, _ in memo.values():
        if system not in getattr(node, "_passed", ()):
            node.__dict__["_passed"] = getattr(node, "_passed", ()) + (system,)
    return None


def _checking(node: Proof, system: System):
    """One check_proof step: None when the subproof at node passes, else
    (the path to the first offending node in preorder, reversed, reason)."""
    if system in getattr(node, "_passed", ()):
        return None
    bad = _violation(node, system)
    if bad is not None:
        return list(bad[0]), bad[1]  # () or one premise
    for i, child in enumerate(node.children):
        bad = yield child, system
        if bad is not None:
            bad[0].append(i)
            return bad
    return None


_BOXED = "boxed formula in a non-modal system"


def _violation(node: Proof, system: System):
    """((), reason) when node breaks a rule or the system's cut policy,
    ((i,), reason) when its premise i does not match the rule or holds a
    boxed cut formula that the system does not allow, or None.  The order
    and modality of node's own sequent are check_proof's induction."""
    m = node.main_formula
    if node.rule in MODAL_RULES and node.rule not in system.modal_rules:
        return (), f"rule {node.rule} not available in {system.name}"
    if (node.rule == "cut" and isinstance(m, Formula) and node.main_comp in ("d1", "d2")
            and not cut_allowed(m, system, node.sequentv)):
        return (), f"cut on {format_formula(m)} violates the {system.name} policy"
    bad = _misfit(node)
    if bad is None and node.rule == "cut" and not system.modal and is_modal(m):
        return (0,), _BOXED
    return bad


def _misfit(node: Proof):
    """((), reason) when node does not fit its rule, ((i,), reason) when
    its premise i is not the sequent that premises_of demands, or None, as
    for a node that stores a passed check_proof verdict under any system."""
    if getattr(node, "_passed", ()):
        return None
    s = node.sequentv
    if node.rule == "ax":
        ants, sucs = s.antecedent(), s.succedent()
        if len(ants) != 1 or len(sucs) != 1 or ants[0] != sucs[0]:
            return (), "axiom must be exactly f => f"
        if node.children:
            return (), "axiom has no premises"
        return None
    if node.rule == "bot":
        if s.antecedent() != (BOTTOM,) or s.succedent() or node.children:
            return (), "false-axiom must be exactly false =>"
        return None
    try:
        expected = expected_premises(node)
    except ProofError as e:
        return (), str(e)
    if len(expected) != len(node.children):
        return (), f"rule {node.rule} expects {len(expected)} premises"
    for i, (want, child) in enumerate(zip(expected, node.children)):
        if child.sequentv != want:
            return (i,), f"premise is {format_sequent(child.sequentv)} but {node.rule} needs {format_sequent(want)}"
    return None


def respects_subformula_property(p: Proof) -> bool:
    """Every formula anywhere is a subformula of the end-sequent."""
    closure = set()
    for fs in p.sequentv:
        for f in fs:
            closure.update(subformulas(f))
    return first_node(p, lambda node: any(f not in closure for fs in node.sequentv for f in fs)) is None


# ---------------------------------------------------------------------------
# Occurrences
# ---------------------------------------------------------------------------
#
# An occurrence is (path, comp, idx): the idx-th formula of component comp in
# the sequent at path.  Every premise occurrence has exactly one direct
# descendant in the conclusion (direct_ancestors runs that link backwards),
# or none when a cut consumes it (cut_occurrences), so the ancestors of an
# occurrence form a tree inside the subproof at its path.

def _first_indices(comp_tuple, formula, k):
    """Indices of the first k copies of formula in the tuple."""
    out = []
    for i, f in enumerate(comp_tuple):
        if f == formula:
            out.append(i)
            if len(out) == k:
                return out
    raise ProofError(f"expected {k} copies of {format_formula(formula)}")


def main_occurrence(node: Proof):
    """(comp, idx) of the first copy of the main formula in the conclusion;
    None for axioms, cuts, d and d4, which have no main occurrence, and
    where main_comp names no component."""
    if node.main_formula is None or node.rule == "cut" or node.main_comp not in _INDEX:
        return None
    return node.main_comp, first_index(node.sequentv, node.main_comp, node.main_formula)


def aux_occurrences(node: Proof, ci: int):
    """premise_aux of node's premise ci as (comp, idx): the first copies."""
    aux = premise_aux(node.rule, node.main_formula, node.main_comp, ci)
    if not aux:
        return []
    comp, f = aux[0]  # one formula, twice for a contraction
    child = node.children[ci].sequentv
    return [(comp, i) for i in _first_indices(child.comp(comp), f, len(aux))]


def cut_occurrences(node: Proof):
    """(comp, idx) of the cut formula in the left and in the right premise
    of the cut node; raises ProofError when node does not fit its rule."""
    bad = _misfit(node)
    if bad is not None:
        raise ProofError(bad[1])
    return aux_occurrences(node, 0)[0], aux_occurrences(node, 1)[0]


def direct_ancestors(node: Proof, ci: int, occ):
    """The (comp, idx) occurrences of premise ci whose direct descendant is
    the conclusion occurrence occ: the auxiliary occurrences of the main
    one, and for a context occurrence the same-rank formula of its
    component with the main and auxiliary positions skipped.  Raises
    ProofError in check_proof's words when node does not fit its rule."""
    bad = _misfit(node)
    if bad is not None:
        raise ProofError(bad[1])
    if node.rule in MODAL_JUMPS:
        return _modal_ancestors(node, node.children[ci].sequentv, occ)
    aux = aux_occurrences(node, ci)
    main = main_occurrence(node)
    if occ == main:
        return aux
    comp, idx = occ
    if main and main[0] == comp and main[1] < idx:
        idx -= 1
    for ac, ai in aux:
        if ac == comp and ai <= idx:
            idx += 1
    return [(comp, idx)]


def _modal_ancestors(node: Proof, child: Sequent, occ):
    """k, d, 4 and d4: the k-th copy of a boxed antecedent formula comes
    from the k-th copy of its body (and, for 4 and d4, from the next unused
    copy of itself, after those that are bodies); the boxed succedent from
    its body."""
    comp, idx = occ
    if comp in ("d1", "d2"):
        return [occ]
    fs = node.sequentv.comp(comp)
    f = fs[idx]
    k = fs[:idx].count(f)
    out = [(comp, _first_indices(child.comp(comp), f.body, k + 1)[k])]
    if node.rule in ("4", "d4"):
        k += fs.count(Box(f))
        out.append((comp, _first_indices(child.comp(comp), f, k + 1)[k]))
    return out


def _summaries(roots):
    """(strong, weight, rr) of each (node, occ) in roots, occ = (comp, idx)
    an occurrence of node's conclusion: whether an ancestor of it sits in
    an axiom, how many of its strong ancestors sit outside the conclusions
    of weakenings, and whether all of its ancestors in axioms sit in R/R
    ones.  Like _passed, the summaries of a call are stored in their nodes'
    _summaries when it returns, so a later call stops at them; a premise
    that does not match its conclusion raises before anything is stored."""
    memo = {}
    out = [_drive(_summarizing, node, occ, memo) for node, occ in roots]
    for (_, occ), (node, summary) in memo.items():
        node.__dict__.setdefault("_summaries", {})[occ] = summary
    return out


def _summarizing(node: Proof, occ):
    """One _summaries step: the summary of occ at node."""
    stored = getattr(node, "_summaries", ())
    if occ in stored:
        return stored[occ]
    links = [(child, src) for ci, child in enumerate(node.children)
             for src in direct_ancestors(node, ci, occ)]
    strong, weight, rr = node.rule in ("ax", "bot"), 0, node.rule != "ax" or axiom_kind(node.sequentv) == "R/R"
    for child, src in links:
        stored = getattr(child, "_summaries", ())
        s, w, r = stored[src] if src in stored else (yield child, src)
        strong, weight, rr = strong or s, weight + w, rr and r
    return strong, (strong and node.rule not in ("lw", "rw")) + weight, rr


def is_weak(p: Proof, occ) -> bool:
    """No ancestor of occ sits in an axiom: weakenings introduced all of it."""
    return not _summaries([(subproof_at(p, occ[0]), occ[1:])])[0][0]


def weight(p: Proof, occ) -> int:
    """The number of ancestors of occ that are not weak and do not sit in
    the conclusion of a weakening."""
    return _summaries([(subproof_at(p, occ[0]), occ[1:])])[0][1]


@dataclass(frozen=True)
class CutInfo:
    type_r: bool
    atomic: bool
    literal: bool
    monochromatic: bool
    analytic: bool
    degree: int
    weight: int


@dataclass(frozen=True)
class AxiomInfo:
    kind: str  # "L/L", "L/R", "R/L", "R/R"
    omega: bool


def _degree(g, values):
    if type(g) is Box:
        return values[0]
    return 1 + sum(values) if values else 0


def propositional_degree(f: Formula) -> int:
    """The connectives of f outside boxes, counted in f's tree; a box adds
    none."""
    return fold(f, _degree, {})


def classify_cut(p: Proof, path) -> CutInfo:
    """The CutInfo of the cut at path.  It reads only the cut node and the
    summaries of its cut occurrences, so the cut node stores it."""
    node = subproof_at(p, path)
    info = getattr(node, "_cut_info", None)
    if info is not None:
        return info
    if node.rule != "cut":
        raise ProofError("classify_cut needs a cut node")
    f = node.main_formula
    s = node.sequentv
    (_, wl, _), (_, wr, _) = _summaries(zip(node.children, cut_occurrences(node)))
    info = CutInfo(
        type_r=node.main_comp == "d2",
        atomic=is_atomic_cut_formula(f),
        literal=is_literal_cut_formula(f),
        monochromatic=is_monochromatic(f, s),
        analytic=any(f in subformulas(g) for _, _, g in s.occurrences()),
        degree=propositional_degree(f),
        weight=wl + wr,
    )
    node.__dict__["_cut_info"] = info
    return info


def axiom_kind(s: Sequent) -> str:
    """Partition sides of an axiom's antecedent and succedent occurrence."""
    return ("L" if s.g1 else "R") + "/" + ("L" if s.d1 else "R")


def _cut_ancestors_in(node: Proof, ci: int, down) -> frozenset:
    """The occurrences of premise ci that are ancestors of a cut formula,
    given down, the occurrences of node's conclusion that are."""
    up = {src for occ in down for src in direct_ancestors(node, ci, occ)}
    if node.rule == "cut":
        up.add(cut_occurrences(node)[ci])
    return frozenset(up)


def axiom_type(p: Proof, path) -> AxiomInfo:
    """The kind of the axiom at path, and whether it has type omega: its
    occurrences, carried down the path, all end in cut formulas."""
    node = subproof_at(p, path)
    if node.rule != "ax":
        raise ProofError("axiom_type needs an ax node")
    node, down = p, frozenset()
    for ci in path:
        node, down = node.children[ci], _cut_ancestors_in(node, ci, down)
    return AxiomInfo(axiom_kind(node.sequentv), _drive(_omega_axiom, node, down) is not None)


def is_tame(p: Proof):
    """(ok, witness): no omega axioms, and every cut has an all-R/R flank,
    a cut occurrence whose ancestors in axioms all sit in R/R ones.  The
    witness names the first omega axiom in preorder, else the first cut
    without such a flank, and its path.  Each distinct node is walked once
    per set of its occurrences that descend to cut formulas."""
    found = _drive(_omega_axiom, p, frozenset())
    if found is not None:
        return False, ("omega-axiom", tuple(reversed(found)))
    path = first_node(p, lambda node: node.rule == "cut" and not any(
        rr for _, _, rr in _summaries(zip(node.children, cut_occurrences(node)))))
    if path is not None:
        return False, ("cut-without-rr-flank", path)
    return True, None


def _omega_axiom(node: Proof, down):
    """One is_tame step: the path to the first omega axiom at or above node
    in preorder, reversed, or None; down as for _cut_ancestors_in."""
    if node.rule == "ax":
        return [] if 0 < len(down) == sum(map(len, node.sequentv)) else None
    for ci, child in enumerate(node.children):
        found = yield child, _cut_ancestors_in(node, ci, down)
        if found is not None:
            found.append(ci)
            return found
    return None


# ---------------------------------------------------------------------------
# Monochromatization
# ---------------------------------------------------------------------------

def _substitute_proof(p: Proof, old: str, new: Formula) -> Proof:
    mapping = {Atom(old): new}  # one memo for every formula of p
    sub = lambda f: substitute(f, mapping)
    return _drive(_folding, p, lambda node, kids: Proof(
        node.rule,
        sequent(*(map(sub, fs) for fs in node.sequentv)),
        tuple(kids),
        node.main_comp,
        sub(node.main_formula) if node.main_formula is not None else None,
    ))


_FLIP = {"g1": "g2", "g2": "g1", "d1": "d2", "d2": "d1"}


def _flipping(node: Proof, moves):
    """A _drive step: node with the occurrences in moves, a frozenset of
    (comp, idx), and their ancestors moved to the sibling partition
    component.  A premise with no ancestor of them is kept as it is."""
    kids = []
    for ci, child in enumerate(node.children):
        up = frozenset(src for occ in moves for src in direct_ancestors(node, ci, occ))
        kids.append((yield child, up) if up else child)
    parts = [list(fs) for fs in node.sequentv]
    main_comp = node.main_comp
    for c, i in sorted(moves, key=lambda m: -m[1]):
        g = parts[_INDEX[c]].pop(i)
        parts[_INDEX[_FLIP[c]]].append(g)
        if node.main_comp == c and node.main_formula == g:
            main_comp = _FLIP[c]
    return Proof(node.rule, sequent(*parts), tuple(kids), main_comp, node.main_formula)


def _placement_consistent(node: Proof) -> bool:
    side = int(node.main_comp[1])
    return vars_of(node.main_formula) <= node.sequentv.side_vars(side)


# the heights of cuts whose placement side does not cover their variables
_MISPLACED_HEIGHT = ("_misplaced_height",
                     lambda node: node.rule == "cut" and not _placement_consistent(node))


def monochromatize(p: Proof, system: System) -> Proof:
    """Make every cut's placement side cover its variables, rewriting
    topmost offenders, the leftmost of the deepest first, by atom
    replacement and side flips.  p must pass check_proof under system,
    else ProofError names the first violation."""
    bad = check_proof(p, system)
    if bad is not None:
        raise ProofError(f"not a {system.name} proof: violation at {list(bad.path)}: {bad.reason}")
    while True:
        path = _deepest(p, _MISPLACED_HEIGHT)
        if path is None:
            return p
        node = subproof_at(p, path)
        f = node.main_formula
        atom_names = sorted(vars_of(f))
        if not atom_names:
            raise ProofError("a variable-free cut formula is always placement-consistent")
        name = atom_names[0]
        side = int(node.main_comp[1])
        s = node.sequentv
        own = sorted(n for n in s.side_vars(side))
        other = sorted(n for n in s.side_vars(3 - side))
        if name in s.all_vars():
            # semantically monochromatic but placed on the wrong side: flip
            sub = _flip_sides_of_cut(node)
            p = replace_at(p, path, sub)
            continue
        if own:
            replacement = Atom(own[0])
            p = replace_at(p, path, _substitute_proof(node, name, replacement))
        elif other:
            flipped = _flip_sides_of_cut(node)
            p = replace_at(p, path, _substitute_proof(flipped, name, Atom(other[0])))
        else:
            raise NoAtomAvailable(
                f"no atom in {format_sequent(s)} to replace {name} with"
            )


def _flip_sides_of_cut(node: Proof) -> Proof:
    left, right = (_drive(_flipping, c, frozenset([occ])) for c, occ in zip(node.children, cut_occurrences(node)))
    return cut(left, right, node.main_formula, 2 if node.main_comp == "d1" else 1)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_proof(p: Proof) -> str:
    """The .prf text of p: one (rule "sequent" main "cut formula" premise
    ...) per distinct node, in preorder.  main is the flat index of the main
    occurrence, a cut's placement, or - where there is none, and only a cut
    writes the quoted formula.  The premises of a node that fits its rule
    (_misfit) leave out their sequents, and those of any other node write
    them.  A premise written before, the same object met again, is @n,
    where n counts the nodes written before its first write."""
    out = []
    written = 0
    omit = False  # whether the next node written leaves out its sequent

    def writing(node, _):
        nonlocal written, omit
        position, written = written, written + 1
        out.append(" (" if out else "(")
        out.append(node.rule)
        if not omit:
            out.append(f' "{format_sequent(node.sequentv)}"')
        occ = main_occurrence(node)
        if occ is not None:
            out.append(f" {node.sequentv.flat_index(*occ)}")
        elif node.rule == "cut":
            out.append(f' {node.main_comp} "{format_formula(node.main_formula)}"')
        else:
            out.append(" -")
        fits = not node.children or _misfit(node) is None
        for child in node.children:
            omit = fits
            here = len(out)
            first = yield child, None
            if len(out) == here:
                out.append(f" @{first}")
        out.append(")")
        return position

    _drive(writing, p, None)
    return "".join(out)


def format_proof_text(p: Proof, note=None) -> str:
    """One line rule: sequent per distinct node in preorder, indented two
    spaces per level and followed by note(node) where note is given.  A
    premise met again, the same object, is a line @n, as in format_proof."""
    lines, written, pad = [], 0, ""

    def printing(node, _):
        nonlocal written, pad
        position, written, mine = written, written + 1, pad
        lines.append(f"{mine}{node.rule}: {format_sequent(node.sequentv)}{note(node) if note else ''}")
        for child in node.children:
            here, pad = len(lines), mine + "  "  # the premise's indentation
            first = yield child, None
            if len(lines) == here:
                lines.append(f"{mine}  @{first}")
        return position

    _drive(printing, p, None)
    return "\n".join(lines)


# a parenthesis, a quoted sequent (its closing quote may be missing), or a
# word up to the next space or parenthesis
_SEXPR_TOKEN = re.compile(r'[()]|"(?P<quoted>[^"]*)(?P<close>"?)|[^\s()"][^\s()]*')


def _tokenize_sexpr(text):
    out = []
    for m in _SEXPR_TOKEN.finditer(text):
        quoted = m.group("quoted")
        if quoted is None:
            out.append(m.group())
        elif m.group("close"):
            out.append(('"', quoted))
        else:
            raise ProofError("unterminated quote in proof text")
    return out


def parse_proof(text: str) -> Proof:
    """The proof of a .prf text, as format_proof writes it or with any of
    its sequents written out, or each shared subproof copied where it is
    used, as older files have them: a node without its sequent takes the
    one its parent's rule demands, a cut without its formula takes the
    formula its left premise adds, and @n is the node opened n-th, built
    once.  Each distinct formula text in the file is parsed once.  The
    nodes are read from an explicit stack that holds, per '(' not yet
    closed, a _Reading."""
    toks = _tokenize_sexpr(text)
    memo = {}
    nodes = []  # by preorder position; None while the node is open
    total = toks.count("(")
    open_nodes = []
    pos = 0
    while True:
        tok = _take(toks, pos)
        if tok == "(":
            rule = _take(toks, pos + 1)
            if rule not in RULES:
                raise ProofError(f"expected a rule name after token {pos}")
            pos += 2
            if isinstance(_take(toks, pos), tuple):
                seq = _parse_sequent(toks[pos][1], memo)
                pos += 1
            elif open_nodes:
                seq = open_nodes[-1].premise(len(nodes))
            else:
                raise ProofError("the root node needs its sequent")
            main_tok = _take(toks, pos)
            pos += 1
            cut_formula = None
            if rule == "cut" and isinstance(_take(toks, pos), tuple):
                cut_formula = _memo_formula(toks[pos][1], memo)
                pos += 1
            open_nodes.append(_Reading(len(nodes), rule, seq, main_tok, cut_formula))
            nodes.append(None)
        elif tok == ")" and open_nodes:
            reading = open_nodes.pop()
            node = nodes[reading.position] = reading.node()
            pos += 1
            if not open_nodes:
                if pos != len(toks):
                    raise ProofError("trailing tokens after proof")
                return node
            open_nodes[-1].children.append(node)
        elif isinstance(tok, str) and tok.startswith("@") and open_nodes:
            open_nodes[-1].children.append(_referenced(tok, nodes, total))
            pos += 1
        else:
            raise ProofError(f"expected '(' at token {pos}")


def _take(toks, pos):
    if pos >= len(toks):
        raise ProofError("proof text ends before its last ')'")
    return toks[pos]


def _referenced(tok, nodes, total):
    """The closed node that the back reference @n names."""
    n = tok[1:]
    if not n.isdecimal():
        raise ProofError(f"bad back reference {tok!r}")
    n = int(n)
    if n >= total:
        raise ProofError(f"back reference {tok} is out of range: the text has {total} nodes")
    if n >= len(nodes):
        raise ProofError(f"back reference {tok} points forward")
    if nodes[n] is None:
        raise ProofError(f"back reference {tok} points at a node that encloses it")
    return nodes[n]


class _Reading:
    """A node of parse_proof whose ')' is still to come: its preorder
    position, fields and the premises read so far."""

    def __init__(self, position, rule, seq, main_tok, cut_formula):
        self.position, self.rule, self.seq, self.children = position, rule, seq, []
        self.comp, self.main = _read_main(rule, seq, main_tok, cut_formula)
        self.derived = None

    def premise(self, position):
        """The sequent that this node's rule demands of its next premise,
        the node at position, which leaves its sequent out."""
        if self.rule == "cut" and self.main is None:
            raise ProofError(f"node {position} leaves out its sequent, but its cut has no formula")
        if self.derived is None:
            self.derived = premises_of(self.rule, self.seq, self.main, self.comp)
        i = len(self.children)
        if i >= len(self.derived):
            raise ProofError(f"node {position} leaves out its sequent, but rule {self.rule} "
                             f"demands {len(self.derived)} premises")
        return self.derived[i]

    def node(self) -> Proof:
        main, children = self.main, tuple(self.children)
        if self.rule == "cut" and main is None:
            # an older file: the formula that the left premise adds
            extra = list(children[0].sequentv.comp(self.comp)) if children else []
            for f in self.seq.comp(self.comp):
                _need(f in extra, "cut premise must extend the conclusion")
                extra.remove(f)
            if len(extra) != 1:
                raise ProofError("cut premise must add exactly one succedent formula")
            main = extra[0]
        return Proof(self.rule, self.seq, children, self.comp, main)


def _read_main(rule, seq, main_tok, cut_formula):
    """(main_comp, main_formula) read from main_tok as format_proof writes
    it, for check_proof to judge; a cut's formula may be unwritten."""
    if rule == "cut":
        if main_tok in ("d1", "d2"):
            return main_tok, cut_formula
    elif rule in ("ax", "bot", "d", "d4"):
        if main_tok == "-":
            return None, None
    elif isinstance(main_tok, str) and main_tok.isdecimal() and (at := seq.from_flat(int(main_tok))):
        comp, idx = at
        return comp, seq.comp(comp)[idx]
    raise ProofError(f"rule {rule} cannot take the main token {main_tok!r}")
