"""Resolution refutations with optional weakening, a DPLL refutation search
with unit propagation that reads a tree-like refutation off its trail, and
interpolant extraction from partitioned refutations."""

from __future__ import annotations

from dataclasses import dataclass
from .formulas import (
    And,
    Atom,
    BOTTOM,
    Formula,
    FormulaError,
    Neg,
    Or,
    TOP,
    _split_clause_line,
    clause_key,
    format_clause,
    format_formula,
    format_literal,
    parse_literal,
    sel,
    sorted_literals,
    split_literal,
)


class ResolutionError(ValueError):
    pass


class PartitionMismatch(ResolutionError):
    pass


class RefutationCheckFailed(ResolutionError):
    """A refutation the search built fails check_refutation: an internal bug."""


class AssignmentCheckFailed(ResolutionError):
    """An assignment the search found falsifies an input clause: an internal bug."""


class SideMismatch(ResolutionError):
    """An INPUT node of a refutation is not a clause of the side it names."""


class NonAtomicLiteral(ResolutionError):
    """A clause given to the refutation search has a literal over `false` or
    a boxed formula, which resolution on atoms can never remove."""


@dataclass(frozen=True)
class Input:
    clause: frozenset
    side: str  # "A" or "B"

    def __post_init__(self):
        if self.side not in ("A", "B"):
            raise ResolutionError(f"bad input side {self.side!r}")
        if type(self.clause) is not frozenset:
            object.__setattr__(self, "clause", frozenset(self.clause))


@dataclass(frozen=True)
class Resolve:
    left: int   # premise containing the pivot positively
    right: int  # premise containing the pivot negatively
    pivot: Formula

    def __post_init__(self):
        if not isinstance(self.pivot, Atom):
            raise ResolutionError("pivot must be an atom")


@dataclass(frozen=True)
class Weaken:
    premise: int
    added: frozenset

    def __post_init__(self):
        if type(self.added) is not frozenset:
            object.__setattr__(self, "added", frozenset(self.added))


@dataclass(frozen=True)
class ResolutionProof:
    nodes: tuple
    root: int

    def __post_init__(self):
        # with the clauses of Input and Weaken frozensets, the parts are
        # immutable, so a stored verdict stays true
        if type(self.nodes) is not tuple:
            object.__setattr__(self, "nodes", tuple(self.nodes))

    def __len__(self):
        return len(self.nodes)

    def __reduce__(self):
        # copies and pickles carry the fields, never the stored verdict
        return type(self), (self.nodes, self.root)


@dataclass(frozen=True)
class Satisfiable:
    assignment: tuple  # sorted (atom, bool) pairs

    def as_dict(self):
        return dict(self.assignment)


@dataclass(frozen=True)
class Violation:
    node: int
    reason: str


@dataclass(frozen=True)
class Partition:
    """Disjoint atom sets: shared, local to the A side, local to the B side."""

    shared: frozenset
    a_local: frozenset
    b_local: frozenset

    @classmethod
    def from_vars(cls, a_vars, b_vars):
        a_vars, b_vars = frozenset(a_vars), frozenset(b_vars)
        return cls(a_vars & b_vars, a_vars - b_vars, b_vars - a_vars)

    def classify(self, name):
        if name in self.shared:
            return "shared"
        if name in self.a_local:
            return "a"
        if name in self.b_local:
            return "b"
        raise PartitionMismatch(f"atom {name} is in no partition class")


def check_refutation(rp: ResolutionProof):
    """None when every node matches its rule shape and the root is empty.

    A refutation that passes stores that fact outside its fields; its
    constructor made its node list a tuple and its clauses frozensets, so
    nothing can change it, and checking it again costs nothing.  Copies,
    and refutations built from its nodes, do not carry the fact."""
    if rp.__dict__.get("_checked"):
        return None
    bad = _violation(rp)
    if bad is None:
        rp.__dict__["_checked"] = True
    return bad


def _violation(rp: ResolutionProof):
    """The first node in order that breaks its rule, or a bad root.  A
    clause is dropped after its last reader, so a tree-like refutation
    holds only the clauses still to be resolved."""
    nodes, root = rp.nodes, rp.root
    readers = [0] * len(nodes)  # per node, the nodes (and root) still to read its clause
    if 0 <= root < len(nodes):
        readers[root] = 1
    for i, node in enumerate(nodes):
        if isinstance(node, Resolve):
            for j in (node.left, node.right):
                if 0 <= j < i:
                    readers[j] += 1
        elif isinstance(node, Weaken) and 0 <= node.premise < i:
            readers[node.premise] += 1
    clauses = []
    for i, node in enumerate(nodes):
        if isinstance(node, Input):
            clause = node.clause
        elif isinstance(node, Resolve):
            left, right = node.left, node.right
            if not (0 <= left < i and 0 <= right < i):
                return Violation(i, "premise ids must precede the node")
            pos_lit, neg_lit = node.pivot, Neg(node.pivot)
            if pos_lit not in clauses[left]:
                return Violation(i, "left premise lacks the positive pivot")
            if neg_lit not in clauses[right]:
                return Violation(i, "right premise lacks the negative pivot")
            clause = (clauses[left] - {pos_lit}) | (clauses[right] - {neg_lit})
            readers[left] -= 1
            if not readers[left]:
                clauses[left] = None
            readers[right] -= 1
            if not readers[right]:
                clauses[right] = None
        elif isinstance(node, Weaken):
            j = node.premise
            if not 0 <= j < i:
                return Violation(i, "premise id must precede the node")
            clause = clauses[j] | node.added
            readers[j] -= 1
            if not readers[j]:
                clauses[j] = None
        else:
            return Violation(i, f"unknown node kind {type(node).__name__}")
        clauses.append(clause if readers[i] else None)
    if not 0 <= root < len(nodes):
        return Violation(root, "root id out of range")
    if clauses[root]:
        return Violation(root, "root clause is not empty")
    return None


# ---------------------------------------------------------------------------
# DPLL refutation search
# ---------------------------------------------------------------------------

def refute(cs):
    """Resolution refutation of an unsatisfiable set of clauses over atoms, or
    a satisfying assignment.

    DPLL with unit propagation and no clause learning.  Branching is
    two-sided Jeroslow-Wang, ties by name, True first: each clause not yet
    satisfied, with k literals not yet false, adds 2 ** -k to the score of
    the atom of each of those k.  A clause with no true literal and one
    free one assigns that literal and becomes its reason.  The refutation is
    read off the trail and stays tree-like: a falsified clause is resolved
    with the reason of each propagated literal it contains, newest first,
    and at a decision the clauses the two branches return are resolved on
    the decided atom; a True branch whose clause does not contain the
    atom's negation passes it up, and the False branch is not searched.
    Per-literal occurrence lists and per-clause counts of true literals and
    of literals not yet false, undone on backtrack, keep propagation linear,
    and the search runs on an explicit stack, so any number of atoms fits.
    Tautological clauses take no part in the search, so they are never
    resolved upon.  A literal over `false` or a boxed formula raises
    NonAtomicLiteral, since no resolution step on atoms can remove it."""
    return _refute_with_sides(sorted(cs, key=clause_key), {c: "A" for c in cs})


def refute_partitioned(a_clauses, b_clauses):
    """Refute the union, tagging input sides.  Clauses in both sets count as A."""
    sides = dict.fromkeys(b_clauses, "B") | dict.fromkeys(a_clauses, "A")
    return _refute_with_sides(sorted(sides, key=clause_key), sides)


def _refute_with_sides(clauses, sides):
    literals = {}
    for c in clauses:
        row = literals[c] = []
        for lit in c:
            negated, body = split_literal(lit)
            if not isinstance(body, Atom):
                bad = next(l for l in sorted_literals(c) if not isinstance(split_literal(l)[1], Atom))
                raise NonAtomicLiteral(
                    f"literal {format_literal(bad)} in clause {{{format_clause(c)}}} "
                    "is not over an atom; refutation search resolves on atoms only"
                )
            row.append((body.name, negated))
    empty = next((c for c in clauses if not c), None)
    if empty is not None:
        return _checked(ResolutionProof((Input(empty, sides[empty]),), 0))
    atoms = sorted({name for row in literals.values() for name, _ in row})
    index = {name: a for a, name in enumerate(atoms)}
    # Literal 2a is atoms[a] and 2a + 1 its negation.  value[a] is 0 or 1,
    # or 2 while atoms[a] is free, so atoms[a] at value v makes literal
    # 2a + v false and 2a + v ^ 1 true.  The clauses that are not
    # tautologies, in clause_key order, are inputs[i] with literal set
    # codes[i]; ntrue[i] counts its true literals and nopen[i] those not
    # yet false, so while ntrue[i] is 0 it is unit at nopen[i] == 1 and
    # falsified at 0.
    inputs, codes = [], []
    for c in clauses:
        row = {2 * index[name] + negated for name, negated in literals[c]}
        if not any(l ^ 1 in row for l in row):
            inputs.append(c)
            codes.append(row)
    rows = [[l >> 1 for l in row] for row in codes]  # the atoms of each clause
    width = max(map(len, rows), default=0)
    occurs = [[] for _ in range(2 * len(atoms))]
    for i, row in enumerate(codes):
        for l in row:
            occurs[l].append(i)
    ntrue, nopen = [0] * len(codes), [len(row) for row in codes]
    value, reason = [2] * len(atoms), [None] * len(atoms)
    pivots = [Atom(name) for name in atoms]
    trail = []  # the assigned atoms, oldest first
    # one [trail position, the True branch's (node id, clause)] per
    # decision on the current branch
    levels = []
    units = [i for i, row in enumerate(codes) if len(row) == 1]
    head = nsat = 0
    nodes, input_ids = [], {}
    a = None  # with v and why: the next assignment and its reason
    while True:
        while a is None and head < len(units):
            i = units[head]
            head += 1
            if not ntrue[i]:
                l = next(l for l in codes[i] if value[l >> 1] == 2)
                a, v, why = l >> 1, l & 1 ^ 1, i
        if a is None:
            if nsat == len(codes):
                model = Satisfiable(tuple(zip(atoms, (w == 1 for w in value))))
                bad = falsified_clause(clauses, model.as_dict())
                if bad is not None:
                    raise AssignmentCheckFailed(
                        f"search found an assignment that falsifies {{{format_clause(bad)}}}")
                return model
            score = [0] * len(atoms)  # scaled by 2 ** width, so exact
            for t, k, row in zip(ntrue, nopen, rows):
                if not t:
                    add = 1 << width - k
                    for b in row:
                        if value[b] == 2:
                            score[b] += add
            a = max(range(len(atoms)), key=score.__getitem__)
            levels.append([len(trail), None])
            v, why = 1, None
        value[a], reason[a] = v, why
        trail.append(a)
        f = 2 * a + v
        a = conflict = None
        for i in occurs[f ^ 1]:
            nsat += not ntrue[i]
            ntrue[i] += 1
        for i in occurs[f]:
            nopen[i] -= 1
            if not ntrue[i] and nopen[i] < 2:
                if nopen[i]:
                    units.append(i)
                elif conflict is None:
                    conflict = i
        if conflict is None:
            continue
        # Walk the trail back from the conflict, one decision level at a
        # time, with the falsified clause as (node id, literal set).
        del units[:]
        head = 0
        nid, clause = _input_id(nodes, input_ids, inputs[conflict], sides), set(codes[conflict])
        while True:
            start = levels[-1][0] if levels else 0
            while len(trail) > start:
                b = trail.pop()
                w = value[b]
                f = 2 * b + w
                for i in occurs[f ^ 1]:
                    ntrue[i] -= 1
                    nsat -= not ntrue[i]
                for i in occurs[f]:
                    nopen[i] += 1
                value[b] = 2
                r = reason[b]
                if r is not None and f in clause:  # resolve with the reason
                    rid = _input_id(nodes, input_ids, inputs[r], sides)
                    clause.remove(f)
                    clause |= codes[r]
                    clause.remove(f ^ 1)
                    nodes.append(Resolve(rid, nid, pivots[b]) if w else Resolve(nid, rid, pivots[b]))
                    nid = len(nodes) - 1
            if not levels:
                return _checked(ResolutionProof(tuple(nodes), nid))
            # b is the decision, and f the literal it makes false
            if f in clause:
                if w:  # search the False branch
                    levels[-1][1] = nid, clause
                    a, v, why = b, 0, None
                    break
                tid, tclause = levels[-1][1]
                clause.remove(f)
                tclause.remove(f ^ 1)
                clause |= tclause
                nodes.append(Resolve(nid, tid, pivots[b]))
                nid = len(nodes) - 1
            levels.pop()


def _input_id(nodes, input_ids, c, sides):
    """The id of the INPUT node of clause c, appended to nodes on first use."""
    if c not in input_ids:
        input_ids[c] = len(nodes)
        nodes.append(Input(c, sides[c]))
    return input_ids[c]


def falsified_clause(clauses, assignment):
    """The first of the clauses over atoms with no literal true under
    assignment, a dict from atom name to value, or None."""
    for c in clauses:
        if not any(assignment[body.name] != negated for negated, body in map(split_literal, c)):
            return c
    return None


def _checked(rp: ResolutionProof) -> ResolutionProof:
    """rp, which the search built, once check_refutation passes it."""
    bad = check_refutation(rp)
    if bad is not None:
        raise RefutationCheckFailed(
            f"search built an invalid refutation at node {bad.node}: {bad.reason}"
        )
    return rp


# ---------------------------------------------------------------------------
# Interpolant extraction
# ---------------------------------------------------------------------------

def check_sides(rp: ResolutionProof, a_clauses, b_clauses):
    """Raise SideMismatch at the first INPUT node whose clause is not a
    clause of the side it names, A in a_clauses and B in b_clauses."""
    sides = {"A": frozenset(a_clauses), "B": frozenset(b_clauses)}
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input) and node.clause not in sides[node.side]:
            raise SideMismatch(
                f"node {i}: INPUT {node.side} {{{format_clause(node.clause)}}} "
                f"is not a clause of {node.side}"
            )


def interpolant_from_refutation(rp: ResolutionProof, part: Partition) -> Formula:
    """Reverse-interpolant extraction: bottom constants on A inputs, top on B
    inputs; shared pivots select, A-local pivots disjoin, B-local conjoin."""
    bad = check_refutation(rp)
    if bad is not None:
        raise ResolutionError(f"invalid refutation at node {bad.node}: {bad.reason}")
    labels = []
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input):
            for lit in node.clause:
                body = split_literal(lit)[1]
                if not isinstance(body, Atom):
                    continue
                name = body.name
                kind = part.classify(name)
                if node.side == "A" and kind == "b":
                    raise PartitionMismatch(f"A-side input mentions B-local atom {name}")
                if node.side == "B" and kind == "a":
                    raise PartitionMismatch(f"B-side input mentions A-local atom {name}")
            labels.append(BOTTOM if node.side == "A" else TOP)
        elif isinstance(node, Resolve):
            x, y = labels[node.left], labels[node.right]
            kind = part.classify(node.pivot.name)
            if kind == "shared":
                labels.append(sel(node.pivot, x, y))
            elif kind == "a":
                labels.append(Or(x, y))
            else:
                labels.append(And(x, y))
        else:
            labels.append(labels[node.premise])
    return labels[rp.root]


# ---------------------------------------------------------------------------
# Exhaustive enumeration (for incompleteness witnesses)
# ---------------------------------------------------------------------------

def enumerate_refutations(cs, max_nodes, allow_weakening=False):
    """All refutations of cs with at most max_nodes nodes, every node used.

    Dead nodes cannot change the root interpolant, so only fully-used DAGs
    are produced.  Weakening nodes, when allowed, add one literal at a time.
    The (nodes, clauses, unread) states, unread the nodes that no later
    node reads, are walked depth first on an explicit stack of their
    extensions, each state met before the ones it extends to.  A premise
    precedes its node, so every node is used when the last one alone is
    unread.
    """
    inputs = sorted(cs, key=clause_key)
    bodies = {split_literal(l)[1] for c in cs for l in c}
    atoms = sorted((b for b in bodies if isinstance(b, Atom)), key=format_formula)
    stack = [iter([([], [], frozenset())])]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        nodes, clauses, unread = state
        if clauses and not clauses[-1] and len(unread) == 1:
            yield ResolutionProof(tuple(nodes), len(nodes) - 1)
        if len(nodes) < max_nodes:
            stack.append(_extensions(state, inputs, atoms, allow_weakening))


def _extensions(state, inputs, atoms, allow_weakening):
    """Each (nodes, clauses, unread) state one node longer than the given
    one: an input, then a resolvent, then a weakening by one literal."""
    nodes, clauses, unread = state
    last = {len(nodes)}
    for c in inputs:
        yield nodes + [Input(c, "A")], clauses + [c], unread | last
    for i in range(len(nodes)):
        for j in range(len(nodes)):
            for a in atoms:
                if a in clauses[i] and Neg(a) in clauses[j]:
                    merged = (clauses[i] - {a}) | (clauses[j] - {Neg(a)})
                    yield nodes + [Resolve(i, j, a)], clauses + [merged], unread - {i, j} | last
    if allow_weakening:
        for i in range(len(nodes)):
            for a in atoms:
                for lit in (a, Neg(a)):
                    if lit not in clauses[i]:
                        weakened = clauses[i] | {lit}
                        yield nodes + [Weaken(i, frozenset([lit]))], clauses + [weakened], unread - {i} | last


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def format_refutation(rp: ResolutionProof) -> str:
    lines = []
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input):
            lines.append(f"{i}: INPUT {node.side} {{{format_clause(node.clause)}}}")
        elif isinstance(node, Resolve):
            lines.append(f"{i}: RES {node.left} {node.right} {node.pivot.name}")
        else:
            lines.append(f"{i}: WEAK {node.premise} {{{format_clause(node.added)}}}")
    return "".join(line + "\n" for line in lines)


def parse_refutation(text: str) -> ResolutionProof:
    """Each distinct literal text in the file is parsed once."""
    nodes = []
    memo = {}
    for raw in text.split("\n"):
        line = raw.strip()
        if not line:
            continue
        try:
            head, _, rest = line.partition(":")
            idx = int(head)
            if idx != len(nodes):
                raise ResolutionError(f"node ids must be sequential, found {idx}")
            rest = rest.strip()
            if rest.startswith("INPUT"):
                _, side, braced = rest.split(None, 2)
                nodes.append(Input(_parse_braced_clause(braced, memo), side))
            elif rest.startswith("RES"):
                _, left, right, pivot = rest.split()
                nodes.append(Resolve(int(left), int(right), Atom(pivot)))
            elif rest.startswith("WEAK"):
                _, premise, braced = rest.split(None, 2)
                nodes.append(Weaken(int(premise), _parse_braced_clause(braced, memo)))
            else:
                raise ResolutionError(f"bad refutation line: {line!r}")
        except (FormulaError, ResolutionError):
            raise
        except ValueError as e:  # a missing field or a non-numeric node id
            raise ResolutionError(f"bad refutation line: {line!r}") from e
    if not nodes:
        raise ResolutionError("empty refutation text")
    return ResolutionProof(tuple(nodes), len(nodes) - 1)


def _parse_braced_clause(text, memo):
    """The clause in braces; memo maps the literal texts parsed so far to
    their literals."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ResolutionError(f"expected braced clause, found {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    out = []
    for tok in _split_clause_line(inner):
        lit = memo.get(tok)
        if lit is None:
            lit = memo[tok] = parse_literal(tok)
        out.append(lit)
    return frozenset(out)
