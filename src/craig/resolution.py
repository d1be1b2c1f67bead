"""Resolution refutations with optional weakening, a DPLL-based prover,
and interpolant extraction from partitioned refutations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain

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


@dataclass(frozen=True)
class ResolutionProof:
    nodes: tuple
    root: int

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


def node_clauses(rp: ResolutionProof):
    """Conclusion clause of every node, in index order."""
    out = []
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input):
            out.append(node.clause)
        elif isinstance(node, Resolve):
            out.append((out[node.left] - {node.pivot}) | (out[node.right] - {Neg(node.pivot)}))
        elif isinstance(node, Weaken):
            out.append(out[node.premise] | node.added)
        else:
            raise ResolutionError(f"bad node {node!r} at {i}")
    return out


def check_refutation(rp: ResolutionProof):
    """None when every node matches its rule shape and the root is empty.

    A refutation that passes stores that fact outside its fields, when its
    node list is a tuple and its clauses are frozensets, so that nothing can
    change it; checking it again costs nothing.  Copies, and refutations
    built from its nodes, do not carry the fact."""
    if rp.__dict__.get("_checked"):
        return None
    bad = _violation(rp)
    if bad is None and _frozen(rp):
        rp.__dict__["_checked"] = True
    return bad


def _frozen(rp: ResolutionProof) -> bool:
    """rp's node list is a tuple and its clauses are frozensets."""
    if type(rp.nodes) is not tuple:
        return False
    for node in rp.nodes:
        if isinstance(node, Input) and type(node.clause) is not frozenset:
            return False
        if isinstance(node, Weaken) and type(node.added) is not frozenset:
            return False
    return True


def _violation(rp: ResolutionProof):
    clauses = []
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input):
            clauses.append(node.clause)
        elif isinstance(node, Resolve):
            if not (0 <= node.left < i and 0 <= node.right < i):
                return Violation(i, "premise ids must precede the node")
            pos_lit, neg_lit = node.pivot, Neg(node.pivot)
            if pos_lit not in clauses[node.left]:
                return Violation(i, "left premise lacks the positive pivot")
            if neg_lit not in clauses[node.right]:
                return Violation(i, "right premise lacks the negative pivot")
            clauses.append((clauses[node.left] - {pos_lit}) | (clauses[node.right] - {neg_lit}))
        elif isinstance(node, Weaken):
            if not 0 <= node.premise < i:
                return Violation(i, "premise id must precede the node")
            clauses.append(clauses[node.premise] | node.added)
        else:
            return Violation(i, f"unknown node kind {type(node).__name__}")
    if not 0 <= rp.root < len(rp.nodes):
        return Violation(rp.root, "root id out of range")
    if clauses[rp.root]:
        return Violation(rp.root, "root clause is not empty")
    return None


# ---------------------------------------------------------------------------
# DPLL refutation search
# ---------------------------------------------------------------------------

def refute(cs):
    """Resolution refutation of an unsatisfiable set of clauses over atoms, or
    a satisfying assignment.

    DPLL without unit propagation: atoms are decided in sorted order, True
    first, and the refutation is read off the decision tree, so tautological
    clauses are never resolved upon.  Each search node is one bit mask of
    satisfied clauses, each atom value a precomputed mask of the clauses it
    makes true, and the clauses an assignment falsifies are one mask
    operation away, so no node rescans the clauses; the refutation is the
    one a rescanning search finds, node for node.  The decision tree is
    walked on an explicit stack, so any number of atoms fits.  A literal
    over `false` or a boxed formula raises NonAtomicLiteral, since no
    resolution step on atoms can remove it."""
    return _refute_with_sides(sorted(cs, key=clause_key), {c: "A" for c in cs})


def refute_partitioned(a_clauses, b_clauses):
    """Refute the union, tagging input sides.  Clauses in both sets count as A."""
    sides = dict.fromkeys(b_clauses, "B") | dict.fromkeys(a_clauses, "A")
    return _refute_with_sides(sorted(sides, key=clause_key), sides)


def _refute_with_sides(clauses, sides):
    # Bit masks over the clauses, numbered by the depth of their last atom in
    # the decision order and by clause_key order within one depth, so that
    # the clauses depth d closes, closing[d], hold the bits [lo[d], lo[d + 1]).
    # A search node at depth d is one int, sat: the mask of satisfied clauses
    # among those that close at depth d or deeper, shifted down by lo[d].
    # The clauses closed higher up are satisfied on every open branch, so
    # dropping their bits keeps sat as small as the window of open clauses.
    # makes[d] holds the masks, shifted by lo[d], of the clauses that
    # atoms[d] makes true when False and when True; a tautology is in both.
    # A clause falsified at a node is falsified by the atom just assigned,
    # or it would have closed the branch higher up; so the lowest set bit of
    # closes[d] & ~sat is the first falsified clause of the clause_key-sorted
    # list, the one a full rescan would find, and the refutation is the same
    # node for node.
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
    n = len(atoms)
    depth_of = {name: d for d, name in enumerate(atoms)}
    closing = [[] for _ in atoms]
    for c, row in literals.items():
        closing[max(depth_of[name] for name, _ in row)].append(c)
    width = [len(group) for group in closing]
    lo = list(accumulate(width, initial=0))
    makes = [[0, 0] for _ in atoms]
    for bit, c in enumerate(chain.from_iterable(closing)):
        for name, negated in literals[c]:
            d = depth_of[name]
            makes[d][not negated] |= 1 << (bit - lo[d])
    closes = [(1 << w) - 1 for w in width]
    still_open = [len(literals) - k for k in lo]
    pivots = [(Atom(name), Neg(Atom(name))) for name in atoms]

    # One explicit-stack walk of the decision tree, True before False.  On
    # the current branch values[d] is the value of atoms[d], sats[d] the
    # node above that decision, and, while the False branch runs, trues[d]
    # the (node_id, clause) that the True branch returned.  A branch
    # returns the (node_id, clause) of a clause it falsifies, and a
    # Satisfiable ends the search.
    values, sats, trues = [True] * n, [0] * n, [None] * n
    nodes = []
    input_ids = {}
    sat = d = 0
    while True:
        if sat.bit_length() == still_open[d] and not sat & (sat + 1):
            model = Satisfiable(tuple(zip(atoms, values[:d] + [False] * (n - d))))
            bad = falsified_clause(clauses, model.as_dict())
            if bad is not None:
                raise AssignmentCheckFailed(
                    f"search found an assignment that falsifies {{{format_clause(bad)}}}")
            return model
        values[d], sats[d] = True, sat
        while True:  # assign values[d] to atoms[d]
            sat = sats[d] | makes[d][values[d]]
            closed = closes[d] & ~sat
            if not closed:
                sat >>= width[d]
                d += 1
                break
            c = closing[d][(closed & -closed).bit_length() - 1]
            if c not in input_ids:
                input_ids[c] = len(nodes)
                nodes.append(Input(c, sides[c]))
            result = input_ids[c], c
            while d >= 0:  # hand result up the branch
                pos_lit, neg_lit = pivots[d]
                if values[d]:
                    if neg_lit in result[1]:
                        # the True branch used atoms[d]: search the False one
                        values[d], trues[d] = False, result
                        break
                elif pos_lit in result[1]:
                    (id_t, cl_t), (id_f, cl_f) = trues[d], result
                    nodes.append(Resolve(id_f, id_t, pos_lit))
                    result = len(nodes) - 1, (cl_f - {pos_lit}) | (cl_t - {neg_lit})
                d -= 1
            else:
                return _checked(ResolutionProof(tuple(nodes), result[0]))


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
    """
    inputs = sorted(cs, key=clause_key)
    bodies = {split_literal(l)[1] for c in cs for l in c}
    atoms = sorted((b for b in bodies if isinstance(b, Atom)), key=format_formula)

    def extend(nodes, clauses):
        if len(nodes) <= max_nodes and clauses and not clauses[-1]:
            used = set()
            stack = [len(nodes) - 1]
            while stack:
                i = stack.pop()
                if i in used:
                    continue
                used.add(i)
                node = nodes[i]
                if isinstance(node, Resolve):
                    stack.extend([node.left, node.right])
                elif isinstance(node, Weaken):
                    stack.append(node.premise)
            if len(used) == len(nodes):
                yield ResolutionProof(tuple(nodes), len(nodes) - 1)
        if len(nodes) >= max_nodes:
            return
        for c in inputs:
            yield from extend(nodes + [Input(c, "A")], clauses + [c])
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                for a in atoms:
                    if a in clauses[i] and Neg(a) in clauses[j]:
                        merged = (clauses[i] - {a}) | (clauses[j] - {Neg(a)})
                        yield from extend(nodes + [Resolve(i, j, a)], clauses + [merged])
        if allow_weakening:
            for i in range(len(nodes)):
                for a in atoms:
                    for lit in (a, Neg(a)):
                        if lit not in clauses[i]:
                            yield from extend(
                                nodes + [Weaken(i, frozenset([lit]))],
                                clauses + [clauses[i] | {lit}],
                            )

    try:
        yield from extend([], [])
    finally:
        del extend  # it refers to itself: a cycle per call


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
