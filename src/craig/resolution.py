"""Resolution refutations with optional weakening, a DPLL-based prover,
and interpolant extraction from partitioned refutations."""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    BOTTOM,
    Formula,
    FormulaError,
    Literal,
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
)


class ResolutionError(ValueError):
    pass


class PartitionMismatch(ResolutionError):
    pass


class RefutationCheckFailed(ResolutionError):
    """A refutation the search built fails check_refutation: an internal bug."""


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
            pos_lit = Literal(False, node.pivot)
            neg_lit = Literal(True, node.pivot)
            out.append((out[node.left] - {pos_lit}) | (out[node.right] - {neg_lit}))
        elif isinstance(node, Weaken):
            out.append(out[node.premise] | node.added)
        else:
            raise ResolutionError(f"bad node {node!r} at {i}")
    return out


def check_refutation(rp: ResolutionProof):
    """None when every node matches its rule shape and the root is empty."""
    clauses = []
    for i, node in enumerate(rp.nodes):
        if isinstance(node, Input):
            clauses.append(node.clause)
        elif isinstance(node, Resolve):
            if not (0 <= node.left < i and 0 <= node.right < i):
                return Violation(i, "premise ids must precede the node")
            pos_lit = Literal(False, node.pivot)
            neg_lit = Literal(True, node.pivot)
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
    clauses are never resolved upon.  Per-atom occurrence lists and
    per-clause literal counters replace rescanning the clauses at each node;
    the refutation is the one a rescanning search finds, node for node.  A
    literal over `false` or a boxed formula raises NonAtomicLiteral, since
    no resolution step on atoms can remove it."""
    return _refute_with_sides(sorted(cs, key=clause_key), {c: "A" for c in cs})


def refute_partitioned(a_clauses, b_clauses):
    """Refute the union, tagging input sides.  Clauses in both sets count as A."""
    sides = {}
    for c in b_clauses:
        sides[c] = "B"
    for c in a_clauses:
        sides[c] = "A"
    clauses = sorted(set(a_clauses) | set(b_clauses), key=clause_key)
    return _refute_with_sides(clauses, sides)


def _refute_with_sides(clauses, sides):
    # The search keeps, per atom, the indices of the clauses it occurs in
    # positively and negatively (a tautology is in both lists), and per
    # clause the number of literals over unassigned atoms and the number of
    # true literals.  Assigning an atom touches only its own clauses, and
    # unassigning it on the way back restores them.  A clause falsified at
    # a node is falsified by the atom just assigned, since a clause falsified
    # higher up would have closed that branch already; so the lowest-index
    # clause the last assignment falsifies is the first falsified clause of
    # the clause_key-sorted list, the one a full rescan would find, and the
    # refutation is the same node for node.
    occurrences = {}
    for ci, c in enumerate(clauses):
        for lit in c:
            if not isinstance(lit.body, Atom):
                bad = next(l for l in sorted_literals(c) if not isinstance(l.body, Atom))
                raise NonAtomicLiteral(
                    f"literal {format_literal(bad)} in clause {{{format_clause(c)}}} "
                    "is not over an atom; refutation search resolves on atoms only"
                )
            pos, neg = occurrences.setdefault(lit.body.name, ([], []))
            (neg if lit.negated else pos).append(ci)
    atoms = sorted(occurrences)
    occ = [occurrences[name] for name in atoms]
    pivots = [(Literal(False, Atom(name)), Literal(True, Atom(name))) for name in atoms]
    n_open = [len(c) for c in clauses]
    n_true = [0] * len(clauses)
    unsatisfied = len(clauses)
    assignment = {}
    nodes = []
    input_ids = {}

    def input_node(c):
        if c not in input_ids:
            nodes.append(Input(c, sides[c]))
            input_ids[c] = len(nodes) - 1
        return input_ids[c], c

    def assign(depth, value):
        # Returns the lowest index of a clause this assignment falsifies.
        nonlocal unsatisfied
        pos, neg = occ[depth]
        made_true, made_false = (pos, neg) if value else (neg, pos)
        for ci in made_true:
            n_open[ci] -= 1
            n_true[ci] += 1
            if n_true[ci] == 1:
                unsatisfied -= 1
        falsified = None
        for ci in made_false:
            n_open[ci] -= 1
            if falsified is None and not n_open[ci] and not n_true[ci]:
                falsified = ci
        return falsified

    def unassign(depth, value):
        nonlocal unsatisfied
        pos, neg = occ[depth]
        made_true, made_false = (pos, neg) if value else (neg, pos)
        for ci in made_true:
            n_open[ci] += 1
            n_true[ci] -= 1
            if not n_true[ci]:
                unsatisfied += 1
        for ci in made_false:
            n_open[ci] += 1

    def branch(depth, value):
        assignment[atoms[depth]] = value
        falsified = assign(depth, value)
        if falsified is None:
            out = solve(depth + 1)
        else:
            out = input_node(clauses[falsified])
        unassign(depth, value)
        del assignment[atoms[depth]]
        return out

    def solve(depth):
        # atoms[:depth] are assigned and no clause is falsified.  Returns
        # (node_id, clause) with the clause falsified under the assignment,
        # or Satisfiable.
        if not unsatisfied:
            full = dict.fromkeys(atoms, False)
            full.update(assignment)
            return Satisfiable(tuple(sorted(full.items())))
        pos_lit, neg_lit = pivots[depth]
        res_t = branch(depth, True)
        if isinstance(res_t, Satisfiable) or neg_lit not in res_t[1]:
            return res_t
        res_f = branch(depth, False)
        if isinstance(res_f, Satisfiable) or pos_lit not in res_f[1]:
            return res_f
        (id_t, cl_t), (id_f, cl_f) = res_t, res_f
        nodes.append(Resolve(id_f, id_t, pos_lit.body))
        return len(nodes) - 1, (cl_f - {pos_lit}) | (cl_t - {neg_lit})

    empty = next((c for c in clauses if not c), None)
    result = solve(0) if empty is None else input_node(empty)
    if isinstance(result, Satisfiable):
        return result
    rp = ResolutionProof(tuple(nodes), result[0])
    bad = check_refutation(rp)
    if bad is not None:
        raise RefutationCheckFailed(
            f"search built an invalid refutation at node {bad.node}: {bad.reason}"
        )
    return rp


# ---------------------------------------------------------------------------
# Interpolant extraction
# ---------------------------------------------------------------------------

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
                if not isinstance(lit.body, Atom):
                    continue
                name = lit.body.name
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
    atoms = sorted({l.body for c in cs for l in c if isinstance(l.body, Atom)},
                   key=format_formula)

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
                    if Literal(False, a) in clauses[i] and Literal(True, a) in clauses[j]:
                        merged = (clauses[i] - {Literal(False, a)}) | (
                            clauses[j] - {Literal(True, a)}
                        )
                        yield from extend(nodes + [Resolve(i, j, a)], clauses + [merged])
        if allow_weakening:
            for i in range(len(nodes)):
                for a in atoms:
                    for negated in (False, True):
                        lit = Literal(negated, a)
                        if lit not in clauses[i]:
                            yield from extend(
                                nodes + [Weaken(i, frozenset([lit]))],
                                clauses + [clauses[i] | {lit}],
                            )

    yield from extend([], [])


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
    nodes = []
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
                nodes.append(Input(_parse_braced_clause(braced), side))
            elif rest.startswith("RES"):
                _, left, right, pivot = rest.split()
                nodes.append(Resolve(int(left), int(right), Atom(pivot)))
            elif rest.startswith("WEAK"):
                _, premise, braced = rest.split(None, 2)
                nodes.append(Weaken(int(premise), _parse_braced_clause(braced)))
            else:
                raise ResolutionError(f"bad refutation line: {line!r}")
        except (FormulaError, ResolutionError):
            raise
        except ValueError as e:  # a missing field or a non-numeric node id
            raise ResolutionError(f"bad refutation line: {line!r}") from e
    if not nodes:
        raise ResolutionError("empty refutation text")
    return ResolutionProof(tuple(nodes), len(nodes) - 1)


def _parse_braced_clause(text):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ResolutionError(f"expected braced clause, found {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(parse_literal(tok) for tok in _split_clause_line(inner))
