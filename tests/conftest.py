import itertools
import random
import sys

import pytest

from craig.formulas import And, Atom, BOTTOM, Bottom, Box, FormulaError, IncompleteAssignment, Neg, Or
from craig.sequent import format_sequent, main_occurrence


def random_formula(rng, atoms=("p", "q", "r", "s"), depth=4, modal=False):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return BOTTOM
        return Atom(rng.choice(atoms))
    kinds = ["neg", "and", "or"]
    if modal:
        kinds.append("box")
    kind = rng.choice(kinds)
    if kind == "neg":
        return Neg(random_formula(rng, atoms, depth - 1, modal))
    if kind == "box":
        return Box(random_formula(rng, atoms, depth - 1, modal))
    left = random_formula(rng, atoms, depth - 1, modal)
    right = random_formula(rng, atoms, depth - 1, modal)
    return And(left, right) if kind == "and" else Or(left, right)


def random_nnf(rng, atoms=("p", "q", "r", "s"), depth=4):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return BOTTOM
        if roll < 0.1:
            return Neg(BOTTOM)
        atom = Atom(rng.choice(atoms))
        return Neg(atom) if rng.random() < 0.5 else atom
    left = random_nnf(rng, atoms, depth - 1)
    right = random_nnf(rng, atoms, depth - 1)
    return And(left, right) if rng.random() < 0.5 else Or(left, right)


def random_clause_set(rng, atoms=("p", "q", "r", "s"), max_clauses=4, max_width=3):
    from craig.formulas import Literal

    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        lits = []
        for _ in range(rng.randint(0, max_width)):
            lits.append(Literal(rng.random() < 0.5, Atom(rng.choice(atoms))))
        clauses.append(frozenset(lits))
    return frozenset(clauses)


def random_3cnf(rng, variables=20, clauses=90):
    """clauses random 3-clauses over x00, x01, ...: the benchmark's refute
    draw, call for call."""
    from craig.formulas import Literal

    atoms = [Atom(f"x{v:02d}") for v in range(variables)]
    return [
        frozenset(Literal(rng.random() < 0.5, atoms[v]) for v in rng.sample(range(variables), 3))
        for _ in range(clauses)
    ]


def assignments_over(names):
    """Every assignment to the names, as a dict, in the rows' order of
    itertools.product([False, True], ...) over the sorted names."""
    names = sorted(names)
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def reference_eval(f, assignment=None, model=None, world=None):
    """eval_formula as it was before it became a fold: one recursive,
    short-circuit evaluation per assignment or world, left part first."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        if model is not None:
            return model.value(world, f.name)
        if f.name not in assignment:
            raise IncompleteAssignment(f"no value for atom {f.name}")
        return assignment[f.name]
    if isinstance(f, Neg):
        return not reference_eval(f.body, assignment, model, world)
    if isinstance(f, And):
        return reference_eval(f.left, assignment, model, world) and reference_eval(f.right, assignment, model, world)
    if isinstance(f, Or):
        return reference_eval(f.left, assignment, model, world) or reference_eval(f.right, assignment, model, world)
    if isinstance(f, Box) and model is not None:
        return all(reference_eval(f.body, assignment, model, v) for v in model.succ(world))
    raise FormulaError(f"cannot evaluate {f!r}")


def reference_format_proof(p):
    """The verbose .prf text that format_proof wrote before it left out
    derivable sequents: every node with its sequent, a cut without its
    formula, and a shared subproof copied wherever it is used.  Recursive,
    so only for proofs of modest depth."""
    seq = format_sequent(p.sequentv)
    occ = main_occurrence(p)
    if occ is not None:
        main = str(p.sequentv.flat_index(*occ))
    elif p.rule == "cut":
        main = p.main_comp
    else:
        main = "-"
    inner = " ".join([p.rule, f'"{seq}"', main] + [reference_format_proof(c) for c in p.children])
    return f"({inner})"


def iter_nodes(p, path=()):
    """(path, node) for every node of p's tree in preorder, on an explicit
    stack, so a subproof met again is walked again."""
    stack = [(path, p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((path + (i,), node.children[i]))


def reference_iter_nodes(p, path=()):
    """The recursive preorder walk that iter_nodes replaced."""
    yield path, p
    for i, c in enumerate(p.children):
        yield from reference_iter_nodes(c, path + (i,))


def interpolants(ann):
    """((path, interpolant), ...) for every node of an annotated proof's
    tree in preorder: the interpolant the node stores, or its entry in
    ann.notes."""
    out = []
    for path, node in iter_nodes(ann.proof):
        stored = getattr(node, "_interpolant", None)
        out.append((path, ann.notes[id(node)] if stored is None else stored))
    return tuple(out)


def distinct_nodes(p):
    """The number of distinct node objects in p."""
    seen, stack = set(), [p]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture
def shallow_stack():
    """A recursion limit far below the depth of the inputs under test."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
