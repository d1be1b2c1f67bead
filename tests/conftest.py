import random
import sys

import pytest

from craig.formulas import And, Atom, BOTTOM, Box, Neg, Or


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
