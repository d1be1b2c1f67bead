"""Seeded inputs for the four instance sets the workloads are made of.

Each set draws the structure of its instances from a fixed generator seed:
the draws of acceptance criteria 4 and 5 for `realize` and `pipeline`, and
fixed draws for `prove` and `refute`.  The run's --seed picks a
three-letter suffix appended to every atom name and the order in which the
instances run.  Cost per instance is heavy-tailed in the drawn structure
(one criterion-5 style draw holds a single cut elimination of over 60 s), so
drawing fresh structures per seed would make a run's time depend on the seed
more than on the code.  Every base name is one letter, or one letter and a
fixed number of digits, so no name is a prefix of another and the suffix
keeps the order of every rendered formula: the library sorts by rendered
text, and the renamed instances do exactly the same work.
"""

import random
import string

from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Box,
    FormulaError,
    Literal,
    Neg,
    Or,
    clause_formula,
    clause_set_vars,
    enumerate_interpolants,
    formula_cnf,
    is_pruned_interpolant,
    parse_formula,
    prune,
)
from craig.resolution import Partition
from craig.sequent import K, LKAT, LKMINUS, S4, sequent

# The fixed generator parameters of each instance set's draw.
DRAWS = {
    "pipeline": dict(seed=105, instances=100, depth=3),
    "prove": dict(seed=201, per_system=100, depth=4, chains=(100, 125, 150)),
    "refute": dict(seed=301, instances=100, variables=20, clauses=90, php=(4, 5)),
    "realize": dict(seed=104, implications=47, depth=3),
}


def naming(seed):
    """The atom-name suffix and the instance-order generator for a run seed."""
    rng = random.Random(seed)
    suffix = "".join(rng.choice(string.ascii_lowercase) for _ in range(3))
    return suffix, rng


def random_formula(rng, atoms, depth, modal=False):
    """The draw of the test suite's random_formula, call for call."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return BOTTOM
        return Atom(rng.choice(atoms))
    kind = rng.choice(["neg", "and", "or", "box"] if modal else ["neg", "and", "or"])
    if kind == "neg":
        return Neg(random_formula(rng, atoms, depth - 1, modal))
    if kind == "box":
        return Box(random_formula(rng, atoms, depth - 1, modal))
    left = random_formula(rng, atoms, depth - 1, modal)
    right = random_formula(rng, atoms, depth - 1, modal)
    return And(left, right) if kind == "and" else Or(left, right)


def _atoms(letters, suffix):
    return tuple(x + suffix for x in letters)


def _implications(rng, suffix, depth):
    """Endless draws of valid implications a -> b with their classes."""
    a_atoms, b_atoms = _atoms("pqru", suffix), _atoms("pqrv", suffix)
    while True:
        a = random_formula(rng, a_atoms, depth)
        b = random_formula(rng, b_atoms, depth)
        try:
            targets = enumerate_interpolants(a, b)
        except FormulaError:
            continue
        yield a, b, targets


def pipeline_inputs(suffix):
    """Criterion 5: (a, b, class index, pruned interpolant) per instance."""
    draw = DRAWS["pipeline"]
    rng = random.Random(draw["seed"])
    out = []
    for a, b, targets in _implications(rng, suffix, draw["depth"]):
        k = rng.randrange(len(targets))
        cs = prune(formula_cnf(targets[k]))
        if cs and is_pruned_interpolant(cs, a, b):
            out.append((a, b, k, cs))
            if len(out) == draw["instances"]:
                return out


def realize_inputs(suffix):
    """Criterion 4 plus dense and modal implications: one instance per
    interpolant class, as (a, b, target, system)."""
    draw = DRAWS["realize"]
    implications = _implications(random.Random(draw["seed"]), suffix, draw["depth"])
    pairs = [next(implications) for _ in range(draw["implications"])]
    names = dict(zip("pqruv", _atoms("pqruv", suffix)))

    def fml(text):
        return parse_formula(text.format(**names))

    for a_text, b_text in [
        ("{p} & {q} & {r}", "{p} | {q} | {r}"),
        ("{p} & {q}", "{p} | {q}"),
        ("{p}", "{p}"),
        ("{p} & {q} & {r} & {u}", "{p} | {q} | {r} | {v}"),
        ("({p} | {u}) & {q} & {r} & {u}", "{p} | ({q} & {v}) | {r}"),
    ]:
        a, b = fml(a_text), fml(b_text)
        pairs.append((a, b, enumerate_interpolants(a, b)))
    out = [(a, b, t, LKAT) for a, b, targets in pairs for t in targets]
    a, b = fml("[]({p} & {q})"), fml("[]({p} | {q})")
    out += [(a, b, t, K) for t in (a, b, fml("[]{p} & []{q}"))]
    return out


def _chain(n, suffix):
    atoms = [Atom(f"c{i:03d}{suffix}") for i in range(n)]
    conj, disj = atoms[0], atoms[0]
    for x in atoms[1:]:
        conj, disj = And(conj, x), Or(disj, x)
    return sequent([conj], [], [], [disj])


def prove_inputs(suffix):
    """Chain sequents and random depth-4 sequents as (sequent, system); every
    second random sequent is  a => a | b  and so provable by construction."""
    draw = DRAWS["prove"]
    out = [(_chain(n, suffix), LKMINUS) for n in draw["chains"]]
    rng = random.Random(draw["seed"])
    atoms = _atoms("pqr", suffix)
    for system in (LKMINUS, K, S4):
        for i in range(draw["per_system"]):
            a = random_formula(rng, atoms, draw["depth"], system.modal)
            b = random_formula(rng, atoms, draw["depth"], system.modal)
            out.append((sequent([a], [], [], [Or(a, b) if i % 2 else b]), system))
    return out


def _php(n, suffix):
    """n + 1 pigeons in n holes; unsatisfiable."""
    hole = [[Atom(f"h{i}{j}{suffix}") for j in range(n)] for i in range(n + 1)]
    cls = [frozenset(Literal(False, x) for x in row) for row in hole]
    for j in range(n):
        for i in range(n + 1):
            for k in range(i + 1, n + 1):
                cls.append(frozenset([Literal(True, hole[i][j]), Literal(True, hole[k][j])]))
    return cls


def _refute_instance(a_clauses, b_clauses, expect_unsat):
    """A/B clause lists, the partition, the clause formulas that a
    satisfying assignment must make true, and whether the set is known to be
    unsatisfiable (True) or not known (None)."""
    part = Partition.from_vars(clause_set_vars(a_clauses), clause_set_vars(b_clauses))
    checks = [clause_formula(c) for c in a_clauses + b_clauses]
    return a_clauses, b_clauses, part, checks, expect_unsat


def refute_inputs(suffix):
    """Pigeonhole sets through `refute` (no B side) and random 3-CNF near
    the threshold, split into halves, through `refute_partitioned`."""
    draw = DRAWS["refute"]
    out = [_refute_instance(_php(n, suffix), [], True) for n in draw["php"]]
    rng = random.Random(draw["seed"])
    nv, m = draw["variables"], draw["clauses"]
    atoms = [Atom(f"x{v:02d}{suffix}") for v in range(nv)]
    for _ in range(draw["instances"]):
        cls = [
            frozenset(Literal(rng.random() < 0.5, atoms[v]) for v in rng.sample(range(nv), 3))
            for _ in range(m)
        ]
        out.append(_refute_instance(cls[: m // 2], cls[m // 2:], None))
    return out
