import random

import pytest

from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Literal,
    clause_key,
    Neg,
    Or,
    TOP,
    assignments_over,
    clause,
    clause_set_formula,
    entails,
    equiv,
    eval_formula,
    sel,
    vars_of,
)
from craig.resolution import (
    Input,
    NonAtomicLiteral,
    Partition,
    RefutationCheckFailed,
    Resolve,
    ResolutionError,
    ResolutionProof,
    Satisfiable,
    Weaken,
    check_refutation,
    enumerate_refutations,
    format_refutation,
    interpolant_from_refutation,
    node_clauses,
    parse_refutation,
    refute,
    refute_partitioned,
)

p, q = Atom("p"), Atom("q")


def simple_refutation(atom, sides=("A", "B")):
    return ResolutionProof(
        (
            Input(clause(atom.name), sides[0]),
            Input(clause("~" + atom.name), sides[1]),
            Resolve(0, 1, atom),
        ),
        2,
    )


class TestCheckRefutation:
    def test_single_resolve_ok(self):
        assert check_refutation(simple_refutation(p)) is None

    def test_missing_pivot_is_violation(self):
        rp = ResolutionProof(
            (Input(clause("p"), "A"), Input(clause("~q"), "B"), Resolve(0, 1, q)),
            2,
        )
        v = check_refutation(rp)
        assert v is not None and v.node == 2

    def test_weakening_route_ok(self):
        rp = ResolutionProof(
            (
                Input(clause("p"), "A"),
                Weaken(0, frozenset([Literal(False, q)])),
                Input(clause("~p"), "B"),
                Resolve(1, 2, p),
                Input(clause("~q"), "B"),
                Resolve(3, 4, q),
            ),
            5,
        )
        assert check_refutation(rp) is None
        assert node_clauses(rp)[3] == clause("q")

    def test_nonempty_root(self):
        rp = ResolutionProof((Input(clause("p"), "A"),), 0)
        v = check_refutation(rp)
        assert v is not None


def clause_set_unsat(cs):
    f = clause_set_formula(cs)
    return all(not eval_formula(f, a) for a in assignments_over(vars_of(f)))


class TestRefute:
    def test_direct_contradiction(self):
        rp = refute(frozenset([clause("p"), clause("~p")]))
        assert isinstance(rp, ResolutionProof)
        assert len(rp) == 3

    def test_invalid_refutation_is_a_named_error(self, monkeypatch):
        import craig.resolution
        from craig.resolution import Violation

        monkeypatch.setattr(
            craig.resolution, "check_refutation", lambda rp: Violation(0, "injected")
        )
        with pytest.raises(RefutationCheckFailed, match="injected"):
            refute(frozenset([clause("p"), clause("~p")]))

    def test_satisfiable_unit(self):
        out = refute(frozenset([clause("p")]))
        assert isinstance(out, Satisfiable)
        assert out.as_dict() == {"p": True}

    def test_four_units(self):
        cs = frozenset([clause("p"), clause("q"), clause("~p"), clause("~q")])
        assert clause_set_unsat(cs)
        rp = refute(cs)
        assert check_refutation(rp) is None

    def test_random_roundup(self, rng):
        from conftest import random_clause_set

        for _ in range(200):
            cs = random_clause_set(rng, max_clauses=6, max_width=3)
            out = refute(cs)
            if isinstance(out, Satisfiable):
                f = clause_set_formula(cs)
                assert eval_formula(f, out.as_dict())
            else:
                assert clause_set_unsat(cs)
                assert check_refutation(out) is None

    def test_tautological_inputs_never_resolved(self):
        cs = frozenset([clause("p", "~p"), clause("q"), clause("~q")])
        rp = refute(cs)
        taut_ids = {
            i for i, n in enumerate(rp.nodes)
            if isinstance(n, Input) and n.clause == clause("p", "~p")
        }
        for n in rp.nodes:
            if isinstance(n, Resolve):
                assert n.left not in taut_ids and n.right not in taut_ids


# The scan-based search that the incremental one in craig.resolution
# replaced: at every node it rescans all clauses for the first falsified one
# and for satisfaction.  It is the reference the differential tests hold the
# library to, text for text.
def reference_refute_with_sides(clauses, atoms, sides):
    nodes = []
    input_ids = {}

    def input_node(c):
        if c not in input_ids:
            nodes.append(Input(c, sides[c]))
            input_ids[c] = len(nodes) - 1
        return input_ids[c]

    def falsified_clause(assignment):
        for c in clauses:
            if all(
                isinstance(l.body, Atom)
                and l.body.name in assignment
                and assignment[l.body.name] == l.negated
                or (not isinstance(l.body, Atom) and not l.negated)
                for l in c
            ):
                return c
        return None

    def satisfied(assignment):
        for c in clauses:
            if not any(
                (isinstance(l.body, Atom) and assignment.get(l.body.name) == (not l.negated))
                or (not isinstance(l.body, Atom) and l.negated)
                for l in c
            ):
                return False
        return True

    def solve(assignment, depth):
        c = falsified_clause(assignment)
        if c is not None:
            return input_node(c), c
        if satisfied(assignment) or depth == len(atoms):
            full = dict(assignment)
            for name in atoms:
                full.setdefault(name, False)
            return Satisfiable(tuple(sorted(full.items())))
        name = atoms[depth]
        atom = Atom(name)
        res_t = solve({**assignment, name: True}, depth + 1)
        if isinstance(res_t, Satisfiable):
            return res_t
        id_t, cl_t = res_t
        if Literal(True, atom) not in cl_t:
            return id_t, cl_t
        res_f = solve({**assignment, name: False}, depth + 1)
        if isinstance(res_f, Satisfiable):
            return res_f
        id_f, cl_f = res_f
        if Literal(False, atom) not in cl_f:
            return id_f, cl_f
        nodes.append(Resolve(id_f, id_t, atom))
        merged = (cl_f - {Literal(False, atom)}) | (cl_t - {Literal(True, atom)})
        return len(nodes) - 1, merged

    result = solve({}, 0)
    if isinstance(result, Satisfiable):
        return result
    return ResolutionProof(tuple(nodes), result[0])


def reference_refute_partitioned(a_clauses, b_clauses):
    sides = {c: "B" for c in b_clauses}
    sides.update({c: "A" for c in a_clauses})
    clauses = sorted(set(a_clauses) | set(b_clauses), key=clause_key)
    atoms = sorted({l.body.name for c in clauses for l in c})
    return reference_refute_with_sides(clauses, atoms, sides)


def outcome(out):
    if isinstance(out, Satisfiable):
        return out.assignment
    return format_refutation(out)


def php(n):
    """n + 1 pigeons in n holes."""
    def hole(i, j):
        return Atom(f"p{i}h{j}")

    cs = [frozenset(Literal(False, hole(i, j)) for j in range(n)) for i in range(n + 1)]
    for j in range(n):
        for i in range(n + 1):
            for k in range(i + 1, n + 1):
                cs.append(frozenset([Literal(True, hole(i, j)), Literal(True, hole(k, j))]))
    return frozenset(cs)


class TestReferenceSearch:
    """The incremental search returns exactly what the rescanning one does."""

    def test_random_cnfs(self):
        rng = random.Random(3)
        kinds = {"sat": 0, "unsat": 0}
        for _ in range(600):
            names = [f"x{i}" for i in range(rng.randint(3, 8))]
            cs = [
                frozenset(
                    Literal(rng.random() < 0.5, Atom(rng.choice(names)))
                    for _ in range(rng.randint(1, 3))
                )
                for _ in range(rng.randint(1, 4 * len(names)))
            ]
            a_cls, b_cls = [], []
            for c in cs:
                roll = rng.random()
                if roll < 0.55:
                    a_cls.append(c)
                if roll >= 0.45:
                    b_cls.append(c)
            whole = frozenset(cs)
            got = refute(whole)
            assert outcome(got) == outcome(reference_refute_partitioned(whole, []))
            assert outcome(refute_partitioned(a_cls, b_cls)) == outcome(
                reference_refute_partitioned(a_cls, b_cls)
            )
            kinds["sat" if isinstance(got, Satisfiable) else "unsat"] += 1
        assert min(kinds.values()) > 100

    @pytest.mark.parametrize(
        "cs",
        [
            php(3),
            frozenset([clause("p", "~p"), clause("q", "r"), clause("~q"), clause("~r", "p")]),
            frozenset([clause("p", "~p"), clause("q")]),
            frozenset([clause(), clause("p"), clause("~p")]),
            frozenset(),
        ],
        ids=["php3", "tautology-unsat", "tautology-sat", "empty-clause", "empty-set"],
    )
    def test_fixed_sets(self, cs):
        expected = outcome(reference_refute_partitioned(cs, []))
        assert outcome(refute(cs)) == expected
        halves = sorted(cs, key=clause_key)
        a_cls, b_cls = halves[::2], halves[1::2]
        assert outcome(refute_partitioned(a_cls, b_cls)) == outcome(
            reference_refute_partitioned(a_cls, b_cls)
        )


class TestNonAtomicLiterals:
    @pytest.mark.parametrize("text", ["false", "~false", "[]p", "~[]p"])
    def test_rejected_before_search(self, text):
        bad = clause(text, "~s")
        cs = [bad, clause("q"), clause("s", "~q")]
        with pytest.raises(NonAtomicLiteral, match=r"literal \S+ in clause"):
            refute(frozenset(cs))
        with pytest.raises(NonAtomicLiteral):
            refute_partitioned(cs[1:], [bad])

    def test_names_the_literal(self):
        with pytest.raises(NonAtomicLiteral, match=r"literal \[\]\(p\) "):
            refute(frozenset([clause("q", "[]p")]))


def reverse_interpolant_ok(c, a_clauses, b_clauses, part):
    a_formula = clause_set_formula(frozenset(a_clauses))
    b_formula = clause_set_formula(frozenset(b_clauses))
    return (
        vars_of(c) <= part.shared
        and entails(a_formula, c)
        and entails(b_formula, Neg(c))
    )


class TestInterpolant:
    def test_shared_pivot_left(self):
        rp = simple_refutation(p)
        part = Partition.from_vars({"p"}, {"p"})
        c = interpolant_from_refutation(rp, part)
        assert c == sel(p, BOTTOM, TOP)
        assert equiv(c, p)

    def test_shared_pivot_right(self):
        rp = simple_refutation(q)
        part = Partition.from_vars({"p", "q"}, {"p", "q"})
        c = interpolant_from_refutation(rp, part)
        assert equiv(c, q)

    def test_weakening_route(self):
        rp = ResolutionProof(
            (
                Input(clause("p"), "A"),
                Weaken(0, frozenset([Literal(False, q)])),
                Input(clause("~p"), "B"),
                Resolve(1, 2, p),
                Input(clause("~q"), "B"),
                Resolve(3, 4, q),
            ),
            5,
        )
        part = Partition.from_vars({"p", "q"}, {"p", "q"})
        c = interpolant_from_refutation(rp, part)
        assert c == sel(q, sel(p, BOTTOM, TOP), TOP)
        assert equiv(c, Or(p, q))

    def test_partition_mismatch(self):
        rp = simple_refutation(p)
        part = Partition.from_vars({"q"}, {"q", "p"})
        with pytest.raises(ResolutionError):
            interpolant_from_refutation(rp, part)

    def test_local_pivots(self):
        # A = {p q}{~q}, B = {~p r}{~r}: q is A-local, r is B-local
        a_cls = [clause("p", "q"), clause("~q")]
        b_cls = [clause("~p", "r"), clause("~r")]
        rp = refute_partitioned(a_cls, b_cls)
        assert isinstance(rp, ResolutionProof)
        part = Partition.from_vars({"p", "q"}, {"p", "r"})
        c = interpolant_from_refutation(rp, part)
        assert reverse_interpolant_ok(c, a_cls, b_cls, part)

    def test_soundness_random(self):
        rng = random.Random(41)
        shared = ["p", "t"]
        found = 0
        for _ in range(400):
            a_cls, b_cls = [], []
            for _ in range(rng.randint(1, 4)):
                a_cls.append(
                    frozenset(
                        Literal(rng.random() < 0.5, Atom(rng.choice(shared + ["u", "v"])))
                        for _ in range(rng.randint(1, 3))
                    )
                )
            for _ in range(rng.randint(1, 4)):
                b_cls.append(
                    frozenset(
                        Literal(rng.random() < 0.5, Atom(rng.choice(shared + ["w"])))
                        for _ in range(rng.randint(1, 3))
                    )
                )
            out = refute_partitioned(a_cls, b_cls)
            if isinstance(out, Satisfiable):
                continue
            found += 1
            part = Partition.from_vars({"p", "t", "u", "v"}, {"p", "t", "w"})
            c = interpolant_from_refutation(out, part)
            assert reverse_interpolant_ok(c, a_cls, b_cls, part)
        assert found > 20


class TestEnumerate:
    def test_incompleteness_witness(self):
        # all weakening-free refutations of {p}{q}{~p}{~q} up to 6 nodes
        cs = frozenset([clause("p"), clause("q"), clause("~p"), clause("~q")])
        part = Partition.from_vars({"p", "q"}, {"p", "q"})
        seen = 0
        for rp in enumerate_refutations(cs, 6):
            relabeled = ResolutionProof(
                tuple(
                    Input(n.clause, "B" if n.clause in (clause("~p"), clause("~q")) else "A")
                    if isinstance(n, Input)
                    else n
                    for n in rp.nodes
                ),
                rp.root,
            )
            c = interpolant_from_refutation(relabeled, part)
            assert equiv(c, p) or equiv(c, q)
            assert not equiv(c, And(p, q)) and not equiv(c, Or(p, q))
            seen += 1
        assert seen >= 2

    def test_weakening_reaches_disjunction(self):
        cs = frozenset([clause("p"), clause("q"), clause("~p"), clause("~q")])
        part = Partition.from_vars({"p", "q"}, {"p", "q"})
        reached = False
        for rp in enumerate_refutations(cs, 6, allow_weakening=True):
            relabeled = ResolutionProof(
                tuple(
                    Input(n.clause, "B" if n.clause in (clause("~p"), clause("~q")) else "A")
                    if isinstance(n, Input)
                    else n
                    for n in rp.nodes
                ),
                rp.root,
            )
            c = interpolant_from_refutation(relabeled, part)
            if equiv(c, Or(p, q)):
                reached = True
                break
        assert reached


class TestSerialization:
    def test_round_trip(self):
        rp = ResolutionProof(
            (
                Input(clause("p", "~q"), "A"),
                Input(clause("q"), "A"),
                Resolve(1, 0, q),
                Input(clause("~p"), "B"),
                Resolve(2, 3, p),
            ),
            4,
        )
        assert parse_refutation(format_refutation(rp)) == rp

    @pytest.mark.parametrize(
        "text",
        ["0: INPUT A {p}\nx: RES 0 0 p\n", "0: INPUT A {p}\n1: RES 0 p\n", "0: INPUT A\n"],
    )
    def test_malformed_line_is_a_named_error(self, text):
        with pytest.raises(ResolutionError, match="bad refutation line"):
            parse_refutation(text)

    def test_round_trip_refute_outputs(self, rng):
        from conftest import random_clause_set

        done = 0
        while done < 50:
            cs = random_clause_set(rng, max_clauses=6, max_width=3)
            out = refute(cs)
            if isinstance(out, Satisfiable):
                continue
            assert parse_refutation(format_refutation(out)) == out
            done += 1
