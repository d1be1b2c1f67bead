import copy
import dataclasses
import pickle
import random
import re

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
    clause,
    clause_set_formula,
    clause_set_vars,
    entails,
    equiv,
    eval_formula,
    sel,
    split_literal,
    vars_of,
)
from craig.resolution import (
    AssignmentCheckFailed,
    Input,
    NonAtomicLiteral,
    Partition,
    RefutationCheckFailed,
    Resolve,
    ResolutionError,
    ResolutionProof,
    Satisfiable,
    SideMismatch,
    Violation,
    Weaken,
    check_refutation,
    check_sides,
    enumerate_refutations,
    falsified_clause,
    format_refutation,
    interpolant_from_refutation,
    parse_refutation,
    refute,
    refute_partitioned,
)
from conftest import assignments_over, random_3cnf, reference_enumerate_refutations

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

    def test_nonempty_root(self):
        rp = ResolutionProof((Input(clause("p"), "A"),), 0)
        v = check_refutation(rp)
        assert v is not None

    def test_shared_and_unread_clauses(self):
        # node 2 is read twice, by a node that reads it as both premises'
        # sources and by the root; node 3 is never read
        rp = ResolutionProof(
            (
                Input(clause("p", "q"), "A"),
                Input(clause("~p"), "B"),
                Resolve(0, 1, p),
                Input(clause("r"), "A"),
                Input(clause("~q"), "B"),
                Resolve(2, 4, q),
                Resolve(2, 2, q),
            ),
            5,
        )
        v = check_refutation(rp)
        assert v is not None and v.node == 6 and v.reason == "right premise lacks the negative pivot"
        fixed = ResolutionProof(rp.nodes[:6] + (Weaken(2, clause("~q")), Resolve(2, 6, q)), 5)
        assert check_refutation(fixed) is None

    def test_check_drops_each_clause_after_its_last_reader(self):
        import tracemalloc

        rp = refute(php(6))
        rp = ResolutionProof(rp.nodes, rp.root)  # without the search's stored verdict
        tracemalloc.start()
        try:
            assert check_refutation(rp) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # keeping every clause of the 5,995 nodes takes 4.4 MB
        assert len(rp) == 5_995 and peak < 300_000

    def test_verdict_stays_with_the_checked_refutation(self):
        rp = refute(frozenset([clause("p", "q"), clause("~p"), clause("~q")]))
        assert check_refutation(rp) is None
        assert set(vars(rp)) > {"nodes", "root"}
        for other in (ResolutionProof(rp.nodes, 0), dataclasses.replace(rp, root=0)):
            assert set(vars(other)) == {"nodes", "root"}
            v = check_refutation(other)
            assert v is not None and v.reason == "root clause is not empty"
        for other in (copy.copy(rp), copy.deepcopy(rp), pickle.loads(pickle.dumps(rp)),
                      parse_refutation(format_refutation(rp))):
            assert other == rp and set(vars(other)) == {"nodes", "root"}

    def test_a_refutation_built_from_lists_is_immutable(self):
        """The constructors make the node list a tuple and the clauses
        frozensets, so a caller's lists, changed later, change neither the
        refutation nor its stored verdict."""
        literals = [p]
        nodes = [Input(literals, "A"), Input(clause("~p"), "B"), Resolve(0, 1, p)]
        rp = ResolutionProof(nodes, 2)
        assert type(rp.nodes) is tuple and type(rp.nodes[0].clause) is frozenset
        assert check_refutation(rp) is None and rp._checked
        nodes[2] = Input(clause("q"), "A")
        literals.append(Neg(p))
        assert rp.nodes[2] == Resolve(0, 1, p) and rp.nodes[0].clause == clause("p")
        assert check_refutation(rp) is None
        assert check_refutation(ResolutionProof(nodes, 2)) == Violation(2, "root clause is not empty")
        assert type(Weaken(0, [q]).added) is frozenset
        # a tuple and frozensets are kept as they are
        c, t = clause("p"), tuple(nodes)
        assert Input(c, "A").clause is c and Weaken(0, c).added is c and ResolutionProof(t, 2).nodes is t


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

    def test_falsified_clause(self):
        cs = [clause("p", "q"), clause("~p"), clause("p", "~p")]
        assert falsified_clause(cs, {"p": False, "q": True}) is None
        assert falsified_clause(cs, {"p": False, "q": False}) == clause("p", "q")
        assert falsified_clause(cs, {"p": True, "q": False}) == clause("~p")
        assert falsified_clause([], {}) is None

    def test_a_wrong_assignment_is_a_named_error(self, monkeypatch):
        import craig.resolution

        cs = frozenset([clause("p", "q"), clause("~p")])
        assert refute(cs).as_dict() == {"p": False, "q": True}
        # the search's answer, checked against a clause set it does not satisfy
        monkeypatch.setattr(
            craig.resolution, "falsified_clause", lambda clauses, assignment: clause("~q")
        )
        with pytest.raises(AssignmentCheckFailed, match=r"falsifies \{~q\}"):
            refute(cs)
        assert issubclass(AssignmentCheckFailed, ResolutionError)

    def test_every_assignment_found_is_checked(self, rng, monkeypatch):
        import craig.resolution
        from conftest import random_clause_set

        checked = []
        real = craig.resolution.falsified_clause
        monkeypatch.setattr(
            craig.resolution, "falsified_clause",
            lambda clauses, assignment: checked.append(len(clauses)) or real(clauses, assignment),
        )
        sat = 0
        for _ in range(100):
            cs = random_clause_set(rng, max_clauses=6, max_width=3)
            if isinstance(refute(cs), Satisfiable):
                sat += 1
                assert checked.pop() == len(cs)
        assert sat > 20 and checked == []

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

    def test_pigeonhole_size(self):
        rp = refute(php(5))
        assert len(rp) == 1_051
        assert check_refutation(rp) is None

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


# A scan-based DPLL search without unit propagation: at every node it
# rescans all clauses for the first falsified one and for satisfaction.  It
# is the verdict oracle the differential tests hold the library to.
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
                isinstance(body, Atom)
                and body.name in assignment
                and assignment[body.name] == negated
                or (not isinstance(body, Atom) and not negated)
                for negated, body in map(split_literal, c)
            ):
                return c
        return None

    def satisfied(assignment):
        for c in clauses:
            if not any(
                (isinstance(body, Atom) and assignment.get(body.name) == (not negated))
                or (not isinstance(body, Atom) and negated)
                for negated, body in map(split_literal, c)
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
    atoms = sorted({split_literal(l)[1].name for c in clauses for l in c})
    return reference_refute_with_sides(clauses, atoms, sides)


def agrees_with_reference(got, a_cls, b_cls):
    """Check got, the search's answer for the clauses a_cls (side A) and
    b_cls (side B), against the reference; the sizes of both refutations,
    (0, 0) when the clauses are satisfiable.  The interpolant is checked
    by truth table when the clauses have at most 12 atoms."""
    want = reference_refute_partitioned(a_cls, b_cls)
    assert type(got) is type(want)
    if isinstance(got, Satisfiable):
        assert falsified_clause(set(a_cls) | set(b_cls), got.as_dict()) is None
        return 0, 0
    assert check_refutation(got) is None
    check_sides(got, a_cls, b_cls)
    part = Partition.from_vars(clause_set_vars(a_cls), clause_set_vars(b_cls))
    itp = interpolant_from_refutation(got, part)
    if len(clause_set_vars(set(a_cls) | set(b_cls))) <= 12:
        assert reverse_interpolant_ok(itp, a_cls, b_cls, part)
    else:
        assert vars_of(itp) <= part.shared
    return len(got), len(want)


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
    """The search gives the rescanning reference's verdict, with a model
    that satisfies the clauses or a refutation that checks and yields an
    interpolant."""

    def test_random_cnfs(self):
        rng = random.Random(3)
        kinds = {"sat": 0, "unsat": 0}
        size = reference_size = 0
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
            for out, a_side, b_side in ((got, whole, []), (refute_partitioned(a_cls, b_cls), a_cls, b_cls)):
                n, m = agrees_with_reference(out, a_side, b_side)
                size += n
                reference_size += m
            kinds["sat" if isinstance(got, Satisfiable) else "unsat"] += 1
        assert min(kinds.values()) > 100
        # unit propagation shortens the refutations in total, though not
        # every single one
        assert size < reference_size

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
        agrees_with_reference(refute(cs), cs, [])
        halves = sorted(cs, key=clause_key)
        a_cls, b_cls = halves[::2], halves[1::2]
        agrees_with_reference(refute_partitioned(a_cls, b_cls), a_cls, b_cls)

    def test_sets_wider_than_a_machine_word(self):
        """php(4) and 90-clause 3-CNF draws over 20 atoms, one of them with
        a tautology added."""
        from conftest import random_3cnf

        rng = random.Random(5)
        draws = [random_3cnf(rng) for _ in range(6)]
        tautology = frozenset([Atom("x00"), Neg(Atom("x00")), Atom("x07")])
        cases = [(php(4), [])] + [(cs[:45], cs[45:]) for cs in draws]
        cases.append((draws[2][:45] + [tautology], draws[2][45:]))
        kinds = []
        for a_cls, b_cls in cases:
            got = refute_partitioned(a_cls, b_cls)
            agrees_with_reference(got, a_cls, b_cls)
            kinds.append(type(got).__name__)
        agrees_with_reference(refute(php(4)), php(4), [])
        assert kinds == ["ResolutionProof"] + ["Satisfiable"] * 2 + ["ResolutionProof"] * 2 + [
            "Satisfiable", "ResolutionProof", "ResolutionProof",
        ]


def renamed(cs, suffix):
    """The clauses cs with suffix appended to every atom name."""
    return [frozenset(Literal(negated, Atom(body.name + suffix)) for negated, body in map(split_literal, c))
            for c in cs]


class TestBranching:
    """The search decides the atom of highest two-sided Jeroslow-Wang score,
    ties by name, True first.  Deciding in name order took 2,491 nodes on
    php(5), 21,039 on php(6) and 7 s on the satisfiable 3-CNF below."""

    def test_php6_size(self):
        rp = refute(php(6))
        assert len(rp) <= 5_995
        assert check_refutation(rp) is None

    def test_satisfiable_500_atom_3cnf(self):
        cs = random_3cnf(random.Random(1), variables=500, clauses=1_500)
        out = refute(frozenset(cs))
        assert isinstance(out, Satisfiable)
        assert falsified_clause(cs, out.as_dict()) is None

    @pytest.mark.parametrize("suffix", ["_b", "x9"])
    def test_renaming_that_keeps_the_order(self, suffix):
        """Appending one suffix to names of one length keeps their order,
        so the search makes the same decisions: the refutations match node
        for node, up to the renaming."""
        rng = random.Random(5)
        draws = [random_3cnf(rng) for _ in range(6)]
        cases = [(sorted(php(4), key=clause_key), [])] + [(cs[:45], cs[45:]) for cs in draws]
        sat = 0
        for a_cls, b_cls in cases:
            names = sorted(clause_set_vars(a_cls + b_cls))
            assert sorted(name + suffix for name in names) == [name + suffix for name in names]
            got = refute_partitioned(a_cls, b_cls)
            out = refute_partitioned(renamed(a_cls, suffix), renamed(b_cls, suffix))
            if isinstance(got, Satisfiable):
                assert out == Satisfiable(tuple((name + suffix, v) for name, v in got.assignment))
                sat += 1
                continue
            text = re.sub(r"[a-z]\w*", lambda m: m.group() + suffix, format_refutation(got))
            assert (len(out), format_refutation(out)) == (len(got), text)
        assert sat == 3


class TestDeepSearch:
    """The search walks its decision tree on an explicit stack; the
    recursive one overflowed the C stack of Python 3.10 on long chains."""

    def chain(self, n):
        """x0, x0 -> x1, ..., x(n-1) -> xn: unsatisfiable with ~xn."""
        x = [Atom(f"x{i:05d}") for i in range(n + 1)]
        return [frozenset([x[0]])] + [frozenset([Neg(x[i]), x[i + 1]]) for i in range(n)], x[n]

    def test_implication_chain(self, shallow_stack):
        cs, last = self.chain(20_000)
        rp = refute(frozenset(cs + [frozenset([Neg(last)])]))
        # every clause is an input, and each of the 20,001 atoms is resolved once
        assert len(rp) == 40_003
        assert check_refutation(rp) is None

    def test_satisfiable_chain(self, shallow_stack):
        cs, _ = self.chain(20_000)
        out = refute(frozenset(cs))
        assert isinstance(out, Satisfiable)
        assert set(out.as_dict().values()) == {True}

    def test_unpadded_chain(self, shallow_stack):
        """With names x0 ... xN the decision order is not the chain's order,
        so a search without unit propagation grew faster than N squared;
        propagation refutes the chain in linear size and time."""
        n = 20_000
        x = [Atom(f"x{i}") for i in range(n + 1)]
        cs = [frozenset([x[0]])] + [frozenset([Neg(x[i]), x[i + 1]]) for i in range(n)]
        rp = refute(frozenset(cs + [frozenset([Neg(x[n])])]))
        assert len(rp) == 2 * n + 3
        assert check_refutation(rp) is None
        out = refute(frozenset(cs))
        assert isinstance(out, Satisfiable)
        assert falsified_clause(cs, out.as_dict()) is None


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

    def test_inputs_must_be_clauses_of_their_side(self):
        a_cls, b_cls = [clause("p")], [clause("~p")]
        check_sides(simple_refutation(p), a_cls, b_cls)
        check_sides(simple_refutation(p), a_cls + b_cls, b_cls)  # ~p is in both
        for sides, bad in ((("B", "A"), 0), (("A", "A"), 1)):
            with pytest.raises(SideMismatch, match=f"node {bad}: INPUT"):
                check_sides(simple_refutation(p, sides), a_cls, b_cls)

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
    @pytest.mark.parametrize("cs, max_nodes, allow_weakening", [
        (frozenset([clause("p"), clause("q"), clause("~p"), clause("~q")]), 6, False),
        (frozenset([clause("p", "q"), clause("~p"), clause("~q")]), 5, True),
    ], ids=["prop3.3", "weakening"])
    def test_yields_the_reference_sequence(self, cs, max_nodes, allow_weakening):
        texts = [format_refutation(rp) for rp in enumerate_refutations(cs, max_nodes, allow_weakening)]
        assert texts and texts == [format_refutation(rp) for rp in
                                   reference_enumerate_refutations(cs, max_nodes, allow_weakening)]

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
