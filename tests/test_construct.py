import itertools
import random

import pytest

from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Box,
    Neg,
    Or,
    TOP,
    clause,
    clause_set_formula,
    equiv,
    eval_formula,
    formula_cnf,
    impl,
    is_clause_set_interpolant,
    sorted_clauses,
    vars_of,
)
from craig.maehara import maehara
from craig.sequent import (
    K,
    K4,
    KD,
    KT,
    LKAT,
    LKLIT,
    LKMINUS,
    S4,
    SYSTEMS,
    ax,
    check_proof,
    classify_cut,
    format_proof,
    format_sequent,
    is_tame,
    sequent,
)
from craig.construct import (
    ConstructError,
    NotAnInterpolant,
    NotProvable,
    NotPrunedInterpolant,
    ProofCheckFailed,
    conjoin,
    enumerate_cutfree_interpolants,
    prove_cutfree,
    pruned_subsumption_pipeline,
    realize_clause,
    realize_interpolant,
    realize_pruned,
    try_prove_cutfree,
    verify_interpolant,
)
from conftest import (
    assignments_over,
    iter_nodes,
    random_clause_set,
    random_formula,
    reference_enumerate_cutfree_interpolants,
    reference_prove_cutfree,
)

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


def sequent_valid(seq):
    f = impl(
        And(*seq.antecedent()) if len(seq.antecedent()) > 1 else (seq.antecedent()[0] if seq.antecedent() else TOP),
        Or(*seq.succedent()) if len(seq.succedent()) > 1 else (seq.succedent()[0] if seq.succedent() else BOTTOM),
    )
    names = vars_of(f)
    return all(eval_formula(f, a) for a in assignments_over(names))


class TestProveCutfree:
    def test_simple_valid(self):
        proof = prove_cutfree(sequent([And(p, q)], [], [p, q], []), LKMINUS)
        assert check_proof(proof, LKMINUS) is None

    def test_invalid_search_proof_is_a_named_error(self, monkeypatch):
        import craig.construct
        from craig.sequent import Violation

        monkeypatch.setattr(
            craig.construct, "check_proof", lambda proof, system: Violation((), "injected")
        )
        with pytest.raises(ProofCheckFailed, match="injected"):
            prove_cutfree(sequent([And(p, q)], [], [p, q], []), LKMINUS)

    @pytest.mark.parametrize("system", [LKMINUS, LKAT])
    @pytest.mark.parametrize(
        "seq",
        [sequent([Box(p)], [], [], [Box(p)]), sequent([], [], [Box(p)], []),
         sequent([Or(p, Neg(Box(q)))], [], [p], [])],
        ids=["provable", "unprovable", "nested"],
    )
    def test_boxed_formula_in_a_propositional_system_is_a_named_error(self, seq, system):
        with pytest.raises(ConstructError, match="boxed formula in a non-modal system") as info:
            prove_cutfree(seq, system)
        assert type(info.value) is ConstructError

    def test_atom_not_provable(self):
        with pytest.raises(NotProvable) as info:
            prove_cutfree(sequent([], [], [], [p]), LKMINUS)
        assert info.value.countermodel == {"p": False}

    def test_countermodel_falsifies(self):
        a = Or(And(p, q), r)
        b = And(p, s)
        try:
            prove_cutfree(sequent([a], [], [], [b]), LKMINUS)
        except NotProvable as e:
            v = e.countermodel
            assert eval_formula(a, v) and not eval_formula(b, v)

    def test_exhaustive_agreement_with_truth_tables(self):
        # all sequents  f ; => ; g  over small formulas
        pool = [
            p,
            q,
            Neg(p),
            And(p, q),
            Or(p, Neg(q)),
            Or(Neg(p), q),
            And(Or(p, q), Neg(r)),
            BOTTOM,
            TOP,
        ]
        for f, g in itertools.product(pool, repeat=2):
            seq = sequent([f], [], [], [g])
            proof = try_prove_cutfree(seq, LKMINUS)
            assert (proof is not None) == sequent_valid(seq)
            if proof is not None:
                assert check_proof(proof, LKMINUS) is None

    def test_k_example(self):
        seq = sequent([Box(p), Box(impl(p, q))], [], [], [Box(q)])
        proof = prove_cutfree(seq, K)
        assert check_proof(proof, K) is None

    def test_k_not_provable_with_countermodel(self):
        seq = sequent([Box(Or(p, q))], [], [], [Box(p)])
        with pytest.raises(NotProvable) as info:
            prove_cutfree(seq, K)
        model = info.value.countermodel
        assert eval_formula(Box(Or(p, q)), model=model, world=0)
        assert not eval_formula(Box(p), model=model, world=0)

    def test_modal_axioms_separate_systems(self):
        t_axiom = sequent([Box(p)], [], [], [p])
        four_axiom = sequent([Box(p)], [], [], [Box(Box(p))])
        d_axiom = sequent([Box(p)], [], [], [Neg(Box(Neg(p)))])
        assert try_prove_cutfree(t_axiom, KT) is not None
        assert try_prove_cutfree(t_axiom, K) is None
        assert try_prove_cutfree(four_axiom, K4) is not None
        assert try_prove_cutfree(four_axiom, K) is None
        assert try_prove_cutfree(d_axiom, KD) is not None
        assert try_prove_cutfree(d_axiom, K) is None
        assert try_prove_cutfree(t_axiom, S4) is not None
        assert try_prove_cutfree(four_axiom, S4) is not None

    def test_kt_unfold_inside_jump(self):
        seq = sequent([Box(Box(p))], [], [], [Box(p)])
        proof = prove_cutfree(seq, KT)
        assert check_proof(proof, KT) is None

    def test_exhaustive_small_formulas(self):
        # every implication over all depth-1 formulas on {p, q, false}
        import itertools

        base = [p, q, BOTTOM]
        pool = list(base)
        pool += [Neg(f) for f in base]
        pool += [And(f, g) for f in base for g in base]
        pool += [Or(f, g) for f in base for g in base]
        for f, g in itertools.product(pool, repeat=2):
            seq = sequent([f], [], [], [g])
            proof = try_prove_cutfree(seq, LKMINUS)
            assert (proof is not None) == sequent_valid(seq)

    def test_s4_termination(self):
        # transitivity plus reflexivity exercises the loop check
        seq = sequent([Box(p)], [], [], [Box(Box(Box(p)))])
        assert try_prove_cutfree(seq, S4) is not None
        bad = sequent([Box(Or(p, q))], [], [], [Box(p)])
        assert try_prove_cutfree(bad, S4) is None

    def test_kd4(self):
        from craig.sequent import KD4

        d_axiom = sequent([Box(p)], [], [], [Neg(Box(Neg(p)))])
        four_axiom = sequent([Box(p)], [], [], [Box(Box(p))])
        assert try_prove_cutfree(d_axiom, KD4) is not None
        assert try_prove_cutfree(four_axiom, KD4) is not None
        assert try_prove_cutfree(d_axiom, K4) is None

    @pytest.mark.parametrize("text", ["[](~p & []p) ; => ;", "[]~[]p ; => ; ~p | ~[]p"])
    def test_kd4_needs_the_d4_jump(self, text):
        """Both sequents are KD4-valid: seriality and transitivity give a
        world that must satisfy p and ~p.  The d jump drops the boxes from
        its premise, so only d4, which keeps them, proves them."""
        from craig.sequent import KD, KD4, format_proof, parse_proof, parse_sequent

        seq = parse_sequent(text)
        proof = prove_cutfree(seq, KD4)
        assert proof.sequentv == seq
        assert check_proof(proof, KD4) is None
        assert "d4" in {node.rule for _, node in iter_nodes(proof)}
        assert parse_proof(format_proof(proof)) == proof
        assert check_proof(proof, KD).reason == "rule d4 not available in kd"
        a, b = seq.g1[0], seq.d2[0] if seq.d2 else BOTTOM
        assert verify_interpolant(a, b, maehara(proof, KD4).interpolant, KD4)
        assert try_prove_cutfree(seq, KD) is None

    @pytest.mark.parametrize("system", [K4, S4], ids=["k4", "s4"])
    def test_4_step_over_a_box_and_its_box(self, system):
        """In the 4 step's premise []p is both the body of [][]p and a box
        of the context; the search builds the step from its conclusion,
        and the reference search reads that conclusion from the deepest box
        down."""
        for side in ([Box(p)], [Box(q)]):
            seq = sequent(side + [Box(Box(p))], [], [Box(Box(Box(p)))], [])
            proof = prove_cutfree(seq, system)
            assert check_proof(proof, system) is None
            assert "4" in {node.rule for _, node in iter_nodes(proof)}

    def test_a_1_200_link_chain(self, shallow_stack):
        """c0 & ... & c1199 ; => ; c0 | ... | c1199, eight times the
        benchmark's longest chain: the search applies a rule per link, and
        none of them takes a frame of the interpreter's stack."""
        atoms = [Atom(f"c{i:04d}") for i in range(1_200)]
        conj = disj = atoms[0]
        for x in atoms[1:]:
            conj, disj = And(conj, x), Or(disj, x)
        proof = prove_cutfree(sequent([conj], [], [], [disj]), LKMINUS)
        assert check_proof(proof, LKMINUS) is None
        assert proof.sequentv == sequent([conj], [], [], [disj])
        with pytest.raises(NotProvable) as info:
            prove_cutfree(sequent([conj], [], [], [Atom("d")]), LKMINUS)
        assert info.value.countermodel == {**{x.name: True for x in atoms}, "d": False}


class TestRealizeClause:
    def test_paper_pieces(self):
        proof = realize_clause(And(p, q), clause("p"))
        assert equiv(maehara(proof, LKLIT).interpolant, p)
        proof2 = realize_clause(And(p, q), clause("q"))
        assert equiv(maehara(proof2, LKLIT).interpolant, q)

    def test_interpolant_shape(self):
        proof = realize_clause(p, clause("p", "r"))
        m = maehara(proof, LKLIT).interpolant
        # false disjoined with the clause literals, in canonical order
        assert m == Or(Or(BOTTOM, p), r)

    def test_checks_with_literal_cuts(self):
        proof = realize_clause(Or(And(p, q), And(p, r)), clause("p"))
        assert check_proof(proof, LKLIT) is None

    def test_negative_literal(self):
        proof = realize_clause(Neg(p), clause("~p"))
        assert equiv(maehara(proof, LKLIT).interpolant, Neg(p))

    def test_not_entailed(self):
        with pytest.raises(ConstructError):
            realize_clause(p, clause("q"))


class TestConjoin:
    def test_worked_example(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p"), clause("q")])
        pis = [realize_clause(a, c) for c in sorted_clauses(cs)]
        psi = conjoin(a, b, cs, pis)
        assert check_proof(psi, LKAT) is None
        m = maehara(psi, LKAT).interpolant
        assert formula_cnf(m) == cs
        assert equiv(m, And(p, q))

    def test_pruned_inputs_give_tame_output(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p"), clause("q")])
        pis = [
            prove_cutfree(sequent([a], [], [], sorted(c, key=str)), LKAT)
            for c in sorted_clauses(cs)
        ]
        psi = conjoin(a, b, cs, pis)
        ok, witness = is_tame(psi)
        assert ok, witness
        for path, node in iter_nodes(psi):
            if node.rule == "cut":
                assert classify_cut(psi, path).type_r

    def test_single_clause(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p")])
        pis = [realize_clause(a, clause("p"))]
        psi = conjoin(a, b, cs, pis)
        assert formula_cnf(maehara(psi, LKAT).interpolant) == cs

    def test_not_an_interpolant(self):
        # {p} violates the variable condition for p & q -> q
        cs = frozenset([clause("p")])
        with pytest.raises(NotAnInterpolant):
            conjoin(And(p, q), q, cs, [realize_clause(And(p, q), clause("p"))])
        # a boxed literal is no interpolant in a propositional system
        with pytest.raises(NotAnInterpolant):
            conjoin(Box(p), Box(p), frozenset([clause(Box(p))]), [ax(Box(p), "g1", "d2")], LKAT)

    def test_gate_agrees_with_the_clause_set_check(self, rng):
        verdicts = set()
        for i in range(300):
            a = random_formula(rng, depth=3)
            b = Or(a, random_formula(rng, depth=2)) if i % 2 else random_formula(rng, depth=3)
            cs = formula_cnf(a) if i % 4 == 1 else random_clause_set(rng)
            got = verify_interpolant(a, b, clause_set_formula(cs), LKAT)
            assert got == is_clause_set_interpolant(cs, a, b)
            verdicts.add(got)
        assert verdicts == {True, False}

    def test_cap(self):
        a = And(And(p, q), And(r, s))
        b = Or(Or(p, q), Or(r, s))
        cs = frozenset([clause("p", "q"), clause("r", "s")])
        pis = [realize_clause(a, c) for c in sorted_clauses(cs)]
        with pytest.raises(ConstructError):
            conjoin(a, b, cs, pis, cminus_cap=2)


class TestRealizeInterpolant:
    def test_headline_example(self):
        proof = realize_interpolant(And(p, q), Or(p, q), And(p, q))
        assert check_proof(proof, LKAT) is None
        m = maehara(proof, LKAT).interpolant
        assert equiv(m, And(p, q))

    def test_all_four_targets(self):
        a, b = And(p, q), Or(p, q)
        for target in (And(p, q), p, q, Or(p, q)):
            proof = realize_interpolant(a, b, target)
            assert check_proof(proof, LKAT) is None
            assert equiv(maehara(proof, LKAT).interpolant, target)

    def test_double_negation_target(self):
        proof = realize_interpolant(p, p, Neg(Neg(p)))
        assert equiv(maehara(proof, LKAT).interpolant, p)

    def test_rejects_non_interpolant(self):
        with pytest.raises(NotAnInterpolant):
            realize_interpolant(And(p, q), Or(p, q), r)

    def test_tautological_clause_target(self):
        # the clause set of p | ~p contains both polarities of p
        target = Or(p, Neg(p))
        proof = realize_interpolant(p, Or(p, Neg(p)), target)
        assert check_proof(proof, LKAT) is None
        assert equiv(maehara(proof, LKAT).interpolant, target)

    def test_mixed_polarity_clauses_target(self):
        # (p | q) & (~p | q) is equivalent to q but has p both ways
        a, b = q, Or(q, r)
        target = And(Or(p, q), Or(Neg(p), q))
        with pytest.raises(NotAnInterpolant):
            realize_interpolant(a, b, target)  # p is not shared
        a2 = And(q, Or(p, Neg(p)))
        b2 = Or(q, And(p, r))
        assert verify_interpolant(a2, b2, target, LKAT)
        proof = realize_interpolant(a2, b2, target)
        assert check_proof(proof, LKAT) is None
        assert equiv(maehara(proof, LKAT).interpolant, target)

    def test_multi_literal_modal_clause(self):
        a = And(Box(p), Box(q))
        b = Or(Box(p), Box(q))
        target = Or(Box(p), Box(q))
        proof = realize_interpolant(a, b, target, K)
        assert check_proof(proof, K) is None
        m = maehara(proof, K).interpolant
        assert try_prove_cutfree(sequent([m], [], [], [target]), K) is not None
        assert try_prove_cutfree(sequent([target], [], [], [m]), K) is not None

    def test_s4_realization(self):
        a, b = Box(p), Box(Box(p))
        target = Box(Box(p))
        assert verify_interpolant(a, b, target, S4)
        proof = realize_interpolant(a, b, target, S4)
        assert check_proof(proof, S4) is None
        m = maehara(proof, S4).interpolant
        assert try_prove_cutfree(sequent([m], [], [], [target]), S4) is not None
        assert try_prove_cutfree(sequent([target], [], [], [m]), S4) is not None

    def test_kt_realization(self):
        a, b = Box(And(p, q)), p
        target = p
        assert verify_interpolant(a, b, target, KT)
        proof = realize_interpolant(a, b, target, KT)
        assert check_proof(proof, KT) is None

    def test_modal_targets(self):
        a, b = Box(And(p, q)), Box(Or(p, q))
        for target in (a, b, And(Box(p), Box(q))):
            proof = realize_interpolant(a, b, target, K)
            assert check_proof(proof, K) is None
            m = maehara(proof, K).interpolant
            assert try_prove_cutfree(sequent([m], [], [], [target]), K) is not None
            assert try_prove_cutfree(sequent([target], [], [], [m]), K) is not None

    def test_modal_cut_policy(self):
        proof = realize_interpolant(
            Box(And(p, q)), Box(Or(p, q)), And(Box(p), Box(q)), K
        )
        for path, node in iter_nodes(proof):
            if node.rule == "cut":
                f = node.main_formula
                assert isinstance(f, (Atom, Box)) or f == BOTTOM or f == TOP


class TestRealizePruned:
    def test_worked_example(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p"), clause("q")])
        proof = realize_pruned(a, b, cs)
        assert check_proof(proof, LKAT) is None
        assert formula_cnf(maehara(proof, LKAT).interpolant) == cs
        ok, witness = is_tame(proof)
        assert ok, witness
        for path, node in iter_nodes(proof):
            if node.rule == "cut":
                assert classify_cut(proof, path).type_r

    def test_rejects_unpruned(self):
        with pytest.raises(NotPrunedInterpolant):
            realize_pruned(And(p, q), Or(p, q), frozenset([clause("p", "q")]))

    def test_rejects_bad_vars(self):
        with pytest.raises(NotPrunedInterpolant):
            realize_pruned(p, Or(q, Neg(q)), frozenset([clause("p")]))


class TestPipeline:
    def test_worked_example(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p"), clause("q")])
        proof, trace = pruned_subsumption_pipeline(a, b, cs)
        assert check_proof(proof, LKMINUS) is None
        out = formula_cnf(maehara(proof, LKMINUS).interpolant)
        assert out in (frozenset([clause("p")]), frozenset([clause("q")]))
        from craig.formulas import subsumes

        assert subsumes(cs, out)


def enumeration_draw(system, count=4):
    """Seeded sequents with proofs a few steps deep: from random x, y, z,
    x & y ; => ; x | z  and  x & y ; y => x ;  and, in a modal system,
    also  [](x & y) ; => ; x | z  and the two with every formula boxed."""
    rng = random.Random(f"enumeration {system.name}")
    out = []
    for _ in range(count):
        x, y, z = (random_formula(rng, ("p", "q", "r"), 1, system.modal) for _ in range(3))
        a, b = And(x, y), Or(x, z)
        out += [sequent([a], [], [], [b]), sequent([a], [y], [x], [])]
        if system.modal:
            out += [sequent([Box(a)], [], [], [b]), sequent([Box(a)], [], [], [Box(b)]),
                    sequent([Box(a)], [Box(y)], [Box(x)], [])]
    return out


class TestEnumeration:
    @pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS)
    def test_equals_the_reference_enumerator(self, system):
        for seq in enumeration_draw(system):
            for depth in range(5):
                assert enumerate_cutfree_interpolants(seq, system, depth) == \
                    reference_enumerate_cutfree_interpolants(seq, system, depth), (format_sequent(seq), depth)

    @pytest.mark.parametrize("seq, system", [
        (sequent([And(p, q)], [], [], [Or(p, q)]), LKMINUS),
        (sequent([Box(And(p, q))], [], [], [Box(Or(p, q))]), K),
    ], ids=["prop3.2", "prop7.1"])
    def test_equals_the_reference_on_the_repro_sequents(self, seq, system):
        out = enumerate_cutfree_interpolants(seq, system, 6)
        assert out and out == reference_enumerate_cutfree_interpolants(seq, system, 6)

    def test_cutfree_incompleteness(self):
        seq = sequent([And(p, q)], [], [], [Or(p, q)])
        out = enumerate_cutfree_interpolants(seq, LKMINUS, 6)
        assert out
        for m in out:
            assert equiv(m, p) or equiv(m, q)

    def test_k_enumeration_contains_boxed_atom(self):
        seq = sequent([Box(And(p, q))], [], [], [Box(Or(p, q))])
        out = enumerate_cutfree_interpolants(seq, K, 6)
        assert any(m == Box(p) for m in out)


def search_draw(system, count=25):
    """Seeded sequents for the cut-free search, from random a, b of depth 3
    (boxed subformulas in a modal system):  a ; => ; b  and  a ; => ; a | b,
    & and | on both sides in  a & b ; => a ;  and  ; a | b => ; b & a,  and
    in a modal system  [](a & b) ; => ; a,  which needs t, and
    []a ; []b => [](a | b) ; ."""
    rng = random.Random(f"search {system.name}")
    out = []
    for _ in range(count):
        a, b = (random_formula(rng, ("p", "q", "r"), 3, system.modal) for _ in range(2))
        out += [sequent([a], [], [], [b]), sequent([a], [], [], [Or(a, b)]),
                sequent([And(a, b)], [], [a]), sequent([], [Or(a, b)], [], [And(b, a)])]
        if system.modal:
            out += [sequent([Box(And(a, b))], [], [], [a]), sequent([Box(a)], [Box(b)], [Box(Or(a, b))])]
    return out


def search_outcome(prove, seq, system):
    """The .prf text of prove's proof of seq, or its exception's type,
    message and countermodel."""
    try:
        return format_proof(prove(seq, system))
    except ConstructError as e:
        return type(e), str(e), getattr(e, "countermodel", None)


class TestSearchDifferential:
    @pytest.mark.parametrize("system", SYSTEMS.values(), ids=SYSTEMS)
    def test_equals_the_hand_built_search(self, system):
        outcomes = set()
        for seq in search_draw(system):
            got = search_outcome(prove_cutfree, seq, system)
            assert got == search_outcome(reference_prove_cutfree, seq, system), format_sequent(seq)
            outcomes.add(type(got))
        assert outcomes == {str, tuple}  # proofs and failures both

    @pytest.mark.parametrize("system", [KT, S4], ids=["kt", "s4"])
    def test_the_draw_unfolds_t(self, system):
        unfolded = [seq for seq in search_draw(system) if any(
            node.rule == "t" for _, node in iter_nodes(try_prove_cutfree(seq, system) or ax(p)))]
        assert len(unfolded) >= 10
