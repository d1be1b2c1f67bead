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
    equiv,
    format_formula,
    formula_cnf,
    formula_length,
)
from craig.formulas import vars_of
import craig.maehara as maehara_module
from craig.maehara import (
    InterpolationError,
    NonMonochromaticCut,
    UnsupportedRule,
    axiom_interpolant,
    combine,
    format_annotated,
    is_nnf_interpolant,
    maehara,
)
from craig.construct import verify_interpolant
from craig.sequent import (
    K,
    KD4,
    LK,
    LKAT,
    LKMINUS,
    Proof,
    System,
    ax,
    bot_axiom,
    check_proof,
    cut,
    format_proof,
    format_sequent,
    infer,
    jump,
    parse_sequent,
    proof_length,
    sequent,
    weaken,
)
from conftest import distinct_nodes, interpolants, iter_nodes
from test_sequent import differential_proofs, example_sigma, modal_proofs, passing_system, width_two_product

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestAxioms:
    def test_axiom_table(self):
        assert maehara(ax(p, "g1", "d1"), LKMINUS).interpolant == BOTTOM
        assert maehara(ax(p, "g2", "d2"), LKMINUS).interpolant == TOP
        assert maehara(ax(p, "g1", "d2"), LKMINUS).interpolant == p
        assert maehara(ax(p, "g2", "d1"), LKMINUS).interpolant == Neg(p)
        assert maehara(bot_axiom("g1"), LKMINUS).interpolant == BOTTOM
        assert maehara(bot_axiom("g2"), LKMINUS).interpolant == TOP

    def test_boxed_axiom_table(self):
        f = Box(And(p, q))
        assert maehara(ax(f, "g1", "d2"), K).interpolant == f
        assert maehara(ax(f, "g2", "d1"), K).interpolant == Neg(f)


class TestWorkedExample:
    def test_sigma_interpolant(self):
        sigma = example_sigma()
        ann = maehara(sigma, LKAT)
        assert ann.interpolant == And(q, And(p, TOP))
        assert equiv(ann.interpolant, And(p, q))

    def test_length_bound(self):
        sigma = example_sigma()
        assert formula_length(maehara(sigma, LKAT).interpolant) <= proof_length(sigma)


class TestOneSidedPartitions:
    def test_everything_left(self):
        from craig.construct import prove_cutfree

        proof = prove_cutfree(sequent([And(p, q)], [], [Or(p, q)], []), LKMINUS)
        m = maehara(proof, LKMINUS).interpolant
        assert formula_cnf(m) == frozenset([frozenset()])

    def test_everything_right(self):
        from craig.construct import prove_cutfree

        proof = prove_cutfree(sequent([], [And(p, q)], [], [Or(p, q)]), LKMINUS)
        m = maehara(proof, LKMINUS).interpolant
        assert formula_cnf(m) == frozenset()


class TestCutCases:
    def test_type_r_cut_conjoins(self):
        left = weaken(ax(p, "g1", "d2"), p, "d2")
        right = weaken(ax(p, "g1", "d2"), p, "g2")
        proof = cut(left, right, p, 2)
        m = maehara(proof, LKAT)
        assert isinstance(m.interpolant, And)

    def test_type_l_cut_disjoins(self):
        left = weaken(ax(p, "g1", "d1"), p, "d1")
        right = weaken(ax(p, "g1", "d1"), p, "g1")
        proof = cut(left, right, p, 1)
        m = maehara(proof, LKAT)
        assert isinstance(m.interpolant, Or)

    def test_non_monochromatic_placement_rejected(self):
        left = weaken(ax(p, "g1", "d1"), q, "d2")
        right = weaken(ax(p, "g1", "d1"), q, "g2")
        proof = cut(left, right, q, 2)
        with pytest.raises(NonMonochromaticCut):
            maehara(proof, LK)


class TestClauseTargets:
    def test_single_clause_form(self):
        # cut-free proofs of a ; => ; l1 .. ln have single-clause interpolants
        from craig.construct import prove_cutfree

        cases = [
            (And(p, q), [p]),
            (And(p, q), [q]),
            (Or(And(p, q), r), [p, r]),
            (p, [p, q]),
        ]
        for a, lits in cases:
            proof = prove_cutfree(sequent([a], [], [], lits), LKMINUS)
            m = maehara(proof, LKMINUS).interpolant
            out = formula_cnf(m)
            assert len(out) == 1
            (clause_,) = out
            assert clause_ <= frozenset(lits)


def k_over_land1(dcomp):
    """[](p & q) => []p by k over land1, p and []p in component dcomp."""
    premise = infer("land1", (ax(p, "g1", dcomp),), And(p, q), "g1")
    return jump("k", premise, sequent([Box(And(p, q))]).insert(dcomp, Box(p)))


class TestModalCases:
    def test_k_right_side(self):
        proof = k_over_land1("d2")
        ann = maehara(proof, K)
        assert ann.interpolant == Box(p)
        assert verify_interpolant(Box(And(p, q)), Box(p), ann.interpolant, K)

    def test_k_left_side(self):
        proof = k_over_land1("d1")
        ann = maehara(proof, K)
        assert ann.interpolant == Neg(Box(Neg(BOTTOM)))

    def test_nnf_shape(self):
        proof = k_over_land1("d2")
        assert is_nnf_interpolant(maehara(proof, K).interpolant)


class TestVerify:
    def test_propositional(self):
        assert verify_interpolant(And(p, q), Or(p, q), p, LKAT)
        assert not verify_interpolant(And(p, q), Or(p, q), r, LKAT)

    def test_modal(self):
        a, b = Box(And(p, q)), Box(Or(p, q))
        assert verify_interpolant(a, b, And(Box(p), Box(q)), K)
        assert verify_interpolant(a, b, a, K)
        assert not verify_interpolant(a, b, Box(r), K)


class TestSoundnessSweep:
    def test_random_cutfree_proofs(self):
        from conftest import random_formula
        from craig.construct import prove_cutfree, try_prove_cutfree

        rng = random.Random(53)
        done = 0
        while done < 60:
            a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
            b = random_formula(rng, atoms=("q", "r", "s"), depth=3)
            proof = try_prove_cutfree(sequent([a], [], [], [b]), LKMINUS)
            if proof is None:
                continue
            done += 1
            ann = maehara(proof, LKMINUS)
            assert verify_interpolant(a, b, ann.interpolant, LKMINUS)
            assert is_nnf_interpolant(ann.interpolant)
            assert formula_length(ann.interpolant) <= proof_length(proof)

    def test_annotated_output_mentions_root(self):
        from craig.construct import prove_cutfree

        sigma = example_sigma()
        text = format_annotated(maehara(sigma, LKAT))
        assert text.strip().endswith("q & (p & true)")
        # 1,601 nodes, one line each, every interpolant read by its path
        names = [f"c{i:03}" for i in range(400)]
        wide = parse_sequent(" & ".join(names) + " ; => ; " + " | ".join(names))
        for proof, system in ((sigma, LKAT), (prove_cutfree(wide, LKMINUS), LKMINUS)):
            ann = maehara(proof, system)
            by_path = dict(interpolants(ann))
            want = [
                f"{'  ' * len(path)}{node.rule}: {format_sequent(node.sequentv)} @ "
                f"{format_formula(by_path[path])}"
                for path, node in iter_nodes(proof)
            ]
            assert format_annotated(ann) == "\n".join(want + [format_formula(by_path[()])]) + "\n"
        # the k = 3 product shares subproofs, each printed once and then
        # named @n; a d rule and the nodes below it store their
        # interpolants like every other node
        shared = width_two_product(3)
        serial = modal_proofs()[1]  # rneg over d
        assert [serial.rule, serial.children[0].rule] == ["rneg", "d"]
        for proof, system in ((shared, LKAT), (serial, KD4)):
            ann = maehara(proof, system)
            text = format_annotated(ann)
            assert text == reference_format_annotated(ann)
            assert text.count("\n") == distinct_nodes(proof) + format_proof(proof).count("@") + 1
        assert format_proof(shared).count("@") > 0
        assert all("_interpolant" in node.__dict__ for _, node in iter_nodes(serial))


def reference_format_annotated(ann):
    """format_annotated from a walk of its own: each distinct node once in
    preorder, with the interpolant it stores, and a node met again as @n,
    n its position in that order."""
    lines, first, stack = [], {}, [(0, ann.proof)]
    while stack:
        depth, node = stack.pop()
        if id(node) in first:
            lines.append("  " * depth + f"@{first[id(node)]}")
            continue
        first[id(node)] = len(first)
        c = node.__dict__["_interpolant"]
        lines.append(f"{'  ' * depth}{node.rule}: {format_sequent(node.sequentv)} @ {format_formula(c)}")
        stack.extend((depth + 1, child) for child in reversed(node.children))
    return "\n".join(lines + [format_formula(ann.interpolant)]) + "\n"


def reference_maehara(p, system):
    """The recursive annotation that maehara replaced: (path, interpolant)
    pairs in path order."""
    notes = []

    def go(node, path):
        rule = node.rule
        if rule == "ax":
            c = axiom_interpolant(node.sequentv)
        elif rule == "bot":
            c = BOTTOM if node.sequentv.g1 else TOP
        elif rule in ("lw", "rw", "lc", "rc", "land1", "land2", "ror1", "ror2",
                      "lneg", "rneg", "t"):
            c = go(node.children[0], path + (0,))
        elif rule in ("rand", "lor"):
            left = go(node.children[0], path + (0,))
            right = go(node.children[1], path + (1,))
            c = Or(left, right) if node.main_comp in ("d1", "g1") else And(left, right)
        elif rule == "cut":
            side = int(node.main_comp[1])
            v = vars_of(node.main_formula)
            if not (v <= node.sequentv.side_vars(1) or v <= node.sequentv.side_vars(2)):
                raise NonMonochromaticCut("non-monochromatic cut")
            left = go(node.children[0], path + (0,))
            right = go(node.children[1], path + (1,))
            c = Or(left, right) if side == 1 else And(left, right)
        elif rule in ("k", "4"):
            inner = go(node.children[0], path + (0,))
            c = Box(inner) if node.main_comp == "d2" else Neg(Box(Neg(inner)))
        elif rule in ("d", "d4"):
            if not ({"k", "4"} & system.modal_rules):
                raise UnsupportedRule("seriality without a box-introducing rule")
            c = Box(go(node.children[0], path + (0,)))
        else:
            raise UnsupportedRule(f"no interpolation case for rule {rule!r}")
        notes.append((path, c))
        return c

    go(p, ())
    return tuple(sorted(notes))


class TestReferenceAnnotation:
    def test_same_interpolant_at_every_node(self):
        # each proof under the first system that checks it
        for proof in differential_proofs():
            system = passing_system(proof)
            assert interpolants(maehara(proof, system)) == reference_maehara(proof, system)

    def test_same_first_failure(self):
        # two offending cuts: the one first in preorder is reported
        bad = cut(weaken(ax(p, "g1", "d1"), q, "d2"), weaken(ax(p, "g1", "d1"), q, "g2"), q, 2)
        worse = cut(weaken(bad, r, "d2"), weaken(bad, r, "g2"), r, 2)
        for proof in (bad, worse):
            with pytest.raises(NonMonochromaticCut) as got:
                maehara(proof, LK)
            assert f"cut on {proof.main_formula!r}" in str(got.value)
            with pytest.raises(NonMonochromaticCut):
                reference_maehara(proof, LK)


SERIAL = System("serial", frozenset({"d"}), "modal-atomic")  # seriality with no box-introducing rule


def unfit_lw():
    """A "proof" of the invalid p ; => ; q whose premise r => r does not
    fit its lw."""
    return Proof("lw", sequent([p], [], [], [q]), (ax(r),), "g1", p)


def serial_proof():
    """A kd4 proof of []p, []~p => that holds d or d4."""
    from craig.construct import prove_cutfree

    proof = prove_cutfree(sequent([Box(p), Box(Neg(p))]), KD4)
    assert {node.rule for _, node in iter_nodes(proof)} & {"d", "d4"}
    return proof


class TestContract:
    """maehara interpolates only proofs that check_proof passes under its
    system, and every node it walks stores its interpolant."""

    @pytest.mark.parametrize("proof, system", [
        (unfit_lw(), LKMINUS), (unfit_lw(), LK), (k_over_land1("d2"), KD4),
    ], ids=["lw-lk-minus", "lw-lk", "k-under-kd4"])
    def test_an_unfit_proof_is_refused_with_its_violation(self, proof, system):
        bad = check_proof(proof, system)
        assert bad is not None
        with pytest.raises(InterpolationError) as got:
            maehara(proof, system)
        assert system.name in str(got.value)
        assert f"violation at {list(bad.path)}: {bad.reason}" in str(got.value)
        assert "_interpolant" not in proof.__dict__

    def test_stored_interpolants_do_not_outlive_a_check(self):
        sigma = example_sigma()
        assert check_proof(sigma, LKMINUS) is not None  # sigma has cuts
        ann = maehara(sigma, LK)
        assert all("_interpolant" in node.__dict__ for _, node in iter_nodes(sigma))
        for _ in range(2):
            with pytest.raises(InterpolationError, match="violates the lk-minus policy"):
                maehara(sigma, LKMINUS)
        assert maehara(sigma, LKAT).interpolant == ann.interpolant

    @pytest.mark.parametrize("proof", [ax(p), serial_proof()], ids=["ax", "kd4"])
    def test_seriality_without_a_box_introducing_rule_is_refused(self, proof):
        with pytest.raises(UnsupportedRule, match="seriality rule of serial"):
            maehara(proof, SERIAL)

    def test_every_node_stores_its_interpolant_and_a_second_call_combines_none(self, monkeypatch):
        calls = []

        def counted(rule, comp, parts):
            calls.append(rule)
            return combine(rule, comp, parts)

        monkeypatch.setattr(maehara_module, "combine", counted)
        proof = serial_proof()
        ann = maehara(proof, KD4)
        assert calls and {"d", "d4"} & set(calls)
        assert all("_interpolant" in node.__dict__ for _, node in iter_nodes(proof))
        assert interpolants(ann) == reference_maehara(proof, KD4)
        calls.clear()
        assert maehara(proof, KD4).interpolant is ann.interpolant
        assert calls == []
