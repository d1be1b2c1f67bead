import operator
import pickle
import random

import pytest

import craig.construct as construct_module
import craig.transform as transform_module
from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Neg,
    Or,
    clause,
    formula_cnf,
    subsumes,
)
from craig.maehara import UnsupportedRule, maehara
from craig.sequent import (
    ACROSS,
    KD4,
    LK,
    LKAT,
    LKLIT,
    LKMINUS,
    LKMONO,
    Proof,
    ProofCheckFailed,
    Violation,
    _drive,
    _folding,
    ax,
    check_proof,
    classify_cut,
    contract,
    cut,
    cut_occurrences,
    direct_ancestors,
    first_index,
    format_proof,
    infer,
    is_tame,
    main_occurrence,
    proof_length,
    rebuild,
    replace_at,
    sequent,
    subproof_at,
    wax,
    weaken,
    weaken_to,
    weight,
)
from craig.transform import (
    NotTame,
    NotTypeR,
    TargetNotNegation,
    delete_occurrence,
    eliminate_cuts,
    is_w_reduced,
    literal_cuts_to_atomic,
    neg_invert,
    w_reduce,
)
from craig.construct import prove_cutfree, realize_clause, realize_interpolant, realize_pruned
from conftest import interpolants, iter_nodes, reference_format_proof, reference_iter_nodes
from test_maehara import reference_maehara
from test_sequent import (
    criterion_draws,
    deep_weakening_proof,
    differential_proofs,
    example_sigma,
    omega_proof,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")


def interp(proof, system=LK):
    return maehara(proof, system).interpolant


class TestNegInvert:
    def test_axiom_case(self):
        proof = ax(Neg(p), "g1", "d2")
        out = neg_invert(proof, "d2", 0)
        assert out.sequentv == sequent([Neg(p)], [p], [], [])
        assert interp(out) == interp(proof) == Neg(p)
        assert proof_length(out) <= 2 * proof_length(proof)

    def test_rneg_main_case(self):
        base = ax(p, "g2", "d2")
        proof = infer("rneg", (base,), Neg(p), "d2")  # ; p => ; p collapses to ; => ; p, ~p
        idx = first_index(proof.sequentv, "d2", Neg(p))
        out = neg_invert(proof, "d2", idx)
        assert out == base

    def test_lor_recursion(self):
        shared = [p, q, Neg(r)]
        left = weaken_to(ax(p, "g1", "d2"), sequent([p], [], [], shared))
        right = weaken_to(ax(q, "g1", "d2"), sequent([q], [], [], shared))
        proof = infer("lor", (left, right), Or(p, q), "g1")
        before = interp(proof)
        idx = first_index(proof.sequentv, "d2", Neg(r))
        out = neg_invert(proof, "d2", idx)
        assert out.sequentv == sequent([Or(p, q)], [r], [], [p, q])
        assert interp(out) == before
        assert proof_length(out) <= 2 * proof_length(proof)

    def test_all_four_positions(self):
        base = {
            "d2": ax(Neg(p), "g1", "d2"),
            "d1": ax(Neg(p), "g1", "d1"),
            "g2": ax(Neg(p), "g2", "d2"),
            "g1": ax(Neg(p), "g1", "d2"),
        }
        duals = {"d2": "g2", "d1": "g1", "g2": "d2", "g1": "d1"}
        for comp, proof in base.items():
            idx = first_index(proof.sequentv, comp, Neg(p))
            out = neg_invert(proof, comp, idx)
            assert p in out.sequentv.comp(duals[comp])
            assert interp(out) == interp(proof)

    def test_contraction_target(self):
        base = weaken(ax(Neg(p), "g1", "d2"), Neg(p), "d2")
        proof = contract(base, Neg(p), "d2")
        idx = first_index(proof.sequentv, "d2", Neg(p))
        out = neg_invert(proof, "d2", idx)
        assert out.sequentv == sequent([Neg(p)], [p], [], [])
        assert interp(out) == interp(proof)

    def test_rejects_non_negation(self):
        with pytest.raises(TargetNotNegation):
            neg_invert(ax(p, "g1", "d2"), "d2", 0)

    def test_random_instances(self):
        # proofs of a ; => ; ~x, rest: invert the negated literal
        rng = random.Random(61)
        from conftest import random_formula
        from craig.construct import try_prove_cutfree

        done = 0
        while done < 40:
            a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
            lits = [Neg(Atom("p")), Atom("q")]
            seq = sequent([a], [], [], lits)
            proof = try_prove_cutfree(seq, LKMINUS)
            if proof is None:
                continue
            done += 1
            idx = first_index(proof.sequentv, "d2", Neg(p))
            out = neg_invert(proof, "d2", idx)
            assert out.sequentv == sequent([a], [p], [], [q])
            assert check_proof(out, LKMINUS) is None
            assert interp(out) == interp(proof)
            assert proof_length(out) <= 2 * proof_length(proof)


class TestLiteralCutsToAtomic:
    def negated_cut_proof(self):
        # a monochromatic cut on ~q inside a proof of p & q ; => ; p
        a = And(p, q)
        left = prove_cutfree(sequent([a], [], [], [p, Neg(q)]), LKMINUS)
        right = prove_cutfree(sequent([a], [Neg(q)], [], [p]), LKMINUS)
        return cut(left, right, Neg(q), 2)

    def test_single_conversion(self):
        proof = self.negated_cut_proof()
        assert check_proof(proof, LKLIT) is None
        assert check_proof(proof, LKAT) is not None
        before = formula_cnf(interp(proof))
        out = literal_cuts_to_atomic(proof)
        assert check_proof(out, LKAT) is None
        assert formula_cnf(interp(out)) == before
        assert proof_length(out) <= 2 * proof_length(proof)
        for _, node in iter_nodes(out):
            if node.rule == "cut":
                assert node.main_formula == q

    def test_fixpoint_on_lkat(self):
        sigma = example_sigma()
        assert literal_cuts_to_atomic(sigma) == sigma

    def test_stacked_negative_cuts(self):
        inner = self.negated_cut_proof()  # p & q ; => ; p
        a = And(p, q)
        left = weaken(inner, Neg(p), "d2")
        right = prove_cutfree(sequent([a], [Neg(p)], [], [p]), LKMINUS)
        proof = cut(left, right, Neg(p), 2)
        before = formula_cnf(interp(proof))
        out = literal_cuts_to_atomic(proof)
        assert check_proof(out, LKAT) is None
        assert formula_cnf(interp(out)) == before
        assert proof_length(out) <= 2 * proof_length(proof)

    def test_realize_clause_output_converts(self):
        proof = realize_clause(Neg(p), clause("~p", "q"))
        out = literal_cuts_to_atomic(proof)
        assert check_proof(out, LKAT) is None
        assert formula_cnf(interp(out)) == formula_cnf(
            interp(proof, LKLIT)
        )


class TestWReduce:
    def test_weakening_below_unary(self):
        inner = infer("lneg", (ax(p, "g2", "d2"),), Neg(p), "g2")
        proof = weaken(inner, q, "d2")
        assert not is_w_reduced(proof)
        out = w_reduce(proof)
        assert is_w_reduced(out)
        assert out.sequentv == proof.sequentv
        assert interp(out) == interp(proof)

    def test_weakening_below_binary_duplicates(self):
        left = weaken_to(ax(p, "g1", "d1"), sequent([p, q], [], [p], []))
        right = weaken_to(ax(q, "g1", "d1"), sequent([p, q], [], [q], []))
        both = infer("rand", (left, right), And(p, q), "d1")
        proof = weaken(both, r, "d1")
        out = w_reduce(proof)
        assert is_w_reduced(out)
        assert out.sequentv == proof.sequentv
        assert interp(out) == interp(proof)
        weakenings = sum(1 for _, n in iter_nodes(out) if n.rule in ("lw", "rw"))
        assert weakenings >= 2

    def test_idempotent(self):
        proof = weaken(infer("lneg", (ax(p, "g2", "d2"),), Neg(p), "g2"), q, "d2")
        out = w_reduce(proof)
        assert w_reduce(out) == out

    def test_fixpoint_on_reduced(self):
        proof = wax(p, sequent([p, q], [], [], [p]), "g1", "d2")
        assert is_w_reduced(proof)
        assert w_reduce(proof) == proof

    def test_preserves_end_sequent_weights(self):
        inner = infer("lneg", (ax(p, "g2", "d2"),), Neg(p), "g2")
        proof = weaken(inner, q, "d2")
        out = w_reduce(proof)
        for comp, idx, f in proof.sequentv.occurrences():
            assert weight(proof, ((), comp, idx)) == weight(out, ((), comp, idx))

    def test_preserves_tameness_and_cut_type(self):
        sigma = example_sigma()
        out = w_reduce(sigma)
        assert check_proof(out, LKAT) is None
        ok, _ = is_tame(out)
        assert ok
        for path, node in iter_nodes(out):
            if node.rule == "cut":
                assert classify_cut(out, path).type_r


class TestDeleteOccurrence:
    def test_weak_cone_removed(self):
        proof = weaken(ax(p, "g1", "d1"), q, "d2")
        out = delete_occurrence(proof, ("d2", 0))
        assert out == ax(p, "g1", "d1")

    def test_weak_cone_through_contraction(self):
        base = weaken(weaken(ax(p, "g1", "d1"), q, "d2"), q, "d2")
        proof = contract(base, q, "d2")
        out = delete_occurrence(proof, ("d2", first_index(proof.sequentv, "d2", q)))
        assert out == ax(p, "g1", "d1")


class TestEliminateCuts:
    def test_sigma(self):
        sigma = example_sigma()
        result = eliminate_cuts(sigma)
        assert check_proof(result.proof, LKMINUS) is None
        assert result.proof.sequentv == sigma.sequentv
        final = formula_cnf(interp(result.proof))
        assert final in (frozenset([clause("p")]), frozenset([clause("q")]))
        target = formula_cnf(interp(sigma, LKAT))
        assert subsumes(target, final)
        assert result.trace

    def test_trace_subsumption_chain(self):
        sigma = example_sigma()
        result = eliminate_cuts(sigma)
        chain = [formula_cnf(interp(sigma, LKAT))]
        chain.extend(step.interpolant_cnf for step in result.trace)
        for x, y in zip(chain, chain[1:]):
            assert subsumes(x, y)

    def test_weak_cut_formula_deleted(self):
        # left cut occurrence introduced by weakening
        left = weaken(weaken_to(ax(p, "g1", "d2"), sequent([p, q], [], [], [p])), q, "d2")
        right = prove_cutfree(sequent([p, q], [q], [], [p]), LKMINUS)
        proof = cut(left, right, q, 2)
        result = eliminate_cuts(proof)
        assert check_proof(result.proof, LKMINUS) is None
        assert [step.kind for step in result.trace] == ["weak-left"]

    def test_cut_free_input_is_identity(self):
        proof = prove_cutfree(sequent([And(p, q)], [], [], [Or(p, q)]), LKMINUS)
        result = eliminate_cuts(w_reduce(proof))
        assert result.trace == ()
        assert result.proof == w_reduce(proof)

    def test_rejects_non_tame(self):
        with pytest.raises(NotTame):
            eliminate_cuts(omega_proof())

    def test_rejects_type_l(self):
        left = weaken(ax(p, "g1", "d1"), p, "d1")
        right = weaken(ax(p, "g1", "d1"), p, "g1")
        proof = cut(left, right, p, 1)
        with pytest.raises(NotTypeR):
            eliminate_cuts(proof)

    def test_composite_monochromatic_cut(self):
        # degree reduction on a conjunction cut whose conjuncts are essential
        c = And(q, r)
        ctx = [c, Neg(q)]
        left_a = prove_cutfree(sequent([], ctx, [], [q]), LKMINUS)
        left_b = prove_cutfree(sequent([], ctx, [], [r]), LKMINUS)
        left = infer("rand", (left_a, left_b), c, "d2")
        right_premise = prove_cutfree(sequent([], ctx + [q], [], []), LKMINUS)
        right = infer("land1", (right_premise,), c, "g2")
        proof = cut(left, right, c, 2)
        assert proof.sequentv == sequent([], ctx, [], [])
        assert check_proof(proof, LKMONO) is None
        result = eliminate_cuts(proof)
        assert check_proof(result.proof, LKMINUS) is None
        kinds = [step.kind for step in result.trace]
        assert "degree" in kinds

    def test_contraction_reduction_step(self):
        # direct check of the contraction case: it rebuilds the same
        # end-sequent and keeps the clause-set interpolant
        from craig.formulas import formula_cnf, subsumes
        from craig.sequent import LKMONO
        from craig.transform import _contract_reduce

        target = sequent([], [And(p, q)], [], [Or(p, r)])
        left = prove_cutfree(target.insert("d2", p), LKMINUS)
        inner = prove_cutfree(sequent([], [p, p, p], [], [Or(p, r)]), LKMINUS)
        stacked = infer("land1", (inner,), And(p, q), "g2")
        right = contract(stacked, p, "g2")
        proof = cut(left, right, p, 2)
        assert check_proof(proof, LKMONO) is None
        replacement = _contract_reduce(proof, on_left=False)
        assert replacement.sequentv == proof.sequentv
        assert check_proof(replacement, LKMONO) is None
        before = formula_cnf(interp(proof))
        after = formula_cnf(interp(replacement))
        assert subsumes(before, after)

    def test_contraction_reduction_step_left(self):
        from craig.formulas import formula_cnf, subsumes
        from craig.sequent import LKMONO
        from craig.transform import _contract_reduce

        target = sequent([], [And(p, q)], [], [Or(p, r)])
        inner = prove_cutfree(target.insert("d2", p).insert("d2", p), LKMINUS)
        left = contract(inner, p, "d2")
        right = prove_cutfree(target.insert("g2", p), LKMINUS)
        proof = cut(left, right, p, 2)
        assert check_proof(proof, LKMONO) is None
        replacement = _contract_reduce(proof, on_left=True)
        assert replacement.sequentv == proof.sequentv
        assert check_proof(replacement, LKMONO) is None
        before = formula_cnf(interp(proof))
        after = formula_cnf(interp(replacement))
        assert subsumes(before, after)

    def test_axiom_against_rule_absorption(self):
        c = And(p, q)
        target = sequent([], [c], [], [p])
        left = wax(c, target.insert("d2", c), "g2", "d2")
        inner = prove_cutfree(sequent([], [c, p], [], [p]), LKMINUS)
        right = infer("land1", (inner,), c, "g2")
        proof = cut(left, right, c, 2)
        assert proof.sequentv == target
        result = eliminate_cuts(proof)
        assert check_proof(result.proof, LKMINUS) is None
        assert "axiom-absorb" in [step.kind for step in result.trace]

    def test_bottom_cut_against_false_axiom(self):
        # false => false axiom on the left, false-axiom on the right
        from craig.formulas import BOTTOM
        from craig.sequent import bot_axiom, wax

        end = sequent([BOTTOM], [], [], [q])
        left = wax(BOTTOM, end.insert("d2", BOTTOM), "g1", "d2")
        right = weaken_to(bot_axiom("g2"), end.insert("g2", BOTTOM))
        proof = cut(left, right, BOTTOM, 2)
        assert check_proof(proof, LKAT) is None
        result = eliminate_cuts(proof)
        assert check_proof(result.proof, LKMINUS) is None
        assert result.proof.sequentv == end

    def test_realized_pipeline_instances(self):
        a, b = And(p, q), Or(p, q)
        cs = frozenset([clause("p"), clause("q")])
        proof = realize_pruned(a, b, cs)
        result = eliminate_cuts(proof)
        assert check_proof(result.proof, LKMINUS) is None
        assert subsumes(cs, formula_cnf(interp(result.proof)))


# ---------------------------------------------------------------------------
# Differential tests against the earlier implementations
# ---------------------------------------------------------------------------

def reference_literal_cuts_to_atomic(p):
    """The rescanning conversion that the one-pass literal_cuts_to_atomic
    replaced: rewrite the deepest negative-literal cut, then scan again."""
    while True:
        targets = [
            (path, node)
            for path, node in reference_iter_nodes(p)
            if node.rule == "cut" and transform_module._is_negative_literal_cut(node.main_formula)
        ]
        if not targets:
            return p
        path, node = max(targets, key=lambda pn: len(pn[0]))
        left_occ, right_occ = cut_occurrences(node)
        left_inv = neg_invert(node.children[0], *left_occ)
        right_inv = neg_invert(node.children[1], *right_occ)
        replacement = cut(right_inv, left_inv, node.main_formula.body, int(node.main_comp[1]))
        p = replace_at(p, path, replacement)


def conversion_inputs(monkeypatch):
    """The proofs conjoin hands to literal_cuts_to_atomic on the criterion 4
    and 5 draws."""
    seen = []
    convert = transform_module.literal_cuts_to_atomic

    def spy(psi):
        seen.append(psi)
        return convert(psi)

    monkeypatch.setattr(construct_module, "literal_cuts_to_atomic", spy)
    classes, pipelines = criterion_draws()
    for a, b, t in classes:
        realize_interpolant(a, b, t, LKAT, cminus_cap=10**6)
    for a, b, cs in pipelines:
        realize_pruned(a, b, cs)
    monkeypatch.undo()
    return seen


class TestReferenceConversion:
    def test_equal_proofs_on_criterion_draws(self, monkeypatch):
        inputs = conversion_inputs(monkeypatch)
        outputs = [literal_cuts_to_atomic(psi) for psi in inputs]
        assert outputs == [reference_literal_cuts_to_atomic(psi) for psi in inputs]
        assert sum(out is not psi for psi, out in zip(inputs, outputs)) > 40

    def test_shared_subproofs_are_rewritten_once(self, monkeypatch):
        calls = []
        occurrences = transform_module.cut_occurrences
        monkeypatch.setattr(
            transform_module, "cut_occurrences", lambda node: calls.append(node) or occurrences(node)
        )
        inner = TestLiteralCutsToAtomic().negated_cut_proof()  # p & q ; => ; p
        left = weaken(inner, q, "d2")
        right = weaken(inner, q, "g2")
        proof = cut(left, right, q, 2)
        out = literal_cuts_to_atomic(proof)
        assert calls == [inner]  # the one negative-literal cut, rewritten once
        assert out.children[0].children[0] is out.children[1].children[0]
        assert out == reference_literal_cuts_to_atomic(proof)

    def test_w_reduction_commutes_with_splicing(self, monkeypatch):
        # at every step, reducing the spliced proof equals splicing the
        # reduced replacement
        replacements = []
        reduce_cut, splice = transform_module._reduce_cut, transform_module.replace_at

        def spy_reduce(chi):
            out = reduce_cut(chi)
            replacements.append(out[0])
            return out

        def spy_splice(p, path, new):
            assert new == w_reduce(replacements[-1])
            out = splice(p, path, new)
            assert out == w_reduce(splice(p, path, replacements[-1]))
            # the same for a replacement that is not w-reduced: a weakening
            # over the cut, contracted away
            chi = subproof_at(p, path)
            comp = "g1" if chi.sequentv.g1 else "g2"
            f = chi.sequentv.comp(comp)[0]
            noisy = contract(weaken(chi, f, comp), f, comp)
            assert w_reduce(noisy) != noisy
            assert splice(p, path, w_reduce(noisy)) == w_reduce(splice(p, path, noisy))
            return out

        monkeypatch.setattr(transform_module, "_reduce_cut", spy_reduce)
        monkeypatch.setattr(transform_module, "replace_at", spy_splice)
        _, pipelines = criterion_draws()
        for a, b, cs in pipelines:
            eliminate_cuts(realize_pruned(a, b, cs))
        eliminate_cuts(example_sigma())
        assert len(replacements) > 30


def reference_invert(node, occ, made):
    """neg_invert as it was before the memo: recursive, and made again for
    each parent that reaches a subproof; made lists each (node, occ)."""
    made.append((node, occ))
    comp, idx = occ
    nf = node.sequentv.comp(comp)[idx]
    a = nf.body
    dual = ACROSS[comp]
    rule = node.rule
    if rule == "ax":
        return transform_module._axiom_inversion(node, comp)
    if rule == "bot":
        raise transform_module.TransformError("a negation cannot occur in a false-axiom")
    if main_occurrence(node) == occ:
        if rule == "rneg" and comp in ("d1", "d2"):
            return node.children[0]
        if rule == "lneg" and comp in ("g1", "g2"):
            return node.children[0]
        if rule in ("lw", "rw"):
            return weaken(node.children[0], a, dual)
        if rule in ("lc", "rc"):
            child = node.children[0]
            step1 = reference_invert(child, (comp, first_index(child.sequentv, comp, nf)), made)
            step2 = reference_invert(step1, (comp, first_index(step1.sequentv, comp, nf)), made)
            return contract(step2, a, dual)
        raise transform_module.TransformError(f"rule {rule} cannot introduce the negation {nf!r}")
    return rebuild(node, [
        reference_invert(child, direct_ancestors(node, ci, occ)[0], made)
        for ci, child in enumerate(node.children)
    ])


def unshared_conversion(p, made):
    """literal_cuts_to_atomic over reference_invert: one bottom-up pass
    whose inversions share nothing."""

    def step(node, kids):
        if node.rule == "cut" and transform_module._is_negative_literal_cut(node.main_formula):
            left_occ, right_occ = cut_occurrences(node)
            return cut(reference_invert(kids[1], right_occ, made), reference_invert(kids[0], left_occ, made),
                       node.main_formula.body, int(node.main_comp[1]))
        if all(map(operator.is_, kids, node.children)):
            return node
        return Proof(node.rule, node.sequentv, tuple(kids), node.main_comp, node.main_formula)

    return _drive(_folding, p, step)


class TestSharedInversions:
    """literal_cuts_to_atomic inverts each (subproof, occurrence) once per
    call, and gives the proof that the unshared inversions gave: the same
    verbose .prf text, which copies each shared subproof."""

    def test_each_inversion_is_made_once_per_call(self, monkeypatch):
        inputs = conversion_inputs(monkeypatch)
        made = []
        real = transform_module._inversion
        monkeypatch.setattr(transform_module, "_inversion", lambda node, occ: made.append((node, occ)) or real(node, occ))
        shared = unshared = 0
        for psi in inputs:
            made.clear()
            out = literal_cuts_to_atomic(psi)
            # made holds every node it names, so no two of them share an id
            keys = [(id(node), occ) for node, occ in made]
            assert len(keys) == len(set(keys))
            shared += len(keys)
            again = []
            assert reference_format_proof(out) == reference_format_proof(unshared_conversion(psi, again))
            unshared += len(again)
        assert unshared > shared > 1_000

    def test_a_subproof_under_two_parents_is_inverted_once(self):
        inner = weaken(infer("lneg", (ax(q, "g2", "d2"),), Neg(q), "g2"), r, "g2")  # ; q, r, ~q => ;
        both = infer("rand", (weaken(inner, p, "d2"), weaken(inner, q, "d2")), And(p, q), "d2")
        assert both.sequentv == sequent([], [q, r, Neg(q)], [], [And(p, q)])
        out = neg_invert(both, "g2", 2)
        left, right = out.children
        assert left.children[0] is right.children[0]
        assert left.children[0].sequentv == sequent([], [q, r], [], [q])
        unshared = reference_invert(both, ("g2", 2), [])
        assert unshared.children[0].children[0] is not unshared.children[1].children[0]
        assert reference_format_proof(out) == reference_format_proof(unshared)


class TestWReduceIdentity:
    def test_reduced_proof_is_kept(self):
        sigma = w_reduce(example_sigma())
        assert w_reduce(sigma) is sigma

    def test_only_changed_branches_are_rebuilt(self):
        left = weaken(ax(p, "g1", "d1"), q, "g1")  # p, q => p, already reduced
        contracted = contract(weaken(ax(q, "g1", "d1"), q, "g1"), q, "g1")
        right = weaken(contracted, p, "g1")  # p, q => q, weakening over lc
        proof = infer("rand", (left, right), And(p, q), "d1")
        out = w_reduce(proof)
        assert is_w_reduced(out) and not is_w_reduced(proof)
        assert out.children[0] is left
        assert out.children[1] is not right

    def test_shared_subproof_is_reduced_once(self):
        noisy = weaken(infer("lneg", (ax(p, "g2", "d2"),), Neg(p), "g2"), q, "d2")  # ; ~p => ; q
        proof = infer("rand", (noisy, noisy), And(q, q), "d2")
        out = w_reduce(proof)
        assert is_w_reduced(out) and out.sequentv == proof.sequentv
        assert out.children[0] is out.children[1]


class TestDeepProofs:
    def test_deep_weakening_proof_is_kept(self, shallow_stack):
        proof = deep_weakening_proof()
        assert literal_cuts_to_atomic(proof) is proof

    def test_deep_weakening_chain_is_kept_by_w_reduce(self, shallow_stack):
        proof = ax(p, "g1", "d1")
        for _ in range(10_000):
            proof = weaken(proof, p, "g1")
        assert w_reduce(proof) is proof
        assert literal_cuts_to_atomic(proof) is proof

    def test_w_reduce_lifts_a_weakening_through_a_deep_contraction_chain(self, shallow_stack):
        """An lw of q over 3,000 lc of p over 3,000 lw of p over ax(p): the
        weakening is lifted through every contraction, one step each."""
        proof = ax(p, "g1", "d1")
        for _ in range(3_000):
            proof = weaken(proof, p, "g1")
        weakenings = proof
        for _ in range(3_000):
            proof = contract(proof, p, "g1")
        proof = weaken(proof, q, "g1")
        with pytest.raises(RecursionError):
            reference_push_weakening(proof)
        out = w_reduce(proof)
        assert out.sequentv == proof.sequentv and is_w_reduced(out)
        assert check_proof(out, LKMINUS) is None
        assert subproof_at(out, (0,) * 3_000) == weaken(weakenings, q, "g1")
        assert [subproof_at(out, (0,) * i).rule for i in (0, 2_999, 3_000, 3_001)] == ["lc", "lc", "lw", "lw"]

    def test_deep_cut_chain(self, shallow_stack):
        levels = 2_500  # a cut and a weakening per level: 5,000 deep
        side = weaken(ax(p, "g2", "d2"), Neg(q), "g2")  # ; p, ~q => ; p
        proof = ax(p, "g2", "d2")
        for _ in range(levels):
            proof = cut(weaken(proof, Neg(q), "d2"), side, Neg(q), 2)
        assert len(list(iter_nodes(proof))) == 4 * levels + 1
        with pytest.raises(RecursionError):
            reference_literal_cuts_to_atomic(proof)
        out = literal_cuts_to_atomic(proof)
        assert out.sequentv == proof.sequentv
        cuts = [node.main_formula for _, node in iter_nodes(out) if node.rule == "cut"]
        assert cuts == [q] * levels
        assert check_proof(out, LKAT) is None

    def test_neg_invert_through_a_deep_chain(self, shallow_stack):
        """~p is a context occurrence of each of 5,000 alternating lw/lc
        steps on p, over an rneg that introduces it."""
        leaf = weaken(infer("rneg", (ax(p, "g1", "d1"),), Neg(p), "d1"), p, "g1")  # p ; => p, ~p ;
        proof = deep_weakening_proof(5_000, leaf=leaf)
        assert proof.sequentv == sequent([p], [], [p, Neg(p)], [])
        with pytest.raises(RecursionError):
            reference_invert(proof, ("d1", 1), [])
        out = neg_invert(proof, "d1", 1)
        assert out.sequentv == sequent([p, p], [], [p], [])
        assert check_proof(out, LKMINUS) is None
        assert sum(1 for _ in iter_nodes(out)) == 5_002

    def test_delete_occurrence_down_a_deep_chain(self, shallow_stack):
        """The weak q of an rw of q over ax(p) is a context occurrence of
        each of 3,000 alternating lw/lc steps on p; deleting it rebuilds the
        chain over ax(p)."""
        proof = deep_weakening_proof(3_000, leaf=weaken(ax(p, "g1", "d1"), q, "d1"))
        occ = ("d1", first_index(proof.sequentv, "d1", q))
        out = delete_occurrence(proof, occ)
        assert out == deep_weakening_proof(3_000)
        assert check_proof(out, LKMINUS) is None

    def test_a_negative_literal_cut_over_a_deep_chain(self, shallow_stack):
        """The right premise carries the cut's ~p down 20,000 lw/lc steps,
        so the conversion inverts the whole chain."""
        chain = infer("lneg", (weaken(ax(p, "g2", "d2"), p, "d2"),), Neg(p), "g2")  # ; p, ~p => ; p
        for i in range(20_000):
            chain = weaken(chain, p, "g2") if i % 2 == 0 else contract(chain, p, "g2")
        left = infer("rneg", (weaken(ax(p, "g2", "d2"), p, "g2"),), Neg(p), "d2")  # ; p => ; p, ~p
        proof = cut(left, chain, Neg(p), 2)
        assert check_proof(proof, LKLIT) is None
        out = literal_cuts_to_atomic(proof)
        assert out.sequentv == proof.sequentv and out.main_formula == p
        assert check_proof(out, LKAT) is None
        assert sum(1 for _ in iter_nodes(out)) == 20_000 + 5


# ---------------------------------------------------------------------------
# Stored step facts against the whole-proof scans they replaced
# ---------------------------------------------------------------------------

def fresh_interpolant(p, system=LK):
    """The root interpolant from the recursive annotation, which reads no
    stored fact."""
    return dict(reference_maehara(p, system))[()]


def scanned_uppermost_cut(p):
    """The deepest cut, the leftmost of the deepest ones, by a full scan."""
    cuts = [path for path, node in iter_nodes(p) if node.rule == "cut"]
    if not cuts:
        return None
    return max(cuts, key=lambda path: (len(path), tuple(-i for i in path)))


def scanned_heights(p):
    """path: (height, first) of every node, from a full scan of the cut
    paths: each cut is a candidate for every node on its path."""
    best = {path: None for path, _ in iter_nodes(p)}
    for path, node in iter_nodes(p):
        if node.rule == "cut":
            for k in range(len(path) + 1):
                key = (len(path) - k, tuple(-i for i in path[k:]))
                if best[path[:k]] is None or key > best[path[:k]]:
                    best[path[:k]] = key
    return {
        path: (-1, None) if key is None else (key[0], -key[1][0] if key[1] else None)
        for path, key in best.items()
    }


def reference_push_weakening(w):
    """The recursive shift of one weakening that w_reduce's steps replaced."""
    child = w.children[0]
    if child.rule in ("lw", "rw", "ax", "bot"):
        return w
    return rebuild(child, [reference_push_weakening(weaken(gk, w.main_formula, w.main_comp))
                           for gk in child.children])


def reference_eliminate_cuts(p):
    """The step loop before the stored facts, on a proof that passed the
    input checks: every step annotates the whole proof afresh, finds the
    uppermost cut by a full scan, reduces without reading w-reduced marks
    and lists the new cuts by a full scan of the replacement."""

    def reduce_all(proof):
        def step(node, kids):
            if not all(map(operator.is_, kids, node.children)):
                node = rebuild(node, kids)
            return reference_push_weakening(node) if node.rule in ("lw", "rw") else node

        return _drive(_folding, proof, step)

    p = reduce_all(p)
    trace = []
    while True:
        path = scanned_uppermost_cut(p)
        if path is None:
            return transform_module.CutEliminationResult(p, tuple(trace))
        old_info = classify_cut(p, path)
        replacement, kind = transform_module._reduce_cut(subproof_at(p, path))
        p = replace_at(p, path, reduce_all(replacement))
        new_cuts = tuple(
            (info.degree, info.weight)
            for info in (classify_cut(replacement, sub_path)
                         for sub_path, node in iter_nodes(replacement) if node.rule == "cut")
        )
        trace.append(transform_module.TraceStep(
            kind, path, old_info.degree, old_info.weight, new_cuts,
            formula_cnf(fresh_interpolant(p)),
        ))


def two_clause_product(k):
    """a = b = (p0 | p1) & ... & (p{2k-2} | p{2k-1}) with its own pruned
    clause set, realized."""
    from craig.formulas import prune

    a = None
    for i in range(k):
        c = Or(Atom(f"p{2 * i}"), Atom(f"p{2 * i + 1}"))
        a = c if a is None else And(a, c)
    return realize_pruned(a, a, prune(formula_cnf(a)))


def stepped_inputs():
    """Realized proofs whose cut elimination takes many steps: the
    criterion-5 draws, sigma and the 4-atom product."""
    _, pipelines = criterion_draws()
    return [realize_pruned(a, b, cs) for a, b, cs in pipelines] + [
        example_sigma(), two_clause_product(2)]


class TestStoredStepFacts:
    def test_same_trace_and_proof_as_the_rescanning_loop(self):
        steps = 0
        for realized in stepped_inputs():
            got = eliminate_cuts(realized)
            want = reference_eliminate_cuts(pickle.loads(pickle.dumps(realized)))
            assert got.trace == want.trace
            assert format_proof(got.proof) == format_proof(want.proof)
            steps += len(got.trace)
        assert steps > 250

    def test_stored_interpolants_equal_a_fresh_annotation(self):
        serial = 0
        for proof in differential_proofs():
            ann = maehara(proof, KD4)
            fresh = interpolants(maehara(pickle.loads(pickle.dumps(proof)), KD4))
            assert interpolants(ann) == fresh
            stored = 0
            for (path, node), (_, c) in zip(iter_nodes(proof), fresh):
                if "_interpolant" in node.__dict__:
                    assert node.__dict__["_interpolant"] == c
                    stored += 1
            if all(node.rule != "d" for _, node in iter_nodes(proof)):
                assert stored == len(fresh)  # every node of a frozen proof
                assert maehara(proof, KD4).notes == {}  # a second call walks nothing
            else:
                # the seriality rule is checked against the system on every call
                serial += 1
                with pytest.raises(UnsupportedRule):
                    maehara(proof, LK)
        assert serial

    def test_stored_heights_equal_the_full_scan(self, monkeypatch):
        checked = []
        uppermost = transform_module._uppermost_cut

        def spy(p):
            got = uppermost(p)
            assert got == scanned_uppermost_cut(p)
            want = scanned_heights(p)
            for path, node in iter_nodes(p):
                assert node.__dict__["_cut_height"] == want[path]
                checked.append(path)
            return got

        monkeypatch.setattr(transform_module, "_uppermost_cut", spy)
        for realized in stepped_inputs():
            eliminate_cuts(realized)
        assert len(checked) > 10_000

    def test_marked_subproofs_are_w_reduced(self, monkeypatch):
        spliced = []
        splice = transform_module.replace_at

        def spy(p, path, new):
            spliced.append(new)
            return splice(p, path, new)

        monkeypatch.setattr(transform_module, "replace_at", spy)
        finals = [eliminate_cuts(realized).proof for realized in stepped_inputs()]
        marked = 0
        for proof in finals + spliced:
            for _, node in iter_nodes(proof):
                if node.__dict__.get("_w_reduced"):
                    assert is_w_reduced(node)
                    marked += 1
        assert marked > 10_000
        # w_reduce marks every node it returns
        assert all(node._w_reduced for proof in spliced for _, node in iter_nodes(proof))

    def test_w_reduce_stops_at_marked_subproofs(self, monkeypatch):
        reduced = w_reduce(example_sigma())
        assert all(node.__dict__.get("_w_reduced") for _, node in iter_nodes(reduced))
        left = w_reduce(prove_cutfree(sequent([And(p, q)], [], [p], []), LKMINUS))
        right = w_reduce(prove_cutfree(sequent([And(p, q)], [], [q], []), LKMINUS))
        pair = infer("rand", (left, right), And(p, q), "d1")
        walked = []
        mark = transform_module._marked
        monkeypatch.setattr(transform_module, "_marked", lambda node: walked.append(node) or mark(node))
        assert w_reduce(reduced) is reduced
        assert walked == []
        assert w_reduce(pair) is pair
        assert walked == [pair]  # the premises are marked, so only the new root is walked
        assert pair.__dict__["_w_reduced"]

    def test_a_proof_built_from_lists_stores_its_step_facts(self):
        proof = example_sigma()
        listed = Proof(proof.rule, proof.sequentv, list(proof.children),
                       proof.main_comp, proof.main_formula)
        result = eliminate_cuts(listed)
        assert result == eliminate_cuts(example_sigma())
        assert LK in listed._passed
        # the last step's walks reach every node of the result
        for _, node in iter_nodes(result.proof):
            assert {"_interpolant", "_cut_height", "_passed"} <= set(vars(node))

    def test_invalid_result_is_an_internal_error(self, monkeypatch):
        def fake(proof, system):
            return Violation((), "injected") if system is LKMINUS else check_proof(proof, system)

        monkeypatch.setattr(transform_module, "check_proof", fake)
        with pytest.raises(ProofCheckFailed, match="injected"):
            eliminate_cuts(example_sigma())
