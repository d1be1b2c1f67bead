
import copy
import dataclasses
import gc
import importlib
import pickle
import random
import re
import sys
import threading
from collections import Counter
from functools import lru_cache

import pytest

from craig.formulas import (
    And, Atom, BOTTOM, Box, Formula, FormulaError, Neg, Or, ParseError, TOP, eval_formula,
    format_formula, vars_of,
)
from craig.resolution import ResolutionError
from craig.sequent import (
    COMPONENTS,
    K,
    K4,
    KD4,
    KT,
    LK,
    LKAT,
    LKLIT,
    LKMINUS,
    LKMONO,
    MODAL_JUMPS,
    Proof,
    RULE_SCHEMA,
    RULES,
    SYSTEMS,
    ProofError,
    Sequent,
    AxiomInfo,
    Violation,
    ax,
    axiom_kind,
    axiom_type,
    bot_axiom,
    check_proof,
    classify_cut,
    contract,
    cut,
    cut_occurrences,
    direct_ancestors,
    expected_premises,
    first_node,
    format_proof,
    format_proof_text,
    format_sequent,
    infer,
    is_tame,
    is_weak,
    jump,
    jump_premise,
    main_occurrence,
    monochromatize,
    parse_proof,
    parse_sequent,
    premise_aux,
    proof_depth,
    proof_length,
    proof_size,
    rebuild,
    replace_at,
    respects_subformula_property,
    sequent,
    subproof_at,
    system_by_name,
    wax,
    weaken,
    weaken_to,
    weight,
)
from conftest import (
    assignments_over,
    distinct_nodes,
    interpolants,
    iter_nodes,
    random_formula,
    reference_format_proof,
    reference_iter_nodes,
    reference_premise_aux,
)

p, q, r = Atom("p"), Atom("q"), Atom("r")
# the module itself: the package exports a function of the same name
sequent_module = importlib.import_module("craig.sequent")
pq = And(p, q)
porq = Or(p, q)


def example_sigma():
    """Atomic-cut proof of p & q ; => ; p | q with interpolant q & (p & true)."""
    pi1 = infer("land1", (ax(p, "g1", "d2"),), pq, "g1")
    pi2 = infer("land2", (ax(q, "g1", "d2"),), pq, "g1")
    leaf = infer("ror1", (weaken(ax(p, "g2", "d2"), q, "g2"),), porq, "d2")
    left_inner = weaken_to(pi1, sequent([pq], [q], [], [p, porq]))
    right_inner = weaken_to(leaf, sequent([pq], [p, q], [], [porq]))
    inner = cut(left_inner, right_inner, p, 2)
    left_outer = weaken_to(pi2, sequent([pq, pq], [], [], [q, porq]))
    right_outer = weaken_to(inner, sequent([pq, pq], [q], [], [porq]))
    outer = cut(left_outer, right_outer, q, 2)
    return contract(outer, pq, "g1")


def omega_proof():
    """Monochromatic two-cut proof of ;p,q => ;q fed from both occurrences
    of one axiom ;p => ;p, so that axiom has type omega."""
    n = ax(p, "g2", "d2")
    n2 = infer("rneg", (n,), Neg(p), "d2")
    c1 = sequent([], [p, q], [], [p, q])
    l1 = weaken_to(n2, sequent([], [p, q], [], [p, q, Neg(p)]))
    r1 = weaken_to(ax(q, "g2", "d2"), sequent([], [p, q, Neg(p)], [], [p, q]))
    cut1 = cut(l1, r1, Neg(p), 2)
    assert cut1.sequentv == c1
    y = weaken_to(ax(q, "g2", "d2"), sequent([], [p, p, q], [], [q]))
    return cut(cut1, y, p, 2)


class TestConstructionAndChecking:
    def test_sigma_checks_in_lkat(self):
        sigma = example_sigma()
        assert sigma.sequentv == sequent([pq], [], [], [porq])
        assert check_proof(sigma, LKAT) is None
        assert check_proof(sigma, LKLIT) is None
        assert check_proof(sigma, LKMONO) is None
        assert check_proof(sigma, LK) is None
        v = check_proof(sigma, LKMINUS)
        assert v is not None and "cut" in v.reason

    def test_composite_cut_rejected_in_lkat(self):
        left = weaken(ax(pq, "g1", "d2"), pq, "d2")
        right = weaken(ax(pq, "g2", "d2"), pq, "g1")
        proof = cut(left, right, pq, 2)
        assert check_proof(proof, LK) is None
        v = check_proof(proof, LKAT)
        assert v is not None and "policy" in v.reason
        # monochromatic, so lk-mono accepts it
        assert check_proof(proof, LKMONO) is None

    def test_k_rule(self):
        proof = jump("k", ax(p, "g1", "d2"), sequent([Box(p)], [], [], [Box(p)]))
        assert proof.sequentv == sequent([Box(p)], [], [], [Box(p)])
        assert check_proof(proof, K) is None
        v = check_proof(proof, K4)
        assert v is not None and "not available" in v.reason

    def test_k_schema_violation(self):
        bad = Proof("k", sequent([p], [], [], [Box(q)]), (ax(q, "g1", "d2"),), "d2", Box(q))
        v = check_proof(bad, K)
        assert v is not None and "boxed" in v.reason

    def test_rule_4(self):
        child = weaken(ax(p, "g1", "d2"), Box(p), "g1")
        proof = jump("4", child, sequent([Box(p)], [], [], [Box(p)]))
        assert check_proof(proof, K4) is None

    def test_rule_d(self):
        child = infer("lneg", (ax(p, "g1", "d1"),), Neg(p), "g1")
        assert child.sequentv == sequent([p, Neg(p)], [], [], [])
        proof = jump("d", child, sequent([Box(p), Box(Neg(p))]))
        assert check_proof(proof, system_by_name("kd")) is None

    def test_rule_t(self):
        child = ax(p, "g1", "d2")
        proof = infer("t", (child,), Box(p), "g1")
        assert proof.sequentv == sequent([Box(p)], [], [], [p])
        assert check_proof(proof, system_by_name("kt")) is None

    def test_modal_formula_rejected_propositionally(self):
        v = check_proof(ax(Box(p), "g1", "d2"), LKAT)
        assert v is not None

    def test_weaken_and_contract(self):
        base = ax(p, "g1", "d2")
        target = sequent([p, q], [r], [BOTTOM], [p, p])
        expanded = weaken_to(base, target)
        assert expanded.sequentv == target
        assert check_proof(expanded, LKMINUS) is None

    def test_wax(self):
        proof = wax(q, sequent([p, q], [], [q, r], []), "g1", "d1")
        assert check_proof(proof, LKMINUS) is None


class TestCanonicalOrder:
    @pytest.mark.parametrize("comp", COMPONENTS)
    def test_out_of_order_component_is_reported(self, comp):
        proof = weaken(weaken(ax(p, "g1", "d1"), r, comp), q, comp)
        s = proof.sequentv
        assert check_proof(proof, LKMINUS) is None
        # built directly, bypassing sequent(), with comp reversed
        parts = {c: s.comp(c) for c in COMPONENTS}
        shuffled = Sequent(**{**parts, comp: tuple(reversed(s.comp(comp)))})
        bad = dataclasses.replace(proof, sequentv=shuffled)
        assert check_proof(bad, LKMINUS) == Violation(
            (), f"component {comp} is not canonically sorted"
        )

    def test_insert_and_remove_one_match_sorting(self):
        """On every sequent of the criterion 4 and 5 draws, inserting or
        removing one formula gives the tuple a full sort gives."""
        resort = sequent_module._sorted
        seqs = {node.sequentv for proof in differential_proofs() for _, node in iter_nodes(proof)}
        checked = 0
        for s in seqs:
            present = set(s.antecedent() + s.succedent())
            for c in COMPONENTS:
                have = s.comp(c)
                for f in present | {Atom("a"), Atom("zz"), TOP, BOTTOM}:
                    assert s.insert(c, f).comp(c) == resort(have + (f,))
                    checked += 1
                for i, f in enumerate(have):
                    assert s.remove_one(c, f).comp(c) == resort(have[:i] + have[i + 1:])
                    checked += 1
                others = [x for x in COMPONENTS if x != c]
                assert all(s.insert(c, p).comp(x) is s.comp(x) for x in others)
        assert len(seqs) > 1000 and checked > 50_000


class TestSubformulaProperty:
    def test_cut_free_proofs_respect_it(self):
        pi1 = infer("land1", (ax(p, "g1", "d2"),), pq, "g1")
        proof = infer("ror1", (pi1,), porq, "d2")
        assert respects_subformula_property(proof)

    def test_sigma_does_not_need_it(self):
        # atomic cuts stay inside the subformula closure here
        assert respects_subformula_property(example_sigma())


class TestMetrics:
    def test_weak_occurrence(self):
        proof = weaken(ax(p, "g1", "d1"), q, "d1")
        occ = ((), "d1", proof.sequentv.d1.index(q))
        assert is_weak(proof, occ) and weight(proof, occ) == 0

    def test_axiom_occurrence_weight(self):
        proof = ax(p, "g1", "d1")
        assert not is_weak(proof, ((), "g1", 0))
        assert weight(proof, ((), "g1", 0)) == 1

    def test_lor_main_weight(self):
        left = weaken(ax(p, "g1", "d1"), q, "d1")
        right = weaken(ax(q, "g1", "d1"), p, "d1")
        proof = infer("lor", (left, right), porq, "g1")
        assert proof_size(proof) == 5
        assert weight(proof, ((), "g1", 0)) == 3

    def test_proof_measures(self):
        sigma = example_sigma()
        assert proof_depth(sigma) >= 4
        assert proof_length(sigma) > proof_size(sigma)


class TestCutAndAxiomClassification:
    def test_classify_atomic_cut(self):
        sigma = example_sigma()
        cuts = [path for path, n in iter_nodes(sigma) if n.rule == "cut"]
        assert cuts
        for path in cuts:
            info = classify_cut(sigma, path)
            assert info.type_r
            assert info.atomic and info.literal and info.monochromatic
            assert info.degree == 0
            assert info.weight >= 2

    def test_classify_negated_literal_cut(self):
        left = weaken(ax(p, "g1", "d2"), Neg(p), "d2")
        right = weaken(ax(p, "g1", "d2"), Neg(p), "g2")
        proof = cut(left, right, Neg(p), 2)
        info = classify_cut(proof, ())
        assert info.literal and not info.atomic

    def test_axiom_types(self):
        assert axiom_type(ax(p, "g1", "d1"), ()).kind == "L/L"
        assert axiom_type(ax(p, "g2", "d2"), ()).kind == "R/R"
        assert axiom_type(ax(p, "g1", "d2"), ()).kind == "L/R"
        assert axiom_type(ax(p, "g2", "d1"), ()).kind == "R/L"

    def test_omega_axiom(self):
        proof = omega_proof()
        assert check_proof(proof, LKLIT) is None
        # the inner axiom ;p => ;p feeds both cuts
        target = None
        for path, node in iter_nodes(proof):
            if node.rule == "ax" and node.sequentv.g2 == (p,):
                target = path
        assert target is not None
        info = axiom_type(proof, target)
        assert info.kind == "R/R" and info.omega
        ok, witness = is_tame(proof)
        assert not ok and witness[0] == "omega-axiom"

    def test_sigma_is_tame(self):
        ok, witness = is_tame(example_sigma())
        assert ok, witness

    def test_cut_free_is_tame(self):
        proof = infer("land1", (ax(p, "g1", "d2"),), pq, "g1")
        ok, _ = is_tame(proof)
        assert ok


class TestAncestryExample:
    def build(self):
        # p | q => ~(~p & ~q), with every occurrence accounted for
        nanb = And(Neg(p), Neg(q))
        ax_p = ax(p, "g1", "d1")
        ln_p = infer("lneg", (ax_p,), Neg(p), "g1")
        la1 = infer("land1", (ln_p,), nanb, "g1")
        ax_q = ax(q, "g1", "d1")
        ln_q = infer("lneg", (ax_q,), Neg(q), "g1")
        la2 = infer("land2", (ln_q,), nanb, "g1")
        disj = infer("lor", (la1, la2), Or(p, q), "g1")
        return infer("rneg", (disj,), Neg(nanb), "d1")

    def test_direct_ancestors_of_disjunction_main(self):
        proof = self.build()
        # the disjunction introduced by lor has exactly two direct ancestors
        inner = proof.children[0]
        assert inner.rule == "lor"
        idx = inner.sequentv.g1.index(Or(p, q))
        direct = [direct_ancestors(inner, ci, ("g1", idx)) for ci in (0, 1)]
        assert direct == [[("g1", 0)], [("g1", 0)]]

    def test_root_negation_has_eight_ancestors(self):
        proof = self.build()
        idx = proof.sequentv.d1.index(Neg(And(Neg(p), Neg(q))))
        assert len(reference_ancestors(proof, ((), "d1", idx))) == 8

    def test_descendant_paths_are_unique(self):
        # every non-root occurrence feeds exactly one conclusion occurrence
        # or is consumed by a cut
        for proof in (self.build(), example_sigma(), omega_proof()) + modal_proofs():
            for path, node in iter_nodes(proof):
                for ci, child in enumerate(node.children):
                    sources = [
                        src
                        for c, i, _ in node.sequentv.occurrences()
                        for src in direct_ancestors(node, ci, (c, i))
                    ]
                    if node.rule == "cut":
                        sources.append(cut_occurrences(node)[ci])
                    assert sorted(sources) == sorted(
                        (c, i) for c, i, _ in child.sequentv.occurrences()
                    )


def modal_proofs():
    """Cut-free proofs that use the k, d and 4 rules (and t in s4), and a
    4 step whose conclusion holds both []p and [][]p, so that its premise
    has a copy of []p as the body of [][]p and another as []p's own."""
    from craig.construct import prove_cutfree
    from craig.sequent import KD, S4

    imp = Or(Neg(p), q)
    bp, bbp = Box(p), Box(Box(p))
    premise = weaken_to(ax(bp, "g1", "d1"), sequent([p, bp, bp, bbp], [], [bp], []))
    out = (
        prove_cutfree(sequent([Box(p)], [Box(imp)], [], [Box(q)]), K),
        prove_cutfree(sequent([Box(p)], [], [], [Neg(Box(Neg(p)))]), KD),
        prove_cutfree(sequent([Box(p)], [], [Box(Box(p))], []), K4),
        prove_cutfree(sequent([Box(p)], [Box(imp)], [], [Box(Box(q))]), S4),
        Proof("4", sequent([bp, bbp], [], [bbp], []), (premise,), "d1", bbp),
    )
    assert check_proof(out[-1], K4) is None
    rules = {node.rule for proof in out for _, node in iter_nodes(proof)}
    assert {"k", "d", "4", "t"} <= rules
    return out


def jump_nodes():
    """Every modal jump node of modal_proofs() and of a kd4 proof that ends
    in d4."""
    from craig.construct import prove_cutfree

    serial = prove_cutfree(sequent([Box(p), Box(Neg(p))]), KD4)
    nodes = [node for proof in modal_proofs() + (serial,) for _, node in iter_nodes(proof)
             if node.rule in MODAL_JUMPS]
    assert {node.rule for node in nodes} == set(MODAL_JUMPS)
    return nodes


class TestJump:
    """jump builds a modal jump from its premise and its conclusion, and
    rebuild keeps a jump's conclusion."""

    @pytest.mark.parametrize("rule, premise, conclusion", [
        ("k", ax(q, "g1", "d2"), sequent([Box(p)], [], [], [Box(p)])),
        ("4", ax(p, "g1", "d2"), sequent([Box(p)], [], [], [Box(p)])),
        ("d", ax(p, "g1", "d1"), sequent([Box(p)])),
        ("d4", infer("lneg", (ax(p, "g1", "d1"),), Neg(p), "g1"), sequent([Box(p), Box(Neg(p))])),
    ], ids=["k", "4", "d", "d4"])
    def test_a_premise_other_than_the_jump_premise_is_refused(self, rule, premise, conclusion):
        jump_premise(rule, conclusion)  # the conclusion fits the rule
        with pytest.raises(ProofError, match=f"^{rule} does not conclude"):
            jump(rule, premise, conclusion)

    def test_a_conclusion_that_fits_no_jump_is_refused(self):
        with pytest.raises(ProofError, match="must be boxed"):
            jump("k", ax(p, "g1", "d2"), sequent([p], [], [], [Box(p)]))

    def test_main_occurrence(self):
        for node in jump_nodes():
            if node.rule in ("d", "d4"):
                assert (node.main_comp, node.main_formula, main_occurrence(node)) == (None, None, None)
            else:
                (f,) = node.sequentv.succedent()
                assert node.main_formula is f and node.sequentv.comp(node.main_comp) == (f,)

    def test_jump_and_rebuild_give_back_every_node(self):
        for node in jump_nodes():
            assert jump(node.rule, node.children[0], node.sequentv) == node
            assert rebuild(node, node.children) == node

    def test_rebuild_over_another_premise_is_refused(self):
        for node in jump_nodes():
            other = weaken(node.children[0], q, "g2")
            with pytest.raises(ProofError, match="does not conclude"):
                rebuild(node, [other])


def unchecked_leaf(*components):
    """An unchecked leaf that ends in the given sequent, whatever its rule
    demands."""
    return Proof("ax", sequent(*components))


# hand-built nodes whose premises do not fit the rule: (node, a system that
# has the rule)
UNFIT_PREMISES = [
    pytest.param(Proof("lw", sequent([p, q], [], [p]), (unchecked_leaf([r], [], [r]),), "g1", q), LK, id="lw"),
    pytest.param(Proof("lc", sequent([p], [], [p]), (ax(p, "g1", "d1"),), "g1", p), LK, id="lc"),
    pytest.param(Proof("land1", sequent([pq], [], [p]), (unchecked_leaf([p, r], [], [p]),), "g1", pq), LK,
                 id="land1"),
    pytest.param(Proof("rand", sequent([p], [], [And(p, p)]), (ax(p, "g1", "d1"), unchecked_leaf([p], [], [q])),
                       "d1", And(p, p)), LK, id="rand"),
    pytest.param(Proof("cut", sequent([p], [], [q]), (unchecked_leaf([p], [], [r]), unchecked_leaf([p, r], [], [q])),
                       "d1", r), LK, id="cut"),
    pytest.param(Proof("t", sequent([Box(p)], [], [q]), (unchecked_leaf([Box(p)], [], [q]),), "g1", Box(p)), KT, id="t"),
    pytest.param(Proof("k", sequent([Box(p)], [], [Box(p)]), (ax(q, "g1", "d1"),), "d1", Box(p)), K, id="k"),
    pytest.param(Proof("4", sequent([Box(p)], [], [Box(q)]), (unchecked_leaf([p], [], [q]),), "d1", Box(q)), K4, id="4"),
    pytest.param(Proof("d", sequent([Box(p), Box(Neg(p))]), (unchecked_leaf([p]),)), KD4, id="d"),
    pytest.param(Proof("lw", sequent([p, q], [], [p]), (ax(p, "g1", "d1"),) * 2, "g1", q), LK,
                 id="too-many-premises"),
]


class TestOnePremiseCheck:
    """direct_ancestors judges its node with check_proof's fit check unless
    the node stores a passed check_proof verdict."""

    @pytest.mark.parametrize("node, system", UNFIT_PREMISES)
    def test_an_unfit_premise_is_refused_in_the_checkers_words(self, node, system):
        bad = check_proof(node, system)
        assert bad.reason.startswith(("premise is", "rule lw expects 1 premises"))
        # every premise, the one that fits too: the check judges the whole node
        for ci in range(len(node.children)):
            for c, i, _ in node.sequentv.occurrences():
                with pytest.raises(ProofError) as info:
                    direct_ancestors(node, ci, (c, i))
                assert str(info.value) == bad.reason

    @staticmethod
    def answers(proof):
        cuts = [(path, node) for path, node in iter_nodes(proof) if node.rule == "cut"]
        return (
            is_tame(proof),
            [classify_cut(proof, path) for path, _ in cuts],
            [is_weak(proof, (path + (ci,), *occ)) for path, node in cuts
             for ci, occ in enumerate(cut_occurrences(node))],
        )

    def test_a_checked_proof_is_analysed_without_deriving_premises(self, monkeypatch):
        proof = realized_product(3)
        fresh = copy.deepcopy(proof)
        calls = []
        real = sequent_module.premises_of
        monkeypatch.setattr(sequent_module, "premises_of", lambda *args: calls.append(args) or real(*args))
        checked = self.answers(proof)
        assert calls == [] and len(checked[1]) > 10
        assert self.answers(fresh) == checked
        assert len(calls) > 100


class TestMalformedNodes:
    """One field of one node changed to a value that its rule may not
    give it, and every public walker either answers or raises a named
    error."""

    FORMULAS = (None, p, q, BOTTOM, Neg(p), pq, porq, Box(p))

    @classmethod
    def mutant(cls, rng, proof):
        path, node = rng.choice(list(iter_nodes(proof)))
        field = rng.choice(("rule", "main_comp", "main_formula", "premises"))
        if field == "rule":
            new = dataclasses.replace(node, rule=rng.choice(RULES + ("nope",)))
        elif field == "main_comp":
            new = dataclasses.replace(node, main_comp=rng.choice(COMPONENTS + (None, "x")))
        elif field == "main_formula":
            new = dataclasses.replace(node, main_formula=rng.choice(cls.FORMULAS))
        else:
            kids = list(node.children)
            if kids and rng.random() < 0.5:
                del kids[rng.randrange(len(kids))]
            else:
                kids.insert(rng.randrange(len(kids) + 1), rng.choice(kids) if kids else ax(p, "g1", "d1"))
            new = dataclasses.replace(node, children=tuple(kids))
        return replace_at(proof, path, new)

    @staticmethod
    def walkers(proof, system):
        from craig.maehara import maehara
        from craig.transform import eliminate_cuts, is_w_reduced, w_reduce

        cut_path = first_node(proof, lambda node: node.rule == "cut")
        ax_path = first_node(proof, lambda node: node.rule == "ax")
        occ = ((), "g1", 0) if proof.sequentv.g1 else ((), "g2", 0)
        return {
            "check_proof": lambda: check_proof(proof, system),
            "format_proof": lambda: format_proof(proof),
            "format_proof_text": lambda: format_proof_text(proof),
            "pickle": lambda: pickle.loads(pickle.dumps(proof)),
            "deepcopy": lambda: copy.deepcopy(proof),
            "is_tame": lambda: is_tame(proof),
            "classify_cut": lambda: cut_path is None or classify_cut(proof, cut_path),
            "is_weak": lambda: is_weak(proof, occ),
            "weight": lambda: weight(proof, occ),
            "axiom_type": lambda: ax_path is None or axiom_type(proof, ax_path),
            "monochromatize": lambda: monochromatize(proof, system),
            "w_reduce": lambda: w_reduce(proof),
            "is_w_reduced": lambda: is_w_reduced(proof),
            "maehara": lambda: maehara(proof, system),
            "eliminate_cuts": lambda: eliminate_cuts(proof),
        }

    def test_every_public_walker_answers_or_raises_a_named_error(self):
        bases = ((example_sigma(), LKAT), (omega_proof(), LK), (modal_proofs()[0], K))
        rng = random.Random(7)
        raised = Counter()
        for _ in range(500):
            base, system = rng.choice(bases)
            proof = self.mutant(rng, copy.deepcopy(base))
            for name, walk in self.walkers(proof, system).items():
                try:
                    walk()
                except (ProofError, FormulaError, ResolutionError):
                    raised[name] += 1
        # the walkers that raised unnamed errors on malformed nodes before
        # each of them checked the nodes it reads
        for name in ("format_proof", "pickle", "is_tame", "classify_cut", "axiom_type", "monochromatize", "w_reduce"):
            assert raised[name] > 10, (name, raised)


class TestLocality:
    """A cut's classification and an occurrence's weakness and weight
    depend only on the subproof that holds it."""

    def proofs(self):
        from craig.construct import realize_pruned
        from craig.formulas import clause

        a, b = And(porq, r), And(porq, Or(r, Atom("s")))
        realized = [
            realize_pruned(pq, porq, frozenset([clause("p"), clause("q")])),
            realize_pruned(a, porq, frozenset([clause("p", "q")])),
            realize_pruned(a, b, frozenset([clause("p", "q"), clause("r")])),
        ]
        return [example_sigma(), omega_proof()] + realized

    def test_classify_cut_is_local(self):
        seen = 0
        for proof in self.proofs():
            for path, node in iter_nodes(proof):
                if node.rule == "cut":
                    assert classify_cut(proof, path) == classify_cut(node, ())
                    seen += 1
        assert seen >= 8

    def test_weakness_and_weight_are_local(self):
        for proof in self.proofs():
            for path, node in iter_nodes(proof):
                assert subproof_at(proof, path) is node
                for c, i, _ in node.sequentv.occurrences():
                    occ, local = (path, c, i), ((), c, i)
                    assert is_weak(proof, occ) == is_weak(node, local)
                    assert weight(proof, occ) == weight(node, local)


class TestAnalyticCuts:
    def test_analytic_implies_monochromatic(self):
        sigma = example_sigma()
        for path, node in iter_nodes(sigma):
            if node.rule == "cut":
                info = classify_cut(sigma, path)
                assert info.analytic
                assert info.monochromatic

    def test_non_analytic_cut(self):
        left = weaken(ax(p, "g1", "d2"), Atom("z"), "d2")
        right = weaken(ax(p, "g1", "d2"), Atom("z"), "g2")
        proof = cut(left, right, Atom("z"), 2)
        info = classify_cut(proof, ())
        assert not info.analytic and not info.monochromatic


class TestMonochromatize:
    def spurious_cut(self, atom):
        left = weaken(ax(p, "g1", "d2"), atom, "d2")
        right = weaken(ax(p, "g1", "d2"), atom, "g2")
        return cut(left, right, atom, 2)

    def test_fresh_atom_removed(self):
        proof = self.spurious_cut(Atom("z"))
        assert check_proof(proof, LKAT) is None
        fixed = monochromatize(proof, LKAT)
        assert check_proof(fixed, LKAT) is None
        assert fixed.sequentv == proof.sequentv
        for _, node in iter_nodes(fixed):
            assert "z" not in node.sequentv.all_vars()

    def test_spurious_cut_becomes_p(self):
        proof = self.spurious_cut(q)
        fixed = monochromatize(proof, LKAT)
        for path, node in iter_nodes(fixed):
            if node.rule == "cut":
                assert node.main_formula == p

    def test_already_monochromatic_unchanged(self):
        sigma = example_sigma()
        assert monochromatize(sigma, LKAT) == sigma

    def test_flip_for_wrong_side_placement(self):
        # valid cut on p placed on side 2, but p only occurs on side 1
        left = weaken(ax(p, "g1", "d1"), p, "d2")
        right = weaken(ax(p, "g1", "d1"), p, "g2")
        proof = cut(left, right, p, 2)
        assert proof.sequentv == sequent([p], [], [p], [])
        fixed = monochromatize(proof, LKAT)
        assert check_proof(fixed, LKAT) is None
        assert fixed.sequentv == proof.sequentv
        for path, node in iter_nodes(fixed):
            if node.rule == "cut":
                assert vars_of(node.main_formula) <= node.sequentv.side_vars(
                    int(node.main_comp[1])
                )


# compact .prf texts that do not describe a proof, with the error each gives
MALFORMED_COMPACT = [
    pytest.param("(ax -)", "the root node needs its sequent", id="root-without-sequent"),
    pytest.param('(lw "p, q ; => p ; " 0 (ax "p ; => p ; " -) (ax -))', "demands 1 premises",
                 id="omitted-sequent-past-arity"),
    pytest.param('(cut "p ; => p ; " d2 (rw 1 (ax -)) (lw 0 (ax -)))', "its cut has no formula",
                 id="cut-without-formula-or-premise-sequent"),
    pytest.param('(rand " ; => p & p ; " 0 @1 (ax "p ; => p ; " -))', "points forward", id="forward-reference"),
    pytest.param('(lw "p, q ; => p ; " 0 @0)', "encloses it", id="reference-to-an-ancestor"),
    pytest.param('(lw "p, q ; => p ; " 0 @7)', "out of range", id="reference-out-of-range"),
    pytest.param('(lw "p, q ; => p ; " 0 @x)', "bad back reference", id="non-numeric-reference"),
]


class TestSerialization:
    def test_sequent_text_round_trip(self):
        s = sequent([pq, p], [q], [], [porq, BOTTOM])
        assert parse_sequent(format_sequent(s)) == s

    def test_empty_components(self):
        s = sequent([], [], [], [p])
        assert parse_sequent(format_sequent(s)) == s

    def test_reprs_show_each_formula_by_its_repr(self):
        """A sequent's and a proof's reprs show each formula by its repr,
        which for more than REPR_LENGTH symbols is its class, depth and
        length."""
        long = p
        for _ in range(100):
            long = And(long, q)  # 201 symbols
        brief = "<And depth=100 length=201>"
        assert repr(sequent([pq], [], [], [long])) == f"<seq <p & q> ;  =>  ; {brief}>"
        assert repr(weaken(ax(p, "g1", "d1"), long, "g2")) == f"<proof lw <p> ; {brief} => <p> ; >"

    def test_proof_round_trip(self):
        for proof in (
            example_sigma(),
            omega_proof(),
            infer("rneg", (bot_axiom("g2"),), TOP, "d2"),
            jump("k", ax(p, "g1", "d2"), sequent([Box(p)], [], [], [Box(p)])),
            jump("4", weaken(ax(p, "g1", "d2"), Box(p), "g1"), sequent([Box(p)], [], [], [Box(p)])),
            jump("d", infer("lneg", (ax(p, "g1", "d1"),), Neg(p), "g1"), sequent([Box(p), Box(Neg(p))])),
            bot_axiom("g2"),
        ):
            assert parse_proof(format_proof(proof)) == proof

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(",
            '(ax "p ; => ; p"',
            '(ax "p ; => ; p" -',
            '(ax "p ; => ; p -)',
            '(lw "p, q ; => p ; " x (ax "p ; => p ; " -))',
            '(lw "p, q ; => p ; " -1 (ax "p ; => p ; " -))',
            '(lw "p, q ; => p ; " "0" (ax "p ; => p ; " -))',
            '(lw "p ; => p ;" 99 (ax "p ; => p ;" -))',
            "(ax p ; => ; p -)",
            '("ax" "p ; => ; p" -)',
            '(cut "p ; => ; " d2)',
            '(cut "p ; => ; r" d2 (ax "q ; => ; q" -) (ax "q ; => ; q" -))',
            '(k "[]p ; => ; " -)',
            '(ax "p ; => ; p" -))',
            ")",
        ],
        ids=[
            "empty", "open-paren", "truncated", "truncated-children",
            "unterminated-quote", "non-numeric-main", "negative-main",
            "quoted-main", "out-of-range-main", "bare-sequent", "quoted-rule", "cut-without-premises",
            "cut-premise-mismatch", "k-without-succedent", "trailing", "close-paren",
        ],
    )
    def test_malformed_proof_text_is_a_named_error(self, text):
        with pytest.raises(ProofError):
            parse_proof(text)

    @pytest.mark.parametrize("text, message", MALFORMED_COMPACT)
    def test_compact_text_errors_say_what_is_wrong(self, text, message):
        with pytest.raises(ProofError, match=message):
            parse_proof(text)

    @pytest.mark.parametrize("text", [
        '(ax "p ; => ; p" 0)',
        '(bot "false ; => ; " 1)',
        '(d "[]p ; => ; " 0 (ax "p ; => p ; " -))',
        '(d4 "[]p ; => ; " 0 (ax "p, []p ; => p ; " -))',
    ], ids=["ax", "bot", "d", "d4"])
    def test_a_rule_without_main_occurrence_takes_only_a_dash(self, text):
        with pytest.raises(ProofError, match=r"cannot take the main token '[01]'"):
            parse_proof(text)

    @pytest.mark.parametrize("node, system", UNFIT_PREMISES)
    def test_a_node_that_does_not_fit_writes_every_premise_sequent(self, node, system):
        text = format_proof(node)
        distinct = [node, *{id(child): child for child in node.children}.values()]
        assert re.findall(r'\((\w+) "([^"]*)"', text) == [(n.rule, format_sequent(n.sequentv)) for n in distinct]
        assert parse_proof(text) == node

    def test_an_out_of_range_main_index_is_refused_by_its_token(self):
        with pytest.raises(ProofError, match=r"^rule lw cannot take the main token '99'$"):
            parse_proof('(lw "p ; => p ;" 99 (ax "p ; => p ;" -))')

    @pytest.mark.parametrize("text, system", [
        ('(lw "[]p, []q ; => ; []p" 1 (k "[]p ; => ; []p" 0 (ax "p ; => ; p" -)))', K),
        ('(lw "[]p, []q ; => ; []p" 1 (4 "[]p ; => ; []p" 0 (lw "[]p, p ; => ; p" 0 (ax "p ; => ; p" -))))', K4),
    ], ids=["k", "4"])
    def test_a_jumps_main_index_is_taken_as_written(self, text, system):
        proof = parse_proof(text)
        jumped = proof.children[0]
        assert (jumped.main_comp, jumped.main_formula) == ("g1", Box(p))
        assert parse_proof(format_proof(proof)) == proof
        assert check_proof(proof, system) == Violation(
            (0,), f"rule {jumped.rule} needs its succedent formula as main occurrence")

    def test_modal_proofs_round_trip(self):
        for proof in modal_proofs():
            assert parse_proof(format_proof(proof)) == proof

    def test_irregular_whitespace_parses_to_the_same_proof(self):
        proof = example_sigma()

        def mess(text):
            return (
                text.replace(", ", " ,\t").replace(" ; ", ";  ").replace(" => ", "=>\n ")
                .replace(" & ", "&").replace(" | ", "  |").replace(" (", "\n(")
            )

        verbose, compact = mess(reference_format_proof(proof)), mess(format_proof(proof))
        assert verbose.count("&") and verbose.count("\t") and verbose.count("\n")
        assert compact.count("&") and compact.count("\n")
        assert parse_proof(verbose) == proof and parse_proof(compact) == proof

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ('(ax "p, q & (r ;  => p ; " -)', 1, 8, "expected ')', found ''"),
            # the piece is " ~": the column counts its leading space
            ('(ax "  p ;  =>  p, ~ ;  " -)', 1, 3, "unexpected token ''"),
        ],
    )
    def test_a_bad_formula_keeps_its_parse_error(self, text, line, col, message):
        with pytest.raises(ParseError) as info:
            parse_proof(text)
        assert (str(info.value), info.value.line, info.value.col) == (f"{line}:{col}: {message}", line, col)

    def test_subformulas_are_not_parsed_again(self, monkeypatch):
        """parse_formula runs once per text that is not the canonical text of
        a subformula of a formula parsed before: on a chain proof, only on
        the two formulas of its conclusion."""
        from craig.construct import prove_cutfree

        atoms = [Atom(f"c{i:02d}") for i in range(12)]
        conj, disj = atoms[0], atoms[0]
        for x in atoms[1:]:
            conj, disj = And(conj, x), Or(disj, x)
        proof = prove_cutfree(sequent([conj], [], [], [disj]), LKMINUS)
        text = format_proof(proof)
        parsed = []
        real = sequent_module.parse_formula
        monkeypatch.setattr(sequent_module, "parse_formula", lambda t: parsed.append(t) or real(t))
        assert parse_proof(text) == proof
        assert parsed == [format_formula(conj), format_formula(disj)]
        assert proof_size(proof) > 20


# ---------------------------------------------------------------------------
# Differential tests against the earlier implementations
# ---------------------------------------------------------------------------

def reference_proof_size(p):
    return 1 + sum(reference_proof_size(c) for c in p.children)


def reference_proof_depth(p):
    if not p.children:
        return 0
    return 1 + max(reference_proof_depth(c) for c in p.children)


def reference_proof_length(p):
    return p.sequentv.length() + sum(reference_proof_length(c) for c in p.children)


def reference_format_proof_text(p, indent=0):
    lines = [("  " * indent) + f"{p.rule}: {format_sequent(p.sequentv)}"]
    for c in p.children:
        lines.append(reference_format_proof_text(c, indent + 1))
    return "\n".join(lines)


def prf_outline(text):
    """(nesting depth, rule or @n) for each node and back reference that a
    .prf text writes, in the order it writes them."""
    out, depth = [], 0
    toks = sequent_module._tokenize_sexpr(text)
    for i, tok in enumerate(toks):
        if tok == "(":
            out.append((depth, toks[i + 1]))
            depth += 1
        elif tok == ")":
            depth -= 1
        elif isinstance(tok, str) and tok.startswith("@"):
            out.append((depth, tok))
    return out


def distinct_preorder(p):
    """Each distinct node of p once, in preorder of its first use."""
    out, seen, stack = [], set(), [p]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            out.append(node)
            stack.extend(reversed(node.children))
    return out


def reference_pair_contexts(child, concl, child_skip, concl_skip):
    """The hash-based context pairing that _pair_contexts replaced."""
    edges = []
    for c in COMPONENTS:
        free = {}
        for i, f in enumerate(concl.comp(c)):
            if (c, i) not in concl_skip:
                free.setdefault(f, []).append(i)
        for i, f in enumerate(child.comp(c)):
            if (c, i) in child_skip:
                continue
            slots = free.get(f)
            if not slots:
                raise ProofError(f"context mismatch on {format_formula(f)}")
            edges.append(((c, i), (c, slots.pop(0))))
        for f, slots in free.items():
            if slots:
                raise ProofError(f"context mismatch on {format_formula(f)}")
    return edges


def reference_modal_links(node, child):
    """The k, d and 4 wiring that direct_ancestors replaced: each boxed
    antecedent formula comes from its body (and, for 4, from its own copy
    too); the boxed succedent from its body."""
    s = node.sequentv
    edges = []
    for c in ("g1", "g2"):
        strip_alloc = {}
        for oi, f in enumerate(s.comp(c)):
            body_positions = [i for i, g in enumerate(child.comp(c)) if g == f.body]
            k = strip_alloc.get(f.body, 0)
            strip_alloc[f.body] = k + 1
            edges.append(((c, body_positions[k]), (c, oi)))
        if node.rule == "4":
            strip_counts = {}
            for f in s.comp(c):
                strip_counts[f.body] = strip_counts.get(f.body, 0) + 1
            own_alloc = {}
            for oi, f in enumerate(s.comp(c)):
                own_positions = [i for i, g in enumerate(child.comp(c)) if g == f]
                k = strip_counts.get(f, 0) + own_alloc.get(f, 0)
                own_alloc[f] = own_alloc.get(f, 0) + 1
                edges.append(((c, own_positions[k]), (c, oi)))
    if node.rule != "d":
        edges.append(((node.main_comp, 0), (node.main_comp, 0)))
    return edges


def reference_links(node, ci):
    """Every (premise ci occurrence, its direct descendant) edge, built for
    the whole node at once as the wiring before direct_ancestors did."""
    child = node.children[ci].sequentv
    if node.rule in ("k", "d", "4"):
        return reference_modal_links(node, child)
    aux = sequent_module.aux_occurrences(node, ci)
    main = sequent_module.main_occurrence(node)
    edges = [(a, main) for a in aux] if main else []
    return edges + reference_pair_contexts(child, node.sequentv, set(aux), {main})


def criterion_draws(pipelines=12):
    """Seeded inputs of acceptance criteria 4 and 5: (a, b, target) for
    every interpolant class of the criterion-4 implications, hand-picked
    ones included, and (a, b, cs) for the first criterion-5 pruned
    pipelines."""
    from craig.formulas import enumerate_interpolants
    from test_acceptance import _pruned_instances, _valid_implications

    implications = _valid_implications(random.Random(104), 47) + [
        (a, b, enumerate_interpolants(a, b))
        for a, b in [(And(pq, r), Or(porq, r)), (pq, porq), (p, p)]
    ]
    classes = [(a, b, t) for a, b, targets in implications for t in targets]
    return classes, _pruned_instances(random.Random(105), pipelines)


@lru_cache(maxsize=None)
def differential_proofs():
    """Realized and cut-eliminated proofs of the criterion 4 and 5 draws."""
    from craig.construct import realize_interpolant, realize_pruned
    from craig.transform import eliminate_cuts

    classes, pipelines = criterion_draws()
    out = [realize_interpolant(a, b, t, LKAT, cminus_cap=10**6) for a, b, t in classes]
    for a, b, cs in pipelines:
        realized = realize_pruned(a, b, cs)
        out += [realized, eliminate_cuts(realized).proof]
    return tuple(out) + (example_sigma(), omega_proof()) + modal_proofs()


class TestReferenceWalks:
    """The explicit-stack walk and the positional pairing give exactly what
    the recursive walk and the hash-based pairing did."""

    def test_format_proof_text(self):
        trees = shared = 0
        for proof in differential_proofs():
            assert parse_proof(reference_format_proof(proof)) == proof
            text = format_proof(proof)
            assert parse_proof(text) == proof
            assert format_proof(parse_proof(text)) == text
            lines = format_proof_text(proof).split("\n")
            if distinct_nodes(proof) == proof_size(proof):
                assert "\n".join(lines) == reference_format_proof_text(proof)
                trees += 1
                continue
            # a node's line where the .prf writes the node, and @n where it
            # writes @n, at the same nesting depth; the nodes' sequents are
            # those of the distinct nodes in preorder
            outline = [((len(line) - len(line.lstrip(" "))) // 2, line.lstrip(" ").split(":")[0])
                       for line in lines]
            assert outline == prf_outline(text)
            assert [line.split(": ", 1)[1] for line in lines if ": " in line] == [
                format_sequent(node.sequentv) for node in distinct_preorder(proof)]
            shared += 1
        assert trees > 100 and shared > 40

    def test_metrics(self):
        for proof in differential_proofs():
            assert proof_size(proof) == reference_proof_size(proof)
            assert proof_depth(proof) == reference_proof_depth(proof)
            assert proof_length(proof) == reference_proof_length(proof)

    def test_direct_ancestors_at_every_node(self):
        traced = 0
        for proof in differential_proofs():
            for _, node in iter_nodes(proof):
                for ci in range(len(node.children)):
                    edges = reference_links(node, ci)
                    for c, i, _ in node.sequentv.occurrences():
                        want = [src for src, dst in edges if dst == (c, i)]
                        assert direct_ancestors(node, ci, (c, i)) == want
                    traced += 1
        assert traced > 1000

    def test_trace_rejects_a_corrupted_context(self):
        alien = Atom("zz")
        checked = 0
        for proof in differential_proofs()[:40] + modal_proofs():
            for _, node in iter_nodes(proof):
                for ci, child in enumerate(node.children):
                    s = child.sequentv
                    for c in COMPONENTS:
                        corrupted = [s.insert(c, alien)]
                        if s.comp(c):
                            corrupted.append(s.remove_one(c, s.comp(c)[0]))
                            corrupted.append(s.remove_one(c, s.comp(c)[-1]).insert(c, alien))
                        for bad in corrupted:
                            kids = list(node.children)
                            kids[ci] = dataclasses.replace(child, sequentv=bad)
                            broken = dataclasses.replace(node, children=tuple(kids))
                            for oc, oi, _ in node.sequentv.occurrences():
                                with pytest.raises(ProofError):
                                    direct_ancestors(broken, ci, (oc, oi))
                                checked += 1
        assert checked > 1000


_SIDES = {"g": "an antecedent", "d": "a succedent"}


def reference_expected_premises(p):
    """expected_premises as it was written rule by rule before the rule
    table, with the side and the connective of the main formula and its
    presence in the conclusion checked too."""
    s, rule = p.sequentv, p.rule
    m, comp = p.main_formula, p.main_comp

    def main(side, connective=Formula):
        if not isinstance(m, Formula) or comp not in COMPONENTS:
            raise ProofError(f"rule {rule} needs a main occurrence")
        if comp[0] != side:
            raise ProofError(f"rule {rule} needs its main occurrence in {_SIDES[side]} component")
        if not isinstance(m, connective):
            raise ProofError(f"rule {rule} needs a main formula of type {connective.__name__}")

    if rule in ("ax", "bot"):
        return ()
    if rule == "lw" or rule == "rw":
        main("g" if rule == "lw" else "d")
        return (s.remove_one(comp, m),)
    if rule == "lc" or rule == "rc":
        main("g" if rule == "lc" else "d")
        if m not in s.comp(comp):
            raise ProofError(f"rule {rule} has no {format_formula(m)} in {comp} to contract")
        return (s.insert(comp, m),)
    if rule == "land1":
        main("g", And)
        return (s.remove_one(comp, m).insert(comp, m.left),)
    if rule == "land2":
        main("g", And)
        return (s.remove_one(comp, m).insert(comp, m.right),)
    if rule == "rand":
        main("d", And)
        base = s.remove_one(comp, m)
        return (base.insert(comp, m.left), base.insert(comp, m.right))
    if rule == "lor":
        main("g", Or)
        base = s.remove_one(comp, m)
        return (base.insert(comp, m.left), base.insert(comp, m.right))
    if rule == "ror1":
        main("d", Or)
        return (s.remove_one(comp, m).insert(comp, m.left),)
    if rule == "ror2":
        main("d", Or)
        return (s.remove_one(comp, m).insert(comp, m.right),)
    if rule == "lneg":
        main("g", Neg)
        return (s.remove_one(comp, m).insert("d" + comp[1], m.body),)
    if rule == "rneg":
        main("d", Neg)
        return (s.remove_one(comp, m).insert("g" + comp[1], m.body),)
    if rule == "cut":
        main("d")
        side = comp[1]
        return (s.insert(f"d{side}", m), s.insert(f"g{side}", m))
    if rule == "t":
        main("g", Box)
        return (s.remove_one(comp, m).insert(comp, m.body),)
    if rule in ("k", "4", "d"):
        if not all(isinstance(f, Box) for f in s.g1 + s.g2):
            raise ProofError(f"{rule} conclusion antecedent must be boxed")
        gs = {}
        for c in ("g1", "g2"):
            bodies = [f.body for f in s.comp(c)]
            gs[c] = bodies + list(s.comp(c)) if rule == "4" else bodies
        if rule == "d":
            if s.d1 or s.d2:
                raise ProofError("d conclusion succedent must be empty")
            return (sequent(gs["g1"], gs["g2"]),)
        if comp not in ("d1", "d2") or not isinstance(m, Box):
            raise ProofError(f"rule {rule} needs a boxed main occurrence")
        if s.comp(comp) != (m,) or s.comp("d1" if comp == "d2" else "d2"):
            raise ProofError(f"{rule} conclusion succedent must be the single boxed main")
        return (sequent(gs["g1"], gs["g2"],
                        [m.body] if comp == "d1" else [],
                        [m.body] if comp == "d2" else []),)
    raise ProofError(f"unknown rule {rule!r}")


def reference_check_proof(p, system):
    """The checker before verdicts were stored: every node of the tree, a
    shared subproof at each of its uses, with its path built as it goes,
    and the premises from reference_expected_premises."""
    for path, node in iter_nodes(p):
        s = node.sequentv
        comps = (s.g1, s.g2, s.d1, s.d2)
        for c, fs in zip(COMPONENTS, comps):
            if not sequent_module._in_order(fs):
                return Violation(path, f"component {c} is not canonically sorted")
        if not system.modal:
            if any(sequent_module.is_modal(f) for fs in comps for f in fs):
                return Violation(path, "boxed formula in a non-modal system")
        if node.rule == "ax":
            ants, sucs = s.antecedent(), s.succedent()
            if len(ants) != 1 or len(sucs) != 1 or ants[0] != sucs[0]:
                return Violation(path, "axiom must be exactly f => f")
            if node.children:
                return Violation(path, "axiom has no premises")
            continue
        if node.rule == "bot":
            if s.antecedent() != (BOTTOM,) or s.succedent() or node.children:
                return Violation(path, "false-axiom must be exactly false =>")
            continue
        if node.rule in ("k", "d", "t", "4") and node.rule not in system.modal_rules:
            return Violation(path, f"rule {node.rule} not available in {system.name}")
        try:
            expected = reference_expected_premises(node)
        except ProofError as e:
            return Violation(path, str(e))
        if node.rule == "cut" and not sequent_module.cut_allowed(node.main_formula, system, s):
            return Violation(path, f"cut on {format_formula(node.main_formula)} violates the {system.name} policy")
        if len(expected) != len(node.children):
            return Violation(path, f"rule {node.rule} expects {len(expected)} premises")
        for i, (want, child) in enumerate(zip(expected, node.children)):
            if child.sequentv != want:
                return Violation(
                    path + (i,),
                    f"premise is {format_sequent(child.sequentv)} but {node.rule} needs {format_sequent(want)}",
                )
    return None


def passing_system(proof):
    return next(s for s in SYSTEMS.values() if reference_check_proof(proof, s) is None)


def first_shared_node(proof):
    """The first node in preorder that two distinct parent nodes hold."""
    parents = {}
    for _, node in iter_nodes(proof):
        for child in node.children:
            parents.setdefault(id(child), (child, set()))[1].add(id(node))
    for _, node in iter_nodes(proof):
        if len(parents.get(id(node), (None, ()))[1]) > 1:
            return node
    return None


def replace_node(proof, old, new):
    """proof with the node old replaced by new wherever it occurs, and every
    node above it rebuilt once with dataclasses.replace."""
    memo = {}

    def walk(node):
        if node is old:
            return new
        if id(node) not in memo:
            kids = tuple(walk(c) for c in node.children)
            same = all(a is b for a, b in zip(kids, node.children))
            memo[id(node)] = node if same else dataclasses.replace(node, children=kids)
        return memo[id(node)]

    return walk(proof)


def corruptions(node):
    return [
        dataclasses.replace(node, sequentv=node.sequentv.insert("g1", Atom("zz"))),
        dataclasses.replace(node, rule="nope"),
    ]


def only_fields(obj):
    """obj carries nothing besides its dataclass fields."""
    return set(vars(obj)) == {f.name for f in dataclasses.fields(obj)}


class TestStoredFacts:
    """check_proof and classify_cut store what they find on immutable
    nodes, and give what the checker and the classifier computed afresh
    give."""

    def test_corrupted_copies_of_checked_proofs(self):
        shared = compared = 0
        for proof in differential_proofs():
            system = passing_system(proof)
            assert check_proof(proof, system) is None
            targets = [proof]
            node = first_shared_node(proof)
            if node is not None:
                targets.append(node)
                shared += 1
            for target in targets:
                for bad in corruptions(target):
                    broken = replace_node(proof, target, bad)
                    want = reference_check_proof(broken, system)
                    assert want is not None
                    assert check_proof(broken, system) == want
                    compared += 1
            assert check_proof(proof, system) is None
        assert shared > 50 and compared > 300

    def test_verdict_is_per_system(self):
        sigma = example_sigma()
        assert check_proof(sigma, LK) is None
        bad = check_proof(sigma, LKMINUS)
        assert bad == reference_check_proof(sigma, LKMINUS)
        assert "violates the lk-minus policy" in bad.reason
        assert check_proof(sigma, LK) is None
        equal_to_lk = sequent_module.System("lk", frozenset(), "any")
        assert equal_to_lk is not LK and check_proof(sigma, equal_to_lk) is None

    def test_each_distinct_node_is_checked_once_per_call(self, monkeypatch):
        calls = []
        real = sequent_module.expected_premises
        monkeypatch.setattr(sequent_module, "expected_premises",
                            lambda node: calls.append(node) or real(node))
        tree = distinct = 0
        for proof in differential_proofs():
            system = passing_system(proof)
            fresh = copy.deepcopy(proof)  # shares as proof does, with no facts
            nodes = {id(node): node for _, node in iter_nodes(fresh)}
            inner = [node for node in nodes.values() if node.rule not in ("ax", "bot")]
            tree += sum(1 for _ in iter_nodes(fresh))
            distinct += len(nodes)
            calls.clear()
            assert check_proof(fresh, system) is None
            assert sorted(map(id, calls)) == sorted(map(id, inner))
            calls.clear()
            assert check_proof(fresh, system) is None
            assert calls == []
        assert tree > distinct

    def test_stored_cut_info_equals_a_fresh_one(self):
        cuts = 0
        for proof in differential_proofs():
            fresh = copy.deepcopy(proof)  # shares as proof does, with no facts
            for path, node in iter_nodes(proof):
                if node.rule == "cut":
                    info = classify_cut(proof, path)
                    assert classify_cut(proof, path) is info
                    assert classify_cut(fresh, path) == info
                    cuts += 1
        assert cuts > 100

    def test_copies_and_rebuilt_nodes_carry_no_facts(self):
        sigma = example_sigma()
        assert check_proof(sigma, LKAT) is None
        classify_cut(sigma, (0,))
        assert not only_fields(sigma) and not only_fields(sigma.children[0])
        copies = (
            copy.copy(sigma), copy.deepcopy(sigma), pickle.loads(pickle.dumps(sigma)),
            dataclasses.replace(sigma), parse_proof(format_proof(sigma)),
        )
        for other in copies:
            assert other == sigma
            assert only_fields(other)
        assert only_fields(copy.copy(sigma.children[0]))
        # a shallow copy is one node over the same premises
        assert copy.copy(sigma).children[0] is sigma.children[0]

    def test_threads_check_shared_nodes_at_once(self):
        """More threads than cores check the same unchecked proofs under
        different systems at once.  Storing a verdict is not atomic, so a
        lost update may drop one, but every answer is the checker's."""
        systems = (LK, LKMINUS, LKAT)
        proofs = [copy.deepcopy(proof) for proof in differential_proofs()[:60]]
        want = {(i, s.name): reference_check_proof(proof, s)
                for i, proof in enumerate(proofs) for s in systems}
        got = {}

        def work(k):
            for i, proof in enumerate(proofs):
                for s in systems[k % 3:] + systems[:k % 3]:
                    got[k, i, s.name] = check_proof(proof, s)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(got) == 8 * len(want)
        assert all(v == want[i, name] for (_, i, name), v in got.items())
        assert any(v is None for v in want.values()) and any(want.values())

    def test_a_proof_built_from_lists_is_immutable(self):
        """The constructors make the parts tuples, so a caller's lists,
        changed later, change neither the node nor its stored verdict."""
        leaf = ax(p, "g1", "d1")
        kids, ants = [leaf], [p, q]
        node = Proof("lw", Sequent(ants, [], [p], []), kids, "g1", q)
        assert type(node.children) is tuple and type(node.sequentv) is Sequent
        assert all(type(fs) is tuple for fs in node.sequentv)
        assert check_proof(node, LKMINUS) is None
        assert LKMINUS in node._passed and LKMINUS in leaf._passed
        kids.append(leaf)
        ants.append(r)
        assert node.children == (leaf,) and node.sequentv == sequent([p, q], [], [p])
        assert check_proof(node, LKMINUS) is None
        rebuilt = Proof("lw", Sequent(ants, [], [p], []), kids, "g1", q)
        assert check_proof(rebuilt, LKMINUS) == Violation((), "rule lw expects 1 premises")
        # a plain tuple becomes a Sequent; tuple parts are kept as they are
        assert type(Proof("ax", ((p,), (), (p,), ())).sequentv) is Sequent
        s, pair = sequent([p], [], [p]), (leaf, leaf)
        assert Proof("ax", s).sequentv is s and Proof("cut", s, pair, "d1", p).children is pair


class TestTupleSequent:
    def test_components_by_position_and_by_name(self):
        s = sequent([p], [q], [r], [pq])
        assert tuple(s) == tuple(s.comp(c) for c in COMPONENTS) == ((p,), (q,), (r,), (pq,))
        assert (s.g1, s.g2, s.d1, s.d2) == tuple(s)
        assert Sequent(*s) == s and Sequent() == sequent() == ((), (), (), ())

    def test_copies_and_pickles_rebuild_from_the_components(self):
        s = sequent([pq, p], [q], [], [porq])
        pickles = [pickle.loads(pickle.dumps(s, n)) for n in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in [copy.copy(s), copy.deepcopy(s)] + pickles:
            assert type(other) is Sequent and other == s and hash(other) == hash(s)
            assert other.comp("g1") == (p, pq) and other.d2 == (porq,)


def reference_cone(p, occ):
    """The ancestor tree of occ as ((ci, comp, idx), its node, index of its
    descendant) triples, each listed after its descendant: the occurrence
    (comp, idx) of node, whose descendant's node has node as premise ci
    (None for occ itself).  Each triple links to its descendant instead of
    holding its path; reference_cone_occurrence gives a triple's
    occurrence."""
    path, comp, idx = occ
    node = subproof_at(p, path)
    cone = [((None, comp, idx), node, None)]
    stack = [(node, {(comp, idx): 0})]
    while stack:
        node, here = stack.pop()
        for ci, child in enumerate(node.children):
            there = {}
            for dst, d in here.items():
                for src in direct_ancestors(node, ci, dst):
                    there[src] = len(cone)
                    cone.append(((ci,) + src, child, d))
            if there:
                stack.append((child, there))
    return cone


def reference_cone_occurrence(cone, i, path):
    """The occurrence (path, comp, idx) of triple i of a cone whose first
    triple sits at path."""
    (ci, comp, idx), _, d = cone[i]
    steps = []
    while d is not None:
        steps.append(ci)
        (ci, _, _), _, d = cone[d]
    return path + tuple(reversed(steps)), comp, idx


def reference_ancestors(p, occ):
    """Reflexive-transitive closure of the direct-ancestor relation."""
    cone = reference_cone(p, occ)
    return {reference_cone_occurrence(cone, i, occ[0]) for i in range(len(cone))}


def reference_summary(p, occ):
    """(strong, weight, rr) of occ read off its whole ancestor cone."""
    cone = reference_cone(p, occ)
    strong = [node.rule in ("ax", "bot") for _, node, _ in cone]
    for i in range(len(cone) - 1, 0, -1):
        if strong[i]:
            strong[cone[i][2]] = True
    total = sum(1 for s, (_, node, _) in zip(strong, cone) if s and node.rule not in ("lw", "rw"))
    rr = all(axiom_kind(node.sequentv) == "R/R" for _, node, _ in cone if node.rule == "ax")
    return strong[0], total, rr


def reference_weakness_and_weight(p, occ):
    """(is_weak, weight) read off the whole ancestor cone of occ, as they
    were before the stored summaries."""
    strong, total, _ = reference_summary(p, occ)
    return not strong, total


def reference_cut_ancestry(p):
    """(path, the cones of its two cut occurrences) for every cut in
    preorder, and the set of the cut-formula ancestors that sit in axioms."""
    cuts, cut_anc = [], set()
    for path, node in iter_nodes(p):
        if node.rule == "cut":
            cones = []
            for ci, occ in enumerate(cut_occurrences(node)):
                cone = reference_cone(p, (path + (ci,),) + occ)
                cut_anc.update(reference_cone_occurrence(cone, i, path + (ci,))
                               for i, (_, n, _) in enumerate(cone) if n.rule == "ax")
                cones.append(cone)
            cuts.append((path, cones))
    return cuts, cut_anc


def reference_is_omega(path, node, cut_anc):
    occs = [(path, c, i) for c, i, _ in node.sequentv.occurrences()]
    return bool(occs) and all(o in cut_anc for o in occs)


def reference_axiom_type(p, path, cut_anc=None):
    """axiom_type from the cones of every cut (cut_anc, when given, is
    reference_cut_ancestry(p)'s)."""
    node = subproof_at(p, path)
    if cut_anc is None:
        _, cut_anc = reference_cut_ancestry(p)
    return AxiomInfo(axiom_kind(node.sequentv), reference_is_omega(path, node, cut_anc))


def reference_is_tame(p):
    """is_tame from the cones of every cut, walking the whole tree."""
    cuts, cut_anc = reference_cut_ancestry(p)
    for path, node in iter_nodes(p):
        if node.rule == "ax" and reference_is_omega(path, node, cut_anc):
            return False, ("omega-axiom", path)
    for path, cones in cuts:
        if not any(
            all(axiom_kind(node.sequentv) == "R/R" for _, node, _ in cone if node.rule == "ax")
            for cone in cones
        ):
            return False, ("cut-without-rr-flank", path)
    return True, None


def outcome(call, *args):
    try:
        return call(*args)
    except ProofError as e:
        return "ProofError", str(e)


def stored_summaries(proof):
    return {(id(node), occ) for _, node in iter_nodes(proof)
            for occ in node.__dict__.get("_summaries", ())}


@lru_cache(maxsize=None)
def summary_proofs():
    """differential_proofs and the realized and cut-free proofs of the five
    golden criterion-5 draws, each distinct proof once."""
    from craig.construct import realize_pruned
    from craig.formulas import parse_clause_set, parse_formula
    from craig.transform import eliminate_cuts
    from test_proof_golden import GOLDEN

    out = []
    for a, b, cls, *_ in GOLDEN:
        realized = realize_pruned(parse_formula(a), parse_formula(b), parse_clause_set(cls))
        out += [realized, eliminate_cuts(realized).proof]
    return tuple(dict.fromkeys(differential_proofs() + tuple(out)))


class TestOccurrenceSummary:
    """is_weak, weight and the weight of a cut come from summaries stored
    per (node, occurrence), and equal what the whole ancestor cone gives."""

    def test_every_occurrence_agrees_with_the_cone(self):
        occurrences = cuts = 0
        for proof in summary_proofs():
            nodes = list(iter_nodes(proof))
            want = {
                (path, c, i): reference_weakness_and_weight(proof, (path, c, i))
                for path, node in nodes for c, i, _ in node.sequentv.occurrences()
            }
            occurrences += len(want)
            # fresh copies carry no summaries: one is asked root first, so
            # the inner nodes read what the root's walk stored, the other
            # leaves first, so every walk stops at stored premises
            down, up = copy.deepcopy(proof), copy.deepcopy(proof)
            for copied, order in ((down, nodes), (up, nodes[::-1])):
                for path, node in order:
                    for c, i, _ in node.sequentv.occurrences():
                        occ = (path, c, i)
                        assert (is_weak(copied, occ), weight(copied, occ)) == want[occ]
                    if node.rule == "cut":
                        left, right = cut_occurrences(node)
                        cut_weight = want[(path + (0,),) + left][1] + want[(path + (1,),) + right][1]
                        assert classify_cut(copied, path).weight == cut_weight
                        assert classify_cut(proof, path).weight == cut_weight
                        cuts += 1
        assert occurrences > 20_000 and cuts > 200

    def test_summaries_are_stored_on_every_node_walked(self):
        sigma = copy.deepcopy(example_sigma())
        occ = ((), "g1", 0)
        assert reference_weakness_and_weight(sigma, occ) == (False, 7)
        assert (is_weak(sigma, occ), weight(sigma, occ)) == (False, 7)
        # every ancestor of occ holds its own (strong, weight, rr)
        cone = reference_cone(sigma, occ)
        for i, (_, node, _) in enumerate(cone):
            ancestor = reference_cone_occurrence(cone, i, ())
            assert node.__dict__["_summaries"][ancestor[1:]] == reference_summary(sigma, ancestor)
        assert len(cone) > 7
        # a proof built from lists stores them as one built from tuples
        leaf = ax(p, "g1", "d1")
        listed = Proof("lw", Sequent([p, q], [], [p], []), [leaf], "g1", q)
        for c, i, _ in listed.sequentv.occurrences():
            occ = ((), c, i)
            assert (is_weak(listed, occ), weight(listed, occ)) == reference_weakness_and_weight(listed, occ)
        for node, path in ((listed, ()), (leaf, (0,))):
            assert node._summaries == {(c, i): reference_summary(listed, (path, c, i))
                                       for c, i, _ in node.sequentv.occurrences()}

    def test_a_context_mismatch_raises_and_stores_nothing(self):
        alien = Atom("zz")
        raised = compared = 0
        for proof in summary_proofs()[:40] + summary_proofs()[-10:]:
            fresh = copy.deepcopy(proof)
            for _, target in list(iter_nodes(fresh))[:12]:
                if not target.children:
                    continue
                kids = list(target.children)
                kids[-1] = dataclasses.replace(kids[-1], sequentv=kids[-1].sequentv.insert("g1", alien))
                broken = replace_node(fresh, target, dataclasses.replace(target, children=tuple(kids)))
                for c, i, _ in broken.sequentv.occurrences():
                    occ = ((), c, i)
                    before = stored_summaries(broken)
                    want = outcome(reference_weakness_and_weight, broken, occ)
                    got = outcome(lambda: (is_weak(broken, occ), weight(broken, occ)))
                    assert got == want
                    compared += 1
                    if got[0] == "ProofError":
                        assert stored_summaries(broken) == before
                        raised += 1
                if broken.rule == "cut":
                    before = stored_summaries(broken)
                    want = outcome(lambda: (sum(
                        reference_weakness_and_weight(broken, ((ci,),) + occ)[1]
                        for ci, occ in enumerate(cut_occurrences(broken))
                    ),))
                    got = outcome(lambda: (classify_cut(broken, ()).weight,))
                    assert got == want
                    if got[0] == "ProofError":
                        assert stored_summaries(broken) == before
                        assert "_cut_info" not in broken.__dict__
                        raised += 1
        assert raised > 100 and compared > raised


def realized_product(k):
    """(p0 | p1) & ... & (p{2k-2} | p{2k-1}) realized against itself with
    its own pruned clause set."""
    from craig.construct import realize_pruned
    from craig.formulas import formula_cnf, prune

    a = None
    for i in range(k):
        c = Or(Atom(f"p{2 * i}"), Atom(f"p{2 * i + 1}"))
        a = c if a is None else And(a, c)
    return realize_pruned(a, a, prune(formula_cnf(a)))


class TestTameness:
    """is_tame and axiom_type read the stored summaries and one top-down
    pass, and give what the cones of every cut give."""

    def proofs(self):
        return summary_proofs() + (omega_proof(), example_sigma()) + modal_proofs()

    def test_witnesses_and_axiom_types_equal_the_cones(self):
        verdicts, axioms = Counter(), 0
        for proof in self.proofs():
            fresh = copy.deepcopy(proof)
            want = reference_is_tame(fresh)
            assert is_tame(fresh) == want == is_tame(fresh)
            verdicts[want[1] and want[1][0]] += 1
            _, cut_anc = reference_cut_ancestry(fresh)
            for path, node in iter_nodes(fresh):
                if node.rule == "ax":
                    assert axiom_type(fresh, path) == reference_axiom_type(fresh, path, cut_anc)
                    axioms += 1
        assert verdicts[None] > 50 and verdicts["omega-axiom"] > 50
        assert verdicts["cut-without-rr-flank"] >= 5
        assert axioms > 2_000

    def test_is_tame_calls_direct_ancestors_under_twice_per_occurrence(self, monkeypatch):
        """On the realized 7-clause product (14,307 distinct nodes, 112,359
        in the tree) the walks stay within 1.8 direct_ancestors calls per
        distinct (node, occurrence) pair; walking the cones of every cut
        made 2.21."""
        proof = realized_product(7)
        nodes = {id(node): node for _, node in iter_nodes(proof)}.values()
        pairs = sum(sum(map(len, node.sequentv)) for node in nodes)
        calls = []
        real = sequent_module.direct_ancestors
        monkeypatch.setattr(sequent_module, "direct_ancestors",
                            lambda *args: calls.append(None) or real(*args))
        assert is_tame(proof) == (True, None)
        assert len(nodes) == 14_307
        assert 0 < len(calls) <= 1.8 * pairs


def schema_corruptions(node):
    """corruptions(node), and node with its main occurrence on the other
    side, with an atom or no formula as main, or with no main at all."""
    other_side = {"g1": "d1", "g2": "d2", "d1": "g1", "d2": "g2"}
    return corruptions(node) + [
        dataclasses.replace(node, main_comp=other_side.get(node.main_comp, "g1")),
        dataclasses.replace(node, main_formula=Atom("zz")),
        dataclasses.replace(node, main_formula=None),
        dataclasses.replace(node, main_comp=None, main_formula=None),
    ]


def truth_table_valid(s):
    """Every assignment falsifying the antecedent or verifying the succedent."""
    return all(
        not all(eval_formula(f, a) for f in s.antecedent())
        or any(eval_formula(f, a) for f in s.succedent())
        for a in assignments_over(s.all_vars())
    )


UNSOUND_PROOFS = [
    pytest.param('(lneg "p ; => ~p ;" 1 (ax "p ; => p ;" -))', LK, id="lneg-right"),
    pytest.param('(rneg "~p ; => p ;" 0 (ax "p ; => p ;" -))', LK, id="rneg-left"),
    pytest.param('(land1 "p ; => p & q ;" 1 (ax "p ; => p ;" -))', LK, id="land1-right"),
    pytest.param('(ror1 "p | q ; => p ;" 0 (ax "p ; => p ;" -))', LK, id="ror1-left"),
    pytest.param('(land1 "p | q ; => p ;" 0 (ax "p ; => p ;" -))', LK, id="land1-on-or"),
    pytest.param('(t "p ; => []p ;" 1 (ax "p ; => p ;" -))', KT, id="t-right"),
    pytest.param('(land1 "; => p ;" 0 (ax "p ; => p ;" -))', LK, id="land1-on-atom"),
]


class TestRuleSchema:
    """One table declares the rules: the checker admits only the instances
    it declares, and the rule-by-rule reference and the table agree."""

    @pytest.mark.parametrize("text, system", UNSOUND_PROOFS)
    def test_unsound_instances_are_violations(self, text, system):
        proof = parse_proof(text)
        v = check_proof(proof, system)
        assert v is not None and v.path == ()
        assert v == reference_check_proof(proof, system)

    def test_a_node_without_main_occurrence_is_a_violation(self):
        child = ax(p, "g1", "d1")
        node = Proof("lw", child.sequentv.insert("g1", q), (child,))
        assert check_proof(node, LK) == Violation((), "rule lw needs a main occurrence")

    def test_schema_agrees_with_the_reference(self):
        raised = compared = 0
        for proof in differential_proofs():
            for _, node in iter_nodes(proof):
                for n in [node] + schema_corruptions(node):
                    try:
                        want = reference_expected_premises(n)
                    except ProofError:
                        with pytest.raises(ProofError):
                            expected_premises(n)
                        raised += 1
                    else:
                        assert expected_premises(n) == want
                    compared += 1
        assert raised > 1000 and compared > raised + 1000

    def test_the_rows_give_the_reference_auxiliary_formulas(self):
        pool = [p, BOTTOM, Neg(p), Neg(porq), pq, porq, Box(p)]
        compared = Counter()
        for rule, (side, connective, auxes) in RULE_SCHEMA.items():
            for ci in range(len(auxes)):
                for comp in (c for c in COMPONENTS if c[0] == side):
                    for main in pool:
                        if connective is None or isinstance(main, connective):
                            want = reference_premise_aux(rule, main, comp, ci)
                            assert list(premise_aux(rule, main, comp, ci)) == want
                            compared[rule] += 1
        assert set(compared) == set(RULE_SCHEMA) and sum(compared.values()) == 110

    @pytest.mark.parametrize("rule, ci", [
        ("ax", 0), ("k", 0), ("nope", 0), ("lw", 1), ("lc", 1), ("rand", 2), ("cut", 2),
    ])
    def test_premise_aux_refuses_an_unknown_rule_or_premise(self, rule, ci):
        with pytest.raises(ProofError, match=f"^rule '{rule}' has no premise {ci}$"):
            premise_aux(rule, porq, "d1", ci)

    def test_rebuild_gives_back_every_node(self):
        rebuilt = 0
        for proof in differential_proofs():
            for _, node in iter_nodes(proof):
                if node.children:
                    assert rebuild(node, node.children) == node
                    rebuilt += 1
        assert rebuilt > 1000

    def test_checked_instances_are_sound(self):
        """Every instance over small main formulas and contexts whose
        premises the KT prover proves and that check_proof accepts has a
        valid conclusion: by truth table, or for t by the KT prover."""
        from craig.construct import try_prove_cutfree

        pool = [p, q, Neg(p), And(p, q), Or(p, q), Box(p)]
        # no formula, one formula, or an axiom f => f: contexts the
        # weakenings and cuts can conclude from
        contexts = [sequent()] + [sequent().insert(c, f) for c in COMPONENTS for f in pool]
        contexts += [ax(f, g, d).sequentv for f in pool for g in ("g1", "g2") for d in ("d1", "d2")]
        accepted = set()
        for rule in RULE_SCHEMA:
            system = KT if rule == "t" else LK
            for comp in COMPONENTS:
                for main in pool:
                    for context in contexts:
                        conclusion = context if rule == "cut" else context.insert(comp, main)
                        try:
                            premises = expected_premises(Proof(rule, conclusion, (), comp, main))
                        except ProofError:
                            continue
                        kids = tuple(try_prove_cutfree(s, KT) for s in premises)
                        if None in kids:
                            continue
                        node = Proof(rule, conclusion, kids, comp, main)
                        if check_proof(node, system) is not None:
                            continue
                        if rule == "t":
                            assert try_prove_cutfree(conclusion, KT) is not None, node
                        else:
                            assert truth_table_valid(conclusion), node
                        accepted.add(rule)
        assert accepted == set(RULE_SCHEMA)


def deep_weakening_proof(levels=10_000, leaf=None):
    """p => p (or leaf, which concludes it) under alternating lw/lc steps,
    one rule per level."""
    proof = leaf or ax(p, "g1", "d1")
    for i in range(levels):
        proof = weaken(proof, p, "g1") if i % 2 == 0 else contract(proof, p, "g1")
    return proof


class TestDeepProofs:
    def test_iter_nodes_is_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        with pytest.raises(RecursionError):
            list(reference_iter_nodes(proof))
        nodes = list(iter_nodes(proof))
        assert len(nodes) == 10_001
        assert [len(path) for path, _ in nodes] == list(range(10_001))
        assert nodes[-1][1].rule == "ax"

    def test_format_proof_is_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        with pytest.raises(RecursionError):
            reference_format_proof(proof)
        verbose = reference_format_proof(deep_weakening_proof(300))
        assert verbose.startswith('(lc "p ;  => p ; " 0 (lw "p, p ;  => p ; " 0 (lc ')
        assert verbose.endswith('(ax "p ;  => p ; " -)' + ")" * 300)
        assert verbose.count("(") == 301
        # the root's sequent, then each premise's is the one its rule derives
        text = format_proof(proof)
        assert text.startswith('(lc "p ;  => p ; " 0 (lw 0 (lc 0 (lw 0 ')
        assert text.endswith("(ax -)" + ")" * 10_000)
        assert text.count("(") == 10_001 and text.count('"') == 2

    def test_metrics_are_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        for reference in (reference_proof_size, reference_proof_depth, reference_proof_length):
            with pytest.raises(RecursionError):
                reference(proof)
        assert proof_size(proof) == 10_001
        assert proof_depth(proof) == 10_000
        # p => p, then p, p => p and p => p in turn
        assert proof_length(proof) == 2 + 5_000 * 3 + 5_000 * 2

    def test_parse_proof_is_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        assert parse_proof(format_proof(proof)) == proof
        # the verbose text of older files, every sequent written
        seqs = ["p ;  => p ; ", "p, p ;  => p ; "]
        verbose = "".join(f'({"lc" if i % 2 else "lw"} "{seqs[(i + 1) % 2]}" 0 ' for i in reversed(range(10_000)))
        verbose += '(ax "p ;  => p ; " -)' + ")" * 10_000
        assert parse_proof(verbose) == proof

    def test_format_proof_text_is_iterative(self, shallow_stack):
        # the text is quadratic in the depth, so this chain is a short one
        proof = deep_weakening_proof(1_500)
        with pytest.raises(RecursionError):
            reference_format_proof_text(proof)
        lines = format_proof_text(proof).split("\n")
        assert len(lines) == 1_501
        assert lines[0] == "lc: p ;  => p ; "
        assert lines[-1] == "  " * 1_500 + "ax: p ;  => p ; "

    def test_check_proof_is_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        assert check_proof(proof, LKMINUS) is None
        broken = replace_node(proof, proof.children[0], dataclasses.replace(proof.children[0], rule="nope"))
        assert check_proof(broken, LKMINUS) == Violation((0,), "unknown rule 'nope'")

    def test_occurrence_summaries_are_iterative(self, shallow_stack):
        """A cut whose left occurrence runs down a 20,000-deep alternating
        lw/lc chain over ax(p): its ancestors are the 10,000 lc and the
        10,000 lw conclusions, the rw above the chain and the axiom."""
        chain = deep_weakening_proof(20_000, leaf=ax(p, "g1", "d2"))
        left = weaken(chain, p, "d1")
        proof = cut(left, weaken(ax(p, "g1", "d1"), p, "g2"), p, 2)
        assert check_proof(proof, LK) is None
        deep = ((0,), "d2", 0)
        assert not is_weak(proof, deep) and weight(proof, deep) == 10_001
        assert is_weak(proof, ((0,), "d1", 0)) and weight(proof, ((0,), "d1", 0)) == 0
        assert classify_cut(proof, ()).weight == 10_001 + 0
        again = deep_weakening_proof(20_000, leaf=ax(p, "g1", "d2"))
        fresh = cut(weaken(again, p, "d1"), proof.children[1], p, 2)
        assert classify_cut(fresh, ()) == classify_cut(proof, ())

    def test_cut_ancestry_memory_grows_with_the_depth(self):
        """is_tame on a cut whose left occurrence runs down a 3,000-deep
        chain: the cones link each entry to its descendant, and only the
        axiom entries get paths (the full paths took 36 MB here)."""
        import tracemalloc

        chain = deep_weakening_proof(3_000, leaf=ax(p, "g1", "d2"))
        proof = cut(weaken(chain, p, "d1"), weaken(ax(p, "g1", "d1"), p, "g2"), p, 2)
        tracemalloc.start()
        try:
            assert is_tame(proof) == (True, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert len(reference_ancestors(proof, ((0,), "d2", 0))) == 3_002

    def test_replace_at_is_iterative(self, shallow_stack):
        proof = deep_weakening_proof()
        leaf = ax(p, "g1", "d1")
        path = (0,) * 10_000
        assert subproof_at(proof, path).rule == "ax"
        replaced = replace_at(proof, path, leaf)
        assert replaced == proof and replaced is not proof
        assert subproof_at(replaced, path) is leaf
        assert replace_at(proof, (), leaf) is leaf

    def test_maehara_is_iterative(self, shallow_stack):
        from craig.maehara import maehara

        ann = maehara(deep_weakening_proof(3_000), LKMINUS)
        assert len(interpolants(ann)) == 3_001
        assert {c for _, c in interpolants(ann)} == {BOTTOM}

    def test_monochromatize_is_iterative(self, shallow_stack):
        """Cuts on p or q placed on side 2 over a 3,000-deep alternating
        lw/lc chain on p, where p occurs on side 1 only: a flip whose cone
        is the cut's own premises, a flip whose cone runs down the chain,
        and a flip with q replaced by p throughout the chain."""
        chain = deep_weakening_proof(3_000)  # p ; => p ;
        chain2 = deep_weakening_proof(3_000, leaf=ax(p, "g1", "d2"))  # p ; => ; p
        right = weaken(ax(p, "g1", "d1"), p, "g2")
        cases = [
            cut(weaken(chain, p, "d2"), right, p, 2),
            cut(weaken(chain2, p, "d1"), right, p, 2),
            cut(weaken(chain, q, "d2"), weaken(ax(p, "g1", "d1"), q, "g2"), q, 2),
        ]
        want = cut(weaken(chain, p, "d1"), weaken(ax(p, "g1", "d1"), p, "g1"), p, 1)
        for proof in cases:
            assert check_proof(proof, LKAT) is None
            fixed = monochromatize(proof, LKAT)
            assert fixed == want and check_proof(fixed, LKAT) is None
        # a premise with nothing to move is kept as it is
        assert monochromatize(cases[0], LKAT).children[0].children[0] is chain

    def test_equality_and_hash_are_iterative(self, shallow_stack):
        proof, other = deep_weakening_proof(), deep_weakening_proof()
        # the two differ only in the rule of their deepest node
        changed = deep_weakening_proof(leaf=Proof("nope", sequent([p], [], [p], [])))
        try:
            got = (proof is not other, proof == other, hash(proof) == hash(other), proof != changed)
        except RecursionError:
            # caught here: a report of its thousand frames would compare
            # the deep proofs they hold
            got = "RecursionError"
        assert got == (True, True, True, True)

    def test_deepcopy_is_iterative(self, shallow_stack):
        """The 20,000 lw/lc pairs of the CI floor job, checked so that
        every node stores a verdict, under a node that holds the chain
        twice."""
        chain = ax(p, "g1", "d1")
        for _ in range(20_000):
            chain = contract(weaken(chain, p, "g1"), p, "g1")
        assert check_proof(chain, LKMINUS) is None
        proof = Proof("twice", chain.sequentv, (chain, chain))
        try:
            fresh = copy.deepcopy(proof)
        except RecursionError:
            fresh = None  # caught here, as in the test above
        assert fresh is not None and fresh == proof
        assert fresh.children[0] is fresh.children[1] is not chain
        nodes = [fresh.children[0]]
        while nodes[-1].children:
            nodes.append(nodes[-1].children[0])
        assert len(nodes) == 40_001 and all(map(only_fields, nodes))

    def test_equality_compares_each_pair_of_nodes_once(self, monkeypatch):
        """Each node holds its premise twice, so the tree doubles per level;
        == compares the sequents of each pair of nodes once.  Proof.__eq__
        compares them with !=, which a tuple subclass answers with its
        __ne__, never its __eq__, so __ne__ is the one counted."""

        def doubling(leaf, levels=16):
            node = leaf
            for _ in range(levels):
                node = Proof("cut", node.sequentv, (node, node), "d1", p)
            return node

        compared = []
        real = sequent_module.Sequent.__ne__
        monkeypatch.setattr(sequent_module.Sequent, "__ne__", lambda a, b: compared.append(a) or real(a, b))
        left, right = doubling(ax(p, "g1", "d1")), doubling(ax(p, "g1", "d1"))
        assert left == right
        assert len(compared) == 17
        assert left != doubling(Proof("nope", sequent([p], [], [p], [])))


def cyclic_garbage(call):
    """The number of objects only the cyclic collector frees after call()."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def width_two_product(k):
    """(p0 | p1) & ... & (p2k-2 | p2k-1) realized against itself."""
    from craig.construct import realize_pruned
    from craig.formulas import formula_cnf, prune

    a = Or(Atom("p0"), Atom("p1"))
    for i in range(1, k):
        a = And(a, Or(Atom(f"p{2 * i}"), Atom(f"p{2 * i + 1}")))
    return realize_pruned(a, a, prune(formula_cnf(a)))


def prove_draws(seed=22, draws=40):
    """Cut-free proofs of seeded implications a => a | b, in lk-minus, k
    and s4."""
    from craig.construct import prove_cutfree
    from craig.sequent import S4

    rng = random.Random(seed)
    out = []
    for i in range(draws):
        system = (LKMINUS, K, S4)[i % 3]
        a, b = (random_formula(rng, depth=3, modal=system.modal) for _ in range(2))
        out.append(prove_cutfree(sequent([a], [], [], [Or(a, b)]), system))
    return out


def golden_proofs():
    """The realized, cut-free and atomic-cut proofs of the golden draws."""
    from craig.construct import realize_interpolant, realize_pruned
    from craig.formulas import clause_set_formula, parse_clause_set, parse_formula
    from craig.transform import eliminate_cuts
    from test_proof_golden import GOLDEN

    out = ()
    for a, b, cls, *_ in GOLDEN:
        a, b, cs = parse_formula(a), parse_formula(b), parse_clause_set(cls)
        realized = realize_pruned(a, b, cs)
        out += (realized, eliminate_cuts(realized).proof, realize_interpolant(a, b, clause_set_formula(cs), LKAT))
    return out


class TestCompactText:
    """format_proof leaves out what parse_proof derives and writes each
    distinct node once; parse_proof reads that text and the verbose text of
    older files alike."""

    def test_older_files_read_to_the_same_proof(self):
        trees = shared = 0
        for proof in differential_proofs() + tuple(prove_draws()):
            old = parse_proof(reference_format_proof(proof))
            assert old == proof
            if distinct_nodes(proof) == proof_size(proof):
                assert format_proof(old) == format_proof(proof)
                trees += 1
            else:
                # the old text copies each shared subproof, so it reads to
                # the unshared tree, whose text copies it too
                assert distinct_nodes(old) == proof_size(proof)
                assert parse_proof(format_proof(old)) == proof
                shared += 1
        assert trees > 100 and shared > 40

    def test_the_text_reads_back_to_the_same_sharing(self):
        for proof in differential_proofs() + tuple(prove_draws()):
            text = format_proof(proof)
            back = parse_proof(text)
            assert back == proof and distinct_nodes(back) == distinct_nodes(proof)
            assert format_proof(back) == text
            assert len(text) <= len(reference_format_proof(proof))

    @pytest.mark.parametrize("text, system", UNSOUND_PROOFS)
    def test_a_premise_its_rule_does_not_derive_keeps_its_sequent(self, text, system):
        proof = parse_proof(text)
        compact = format_proof(proof)
        assert compact.count('"') == 4
        assert parse_proof(compact) == proof and format_proof(parse_proof(compact)) == compact

    def test_shared_subproofs_are_referenced_and_parsed_once(self):
        proof = width_two_product(6)
        assert (proof_size(proof), distinct_nodes(proof)) == (27_456, 5_826)
        text = format_proof(proof)
        assert sequent_module._tokenize_sexpr(text).count("(") == 5_826 and "@" in text
        back = parse_proof(text)
        assert back == proof and distinct_nodes(back) == 5_826
        assert distinct_nodes(parse_proof(reference_format_proof(proof))) == 27_456

    def test_a_checked_node_is_written_from_its_verdict(self, monkeypatch):
        """A checked proof writes the text of its deep copy, which stores no
        verdict, and derives no premise sequent to write it."""
        proofs = golden_proofs() + differential_proofs() + tuple(prove_draws())
        derived = []
        real = sequent_module.premises_of
        monkeypatch.setattr(sequent_module, "premises_of",
                            lambda *instance: derived.append(instance) or real(*instance))
        for proof in proofs:
            assert check_proof(proof, passing_system(proof)) is None
            fresh = copy.deepcopy(proof)
            assert not any(hasattr(node, "_passed") for node in distinct_preorder(fresh))
            derived.clear()
            text = format_proof(proof)
            assert derived == []
            assert format_proof(fresh) == text
            assert len(derived) == sum(1 for node in distinct_preorder(fresh) if node.children)

    def test_the_reader_builds_one_proof_per_distinct_node(self, monkeypatch):
        texts = [format_proof(proof) for proof in differential_proofs() + tuple(prove_draws())]
        built = []
        real = Proof.__post_init__
        monkeypatch.setattr(Proof, "__post_init__", lambda node: built.append(node) or real(node))
        omitted = 0
        for text in texts:
            built.clear()
            back = parse_proof(text)
            assert len(built) == distinct_nodes(back)
            omitted += text.count("(") - len(re.findall(r'\([^ ()]+ "', text))
        assert omitted > 10_000

    def test_pickle_writes_the_text(self):
        chain = ax(p, "g1", "d1")
        for _ in range(20_000):
            chain = contract(weaken(chain, p, "g1"), p, "g1")
        product = width_two_product(6)
        for proof in (chain, product):
            assert check_proof(proof, LKAT) is None
            back = pickle.loads(pickle.dumps(proof))
            assert back is not proof and back == proof
            assert distinct_nodes(back) == distinct_nodes(proof)
            assert only_fields(back) and only_fields(back.children[0])
        assert distinct_nodes(chain) == 40_001

    def test_pickle_shares_only_within_one_proof(self):
        proof = example_sigma()
        first, premise = pickle.loads(pickle.dumps([proof, proof.children[0]]))
        assert premise == first.children[0] and premise is not first.children[0]


def raising(error, call, *args):
    """call(*args), which must raise error; the error is dropped."""
    try:
        call(*args)
    except error:
        return
    raise AssertionError(f"{call.__name__} did not raise {error.__name__}")


class TestNoReferenceCycles:
    """No public operation leaves cyclic garbage: with the collector off,
    each call, a failing one too, frees all it made by reference counts.
    The recursive walks that kept themselves alive through closure cells
    broke this once, each call leaving a cycle with its results for the
    collector; tests/test_layering.py rejects that pattern in the source."""

    def test_format_proof(self):
        proof = example_sigma()
        assert cyclic_garbage(lambda: format_proof(proof)) == 0

    def test_maehara(self):
        from craig.maehara import maehara

        proof = example_sigma()
        assert cyclic_garbage(lambda: maehara(proof, LKAT)) == 0

    def test_maehara_on_a_kd4_proof(self):
        from craig.construct import prove_cutfree
        from craig.maehara import maehara

        proof = prove_cutfree(sequent([Box(p), Box(Neg(p))]), KD4)
        assert cyclic_garbage(lambda: maehara(proof, KD4)) == 0

    def test_maehara_refusal(self):
        from craig.maehara import InterpolationError, UnsupportedRule, maehara
        from craig.sequent import System

        unfit = Proof("lw", sequent([p], [], [], [q]), (ax(r),), "g1", p)
        serial = System("serial", frozenset({"d"}), "modal-atomic")
        assert cyclic_garbage(lambda: raising(InterpolationError, maehara, unfit, LKMINUS)) == 0
        assert cyclic_garbage(lambda: raising(UnsupportedRule, maehara, ax(p), serial)) == 0

    def test_fail_tree_to_model(self):
        from craig.construct import _FailNode, _fail_tree_to_model

        leaf = _FailNode(sequent([p], [], [q]), [])
        tree = _FailNode(sequent([Box(p)], [], [Box(q)]), [leaf, _FailNode(sequent([], [], [p]), [leaf])])
        assert cyclic_garbage(lambda: _fail_tree_to_model(tree)) == 0

    def test_enumerate_cutfree_interpolants(self):
        from craig.construct import enumerate_cutfree_interpolants

        s = sequent([pq], [], [], [porq])
        assert cyclic_garbage(lambda: enumerate_cutfree_interpolants(s, LKMINUS, 3)) == 0

    def test_realize_interpolant(self):
        from craig.construct import realize_interpolant

        assert cyclic_garbage(lambda: realize_interpolant(pq, porq, p, LKAT)) == 0

    def test_realize_pruned(self):
        from craig.construct import realize_pruned
        from craig.formulas import clause

        cs = frozenset([clause("p"), clause("q")])
        assert cyclic_garbage(lambda: realize_pruned(pq, porq, cs)) == 0

    def test_refute(self):
        from craig.formulas import clause
        from craig.resolution import refute

        cs = frozenset([clause("p", "q"), clause("~p"), clause("~q")])
        assert cyclic_garbage(lambda: refute(cs)) == 0

    def test_enumerate_refutations(self):
        from craig.formulas import clause
        from craig.resolution import enumerate_refutations

        cs = frozenset([clause("p"), clause("~p")])
        assert cyclic_garbage(lambda: list(enumerate_refutations(cs, 3))) == 0

    def test_mcnf(self):
        from craig.formulas import mcnf

        assert cyclic_garbage(lambda: mcnf(Or(Box(p), And(Box(q), p)))) == 0

    def test_eliminate_cuts(self):
        from craig.transform import eliminate_cuts

        proof = example_sigma()
        assert cyclic_garbage(lambda: eliminate_cuts(proof)) == 0

    def test_pruned_subsumption_pipeline(self):
        from craig.construct import pruned_subsumption_pipeline
        from craig.formulas import clause

        cs = frozenset([clause("p"), clause("q")])
        assert cyclic_garbage(lambda: pruned_subsumption_pipeline(pq, porq, cs)) == 0

    def test_is_tame(self):
        proofs = (example_sigma(), omega_proof())
        assert cyclic_garbage(lambda: [is_tame(proof) for proof in proofs]) == 0

    @pytest.mark.parametrize("system, s", [
        (LKMINUS, sequent([p], [], [q])),
        (K, sequent([Box(p)], [], [Box(q)])),
        (KT, sequent([Box(p)], [], [q])),
    ])
    def test_prove_cutfree_not_provable(self, system, s):
        from craig.construct import NotProvable, prove_cutfree

        assert cyclic_garbage(lambda: raising(NotProvable, prove_cutfree, s, system)) == 0

    def test_parse_proof_truncated(self):
        text = format_proof(example_sigma())
        assert cyclic_garbage(lambda: raising(ProofError, parse_proof, text[:len(text) // 2])) == 0

    def test_check_proof(self):
        proof = example_sigma()
        assert cyclic_garbage(lambda: (check_proof(proof, LKAT), check_proof(proof, LKMINUS))) == 0

    def test_refute_partitioned_and_interpolant_from_refutation(self):
        from craig.formulas import clause
        from craig.resolution import Partition, interpolant_from_refutation, refute_partitioned

        a_clauses, b_clauses = [clause("p"), clause("q")], [clause("~p", "~q")]
        part = Partition.from_vars({"p", "q"}, {"p", "q"})
        rp = refute_partitioned(a_clauses, b_clauses)
        assert cyclic_garbage(lambda: refute_partitioned(a_clauses, b_clauses)) == 0
        assert cyclic_garbage(lambda: interpolant_from_refutation(rp, part)) == 0

    def test_enumerate_interpolants(self):
        from craig.formulas import enumerate_interpolants

        assert cyclic_garbage(lambda: enumerate_interpolants(pq, porq)) == 0

    def test_neg_invert(self):
        from craig.transform import neg_invert

        proof = infer("rneg", (ax(p, "g2", "d1"),), Neg(p), "d2")
        assert cyclic_garbage(lambda: neg_invert(proof, "d2", 0)) == 0

    @pytest.mark.parametrize("argv", [
        ["repro", "prop3.2"], ["repro", "thm5.4"], ["parse", "p & q"], ["prove", "p & q ; => ; p | q"],
        ["nonsense"], ["prove"], ["--help"],
    ], ids=" ".join)
    def test_cli_main(self, argv, capsys):
        from craig.cli import build_parser, main

        build_parser()  # once per process, and kept
        assert cyclic_garbage(lambda: main(argv)) == 0

    def test_monochromatize(self):
        # a cut on p placed on side 2 while p occurs only on side 1: the
        # cut formula's cone is flipped
        proof = cut(weaken(ax(p, "g1", "d1"), p, "d2"), weaken(ax(p, "g1", "d1"), p, "g2"), p, 2)
        assert cyclic_garbage(lambda: monochromatize(proof, LKAT)) == 0


# ---------------------------------------------------------------------------
# The order and modality of sequents, checked at the root only
# ---------------------------------------------------------------------------

def frozen_check_proof(p, system):
    """check_proof as it was before the canonical order and the modality of
    each sequent were checked at the root only: every distinct node walked
    checks its own sequent (d4, which came later, counts as a modal rule).
    It stores its verdicts in _frozen_passed, so it never reads
    check_proof's."""
    walked = {}
    stack = [(p, None)]
    while stack:
        node, link = stack.pop()
        if id(node) in walked or system in getattr(node, "_frozen_passed", ()):
            continue
        bad = frozen_violation(node, system)
        if bad is not None:
            below, reason = bad
            path = []
            while link is not None:
                i, link = link
                path.append(i)
            return Violation(tuple(reversed(path)) + below, reason)
        walked[id(node)] = node
        kids = node.children
        for i in range(len(kids) - 1, -1, -1):
            stack.append((kids[i], (i, link)))
    for node in walked.values():
        facts = node.__dict__
        facts["_frozen_passed"] = facts.get("_frozen_passed", ()) + (system,)
    return None


def frozen_violation(node, system):
    s = node.sequentv
    for c, fs in zip(COMPONENTS, s):
        if not sequent_module._in_order(fs):
            return (), f"component {c} is not canonically sorted"
    if not system.modal:
        if any(sequent_module.is_modal(f) for fs in s for f in fs):
            return (), "boxed formula in a non-modal system"
    if node.rule == "ax":
        ants, sucs = s.antecedent(), s.succedent()
        if len(ants) != 1 or len(sucs) != 1 or ants[0] != sucs[0]:
            return (), "axiom must be exactly f => f"
        if node.children:
            return (), "axiom has no premises"
        return None
    if node.rule == "bot":
        if s.antecedent() != (BOTTOM,) or s.succedent() or node.children:
            return (), "false-axiom must be exactly false =>"
        return None
    if node.rule in ("k", "d", "d4", "t", "4") and node.rule not in system.modal_rules:
        return (), f"rule {node.rule} not available in {system.name}"
    try:
        expected = expected_premises(node)
    except ProofError as e:
        return (), str(e)
    if node.rule == "cut" and not sequent_module.cut_allowed(node.main_formula, system, s):
        return (), f"cut on {format_formula(node.main_formula)} violates the {system.name} policy"
    if len(expected) != len(node.children):
        return (), f"rule {node.rule} expects {len(expected)} premises"
    for i, (want, child) in enumerate(zip(expected, node.children)):
        if child.sequentv != want:
            return (i,), f"premise is {format_sequent(child.sequentv)} but {node.rule} needs {format_sequent(want)}"
    return None


def mutated_sequent(rng, s):
    """s with one component reversed, shrunk by a formula, swapped with its
    partition sibling, or boxed formula by formula; None when the chosen
    change leaves s as it is."""
    parts = list(s)
    i = rng.randrange(4)
    kind = rng.choice(("reversed", "shrunk", "swapped", "boxed"))
    if kind == "reversed":
        parts[i] = parts[i][::-1]
    elif kind == "shrunk" and parts[i]:
        k = rng.randrange(len(parts[i]))
        parts[i] = parts[i][:k] + parts[i][k + 1:]
    elif kind == "swapped":
        j = i ^ 1  # g1 and g2, or d1 and d2
        parts[i], parts[j] = parts[j], parts[i]
    elif kind == "boxed":
        parts[i] = tuple(map(Box, parts[i]))
    mutated = Sequent(*parts)
    return None if mutated == s else mutated


def boxed_cut_below(node, side):
    """node again under a cut on a boxed atom that both premises weaken in."""
    f = Box(Atom("zz"))
    return cut(weaken_to(node, node.sequentv.insert(f"d{side}", f)),
               weaken_to(node, node.sequentv.insert(f"g{side}", f)), f, side)


class TestRootOnlyOrderCheck:
    """check_proof checks the order and modality of the root sequent and of
    the cut formulas only, and gives the Violation that the checker which
    checked every sequent gives."""

    SYSTEMS = (LKAT, LKMINUS, LK, K)

    def test_same_violations_as_the_frozen_checker_on_mutated_proofs(self):
        rng = random.Random(14)
        compared = Counter()
        for proof in differential_proofs():
            nodes = [node for _, node in iter_nodes(proof)]
            for _ in range(8):
                target = rng.choice(nodes)
                if rng.random() < 0.2:
                    bad = boxed_cut_below(target, rng.choice((1, 2)))
                else:
                    s = mutated_sequent(rng, target.sequentv)
                    if s is None:
                        continue
                    bad = dataclasses.replace(target, sequentv=s)
                # a quarter of the time the mutated node is the root, the
                # only node whose own sequent can be out of order or boxed
                broken = bad if rng.random() < 0.25 else replace_node(proof, target, bad)
                for system in self.SYSTEMS:
                    want = frozen_check_proof(broken, system)
                    assert check_proof(broken, system) == want
                    compared[want.reason.split(" ")[0] if want else None] += 1
        # every kind of verdict, boxed cut formulas and mismatched premises
        # among them, is compared many times
        assert sum(compared.values()) > 2_500
        assert compared[None] > 200 and compared["boxed"] > 300
        assert compared["premise"] > 1_000 and compared["component"] > 50

    def test_a_boxed_cut_formula_is_reported_at_the_left_premise(self):
        proof = contract(boxed_cut_below(weaken(ax(p, "g1", "d1"), p, "g1"), 2), p, "g1")
        assert check_proof(proof, K) is None
        want = Violation((0, 0), "boxed formula in a non-modal system")
        assert frozen_check_proof(proof, LK) == want
        assert check_proof(proof, LK) == want
        assert "violates the lk-at policy" in check_proof(proof, LKAT).reason

    def test_the_root_checks_are_skipped_once_the_root_has_passed(self, monkeypatch):
        proof = copy.deepcopy(example_sigma())
        assert check_proof(proof, LK) is None
        calls = []
        monkeypatch.setattr(sequent_module, "_in_order", lambda fs: calls.append(fs) or True)
        assert check_proof(proof, LK) is None
        assert calls == []
        assert check_proof(proof, LKMINUS) is not None
        assert len(calls) == 4  # the root's components, and no other node's
