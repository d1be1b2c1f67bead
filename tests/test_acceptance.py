"""Acceptance suite: one test per criterion, each printing a pass line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every expected value is either fixed by hand from the worked
examples or computed by the brute-force semantic oracles in craig.formulas.
"""

import random
import time

from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Box,
    Literal,
    Neg,
    Or,
    TOP,
    clause,
    clause_set_formula,
    cnf,
    cross,
    entails,
    enumerate_interpolants,
    equiv,
    eval_formula,
    format_clause_set,
    format_formula,
    formula_cnf,
    formula_length,
    is_pruned_clause_set,
    is_pruned_interpolant,
    nnf,
    parse_clause_set,
    parse_formula,
    prune,
    subsumes,
    vars_of,
)
from craig.maehara import is_nnf_interpolant, maehara
from craig.resolution import (
    Input,
    Partition,
    ResolutionProof,
    Satisfiable,
    enumerate_refutations,
    format_refutation,
    interpolant_from_refutation,
    parse_refutation,
    refute,
    refute_partitioned,
)
from craig.sequent import (
    K,
    LK,
    LKAT,
    LKMINUS,
    LKMONO,
    check_proof,
    classify_cut,
    cut,
    first_index,
    format_proof,
    is_tame,
    parse_proof,
    proof_length,
    sequent,
    weaken,
    weight,
)
from craig.transform import (
    eliminate_cuts,
    is_w_reduced,
    literal_cuts_to_atomic,
    neg_invert,
    w_reduce,
)
from craig.construct import (
    enumerate_cutfree_interpolants,
    prove_cutfree,
    realize_clause,
    realize_interpolant,
    realize_pruned,
    try_prove_cutfree,
)
from conftest import assignments_over, iter_nodes, random_clause_set, random_formula, random_nnf

p, q, r = Atom("p"), Atom("q"), Atom("r")


def report(number, label, started):
    print(f"[pass] criterion {number}: {label} ({time.time() - started:.1f}s)")


def random_partitioned_cnf(rng):
    shared = ["s1", "s2"]
    a_pool = shared + ["a1", "a2"]
    b_pool = shared + ["b1"]
    a_cls, b_cls = [], []
    total = rng.randint(2, 8)
    for i in range(total):
        pool = a_pool if i % 2 == 0 else b_pool
        lits = frozenset(
            Literal(rng.random() < 0.5, Atom(rng.choice(pool)))
            for _ in range(rng.randint(1, 3))
        )
        (a_cls if i % 2 == 0 else b_cls).append(lits)
    if not a_cls or not b_cls:
        return None
    return a_cls, b_cls


def test_criterion_1_resolution_interpolation_soundness():
    started = time.time()
    rng = random.Random(101)
    part = Partition.from_vars({"s1", "s2", "a1", "a2"}, {"s1", "s2", "b1"})
    checked = 0
    while checked < 500:
        drawn = random_partitioned_cnf(rng)
        if drawn is None:
            continue
        a_cls, b_cls = drawn
        out = refute_partitioned(a_cls, b_cls)
        if isinstance(out, Satisfiable):
            continue
        c = interpolant_from_refutation(out, part)
        a_formula = clause_set_formula(frozenset(a_cls))
        b_formula = clause_set_formula(frozenset(b_cls))
        assert vars_of(c) <= part.shared
        assert entails(a_formula, c)
        assert entails(b_formula, Neg(c))
        checked += 1
    assert time.time() - started < 10
    report(1, "500 resolution interpolants pass the reverse checks", started)


def test_criterion_2_cutfree_lk_incompleteness():
    started = time.time()
    from craig.sequent import respects_subformula_property

    seq = sequent([And(p, q)], [], [], [Or(p, q)])
    proof = prove_cutfree(seq, LKMINUS)
    assert respects_subformula_property(proof)
    out = enumerate_cutfree_interpolants(seq, LKMINUS, 6)
    assert out
    for m in out:
        assert equiv(m, p) or equiv(m, q)
        assert not equiv(m, And(p, q))
        assert not equiv(m, Or(p, q))
    assert time.time() - started < 30
    report(2, f"{len(out)} cut-free interpolant shapes, all equivalent to p or q", started)


def test_criterion_3_resolution_incompleteness():
    started = time.time()
    cs = frozenset([clause("p"), clause("q"), clause("~p"), clause("~q")])
    part = Partition.from_vars({"p", "q"}, {"p", "q"})
    b_inputs = (clause("~p"), clause("~q"))
    count = 0
    for rp in enumerate_refutations(cs, 6):
        relabeled = ResolutionProof(
            tuple(
                Input(n.clause, "B" if n.clause in b_inputs else "A")
                if isinstance(n, Input)
                else n
                for n in rp.nodes
            ),
            rp.root,
        )
        c = interpolant_from_refutation(relabeled, part)
        assert equiv(c, p) or equiv(c, q)
        assert not equiv(c, And(p, q)) and not equiv(c, Or(p, q))
        count += 1
    assert count > 0
    assert time.time() - started < 5
    report(3, f"{count} refutations, interpolants only p-like or q-like", started)


def _valid_implications(rng, want):
    found = []
    while len(found) < want:
        a = random_formula(rng, atoms=("p", "q", "r", "u"), depth=3)
        b = random_formula(rng, atoms=("p", "q", "r", "v"), depth=3)
        try:
            targets = enumerate_interpolants(a, b)
        except Exception:
            continue
        found.append((a, b, targets))
    return found


def test_criterion_4_lkat_completeness():
    started = time.time()
    rng = random.Random(104)
    instances = _valid_implications(rng, 47)
    # dense hand-picked instances exercise many classes
    for a, b in [
        (And(And(p, q), r), Or(Or(p, q), r)),
        (And(p, q), Or(p, q)),
        (p, p),
    ]:
        instances.append((a, b, enumerate_interpolants(a, b)))
    assert len(instances) == 50
    classes = 0
    for a, b, targets in instances:
        for target in targets:
            proof = realize_interpolant(a, b, target, LKAT, cminus_cap=10**6)
            assert check_proof(proof, LKAT) is None
            assert equiv(maehara(proof, LKAT).interpolant, target)
            classes += 1
    assert time.time() - started < 60
    report(4, f"50 implications, every one of {classes} classes realized", started)


def _pruned_instances(rng, want):
    found = []
    while len(found) < want:
        a = random_formula(rng, atoms=("p", "q", "r", "u"), depth=3)
        b = random_formula(rng, atoms=("p", "q", "r", "v"), depth=3)
        try:
            targets = enumerate_interpolants(a, b)
        except Exception:
            continue
        target = targets[rng.randrange(len(targets))]
        cs = prune(formula_cnf(target))
        if not cs or not is_pruned_interpolant(cs, a, b):
            continue
        found.append((a, b, cs))
    return found


def test_criterion_5_pipeline():
    started = time.time()
    rng = random.Random(105)
    for a, b, cs in _pruned_instances(rng, 100):
        realized = realize_pruned(a, b, cs)
        ok, witness = is_tame(realized)
        assert ok, witness
        for path, node in iter_nodes(realized):
            if node.rule == "cut":
                assert classify_cut(realized, path).type_r
        before = formula_cnf(maehara(realized, LKAT).interpolant)
        assert before == cs
        result = eliminate_cuts(realized)
        assert check_proof(result.proof, LKMINUS) is None
        final = formula_cnf(maehara(result.proof, LKMINUS).interpolant)
        assert subsumes(cs, final)
        chain = [before] + [step.interpolant_cnf for step in result.trace]
        for x, y in zip(chain, chain[1:]):
            assert subsumes(x, y)
    assert time.time() - started < 120
    report(5, "100 pruned-interpolant pipelines: tame, exact, subsumed", started)


def _neg_invert_instances(rng, want):
    from conftest import random_formula

    found = []
    while len(found) < want:
        a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
        extra = [Atom("q"), Neg(Atom("r"))]
        target = Neg(Atom(rng.choice(("p", "q", "r"))))
        seq = sequent([a], [], [], [target] + extra)
        proof = try_prove_cutfree(seq, LKMINUS)
        if proof is None:
            continue
        found.append((proof, target))
    return found


def test_criterion_6_lemma_suite():
    started = time.time()
    rng = random.Random(106)
    # negation inversion: interpolant identical as an AST, length at most doubled
    for proof, target in _neg_invert_instances(rng, 100):
        idx = first_index(proof.sequentv, "d2", target)
        out = neg_invert(proof, "d2", idx)
        assert maehara(out, LK).interpolant == maehara(proof, LK).interpolant
        assert proof_length(out) <= 2 * proof_length(proof)
        assert check_proof(out, LKMINUS) is None

    # literal cuts to positive cuts: clause-set-exact interpolants
    converted = 0
    while converted < 30:
        a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
        lits = [Literal(True, Atom("p")), Literal(False, Atom("q"))]
        try:
            proof = realize_clause(a, frozenset(lits))
        except Exception:
            continue
        before = formula_cnf(maehara(proof, LK).interpolant)
        out = literal_cuts_to_atomic(proof)
        assert check_proof(out, LKAT) is None
        assert formula_cnf(maehara(out, LK).interpolant) == before
        converted += 1

    # weakening normalization: predicate, interpolant AST, end-sequent weights
    reduced = 0
    while reduced < 50:
        a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
        b = random_formula(rng, atoms=("q", "r"), depth=2)
        proof = try_prove_cutfree(sequent([a], [], [], [b]), LKMINUS)
        if proof is None:
            continue
        noisy = weaken(proof, Atom("u"), "d2")
        out = w_reduce(noisy)
        assert is_w_reduced(out)
        assert out.sequentv == noisy.sequentv
        assert maehara(out, LK).interpolant == maehara(noisy, LK).interpolant
        for comp, idx, _ in noisy.sequentv.occurrences():
            occ = ((), comp, idx)
            assert weight(noisy, occ) == weight(out, occ)
        reduced += 1
    report(6, "inversion, cut conversion, and weakening lemmas verified", started)


def test_criterion_7_cnf_subsumption_prune_algebra():
    started = time.time()
    rng = random.Random(107)
    for _ in range(1000):
        a = random_nnf(rng, depth=3)
        b = random_nnf(rng, depth=3)
        c = random_nnf(rng, depth=3)
        lit = random_nnf(rng, depth=0)
        f = random_formula(rng, depth=4)
        assert equiv(clause_set_formula(cnf(nnf(f))), f)
        for op in (And, Or):
            assert cnf(op(a, b)) == cnf(op(b, a))
            assert cnf(op(op(a, b), c)) == cnf(op(a, op(b, c)))
        assert cnf(And(a, a)) == cnf(a)
        assert cnf(Or(lit, lit)) == cnf(lit)
        assert cnf(And(a, TOP)) == cnf(a)
        assert cnf(Or(a, BOTTOM)) == cnf(a)
    for _ in range(1000):
        sa = random_clause_set(rng)
        sb = random_clause_set(rng)
        sc = random_clause_set(rng)
        if sa >= sb:
            assert subsumes(sa, sb)
        if subsumes(sa, sb):
            assert subsumes(sa | sc, sb | sc)
            assert subsumes(cross(sa, sc), cross(sb, sc))
            if subsumes(sb, sc):
                assert subsumes(sa, sc)
        assert subsumes(cross(sa, sb) | sc, cross(sa | sc, sb | sc))
    names = ["p", "q", "r", "s"]
    for _ in range(200):
        cs = random_clause_set(rng)
        pruned = prune(cs)
        assert is_pruned_clause_set(pruned)
        fml, pfml = clause_set_formula(cs), clause_set_formula(pruned)
        for assignment in assignments_over(names):
            if eval_formula(fml, assignment):
                assert eval_formula(pfml, assignment)
        reduced = sorted(vars_of(pfml))
        rest = sorted(set(vars_of(fml)) - set(reduced))
        for assignment in assignments_over(reduced):
            if eval_formula(pfml, assignment):
                assert any(
                    eval_formula(fml, {**ext, **assignment})
                    for ext in assignments_over(rest)
                )
    assert time.time() - started < 20
    report(7, "clause-set algebra identities and pruning semantics hold", started)


def _random_checked_proofs(rng, want):
    out = []
    while len(out) < want:
        kind = rng.random()
        if kind < 0.5:
            a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
            b = random_formula(rng, atoms=("q", "r", "u"), depth=3)
            proof = try_prove_cutfree(sequent([a], [], [], [b]), LKMINUS)
            if proof is None:
                continue
            out.append((proof, LKMINUS))
        elif kind < 0.8:
            a = random_formula(rng, atoms=("p", "q", "u"), depth=2)
            b = random_formula(rng, atoms=("p", "q", "v"), depth=2)
            try:
                targets = enumerate_interpolants(a, b)
            except Exception:
                continue
            target = targets[rng.randrange(len(targets))]
            proof = realize_interpolant(a, b, target, LKAT)
            out.append((proof, LKAT))
        else:
            # a monochromatic composite cut between two searched proofs,
            # placed on the partition side that covers its variables
            a = random_formula(rng, atoms=("p", "q"), depth=2)
            b = random_formula(rng, atoms=("p", "q", "v"), depth=2)
            c = random_formula(rng, atoms=("p", "q"), depth=1)
            if vars_of(c) <= vars_of(b):
                side = 2
                left = try_prove_cutfree(sequent([a], [], [], [b, c]), LKMINUS)
                right = try_prove_cutfree(sequent([a], [c], [], [b]), LKMINUS)
            elif vars_of(c) <= vars_of(a):
                side = 1
                left = try_prove_cutfree(sequent([a], [], [c], [b]), LKMINUS)
                right = try_prove_cutfree(sequent([a, c], [], [], [b]), LKMINUS)
            else:
                continue
            if left is None or right is None:
                continue
            out.append((cut(left, right, c, side), LKMONO))
    return out


def test_criterion_8_maehara_soundness():
    started = time.time()
    rng = random.Random(108)
    for proof, system in _random_checked_proofs(rng, 300):
        assert check_proof(proof, system) is None
        m = maehara(proof, system).interpolant
        s = proof.sequentv
        assert vars_of(m) <= s.side_vars(1) & s.side_vars(2)
        def conj(fs):
            out = TOP
            for g in fs:
                out = And(out, g)
            return out
        def disj(fs):
            out = BOTTOM
            for g in fs:
                out = Or(out, g)
            return out
        assert entails(conj(s.g1), disj(list(s.d1) + [m]))
        assert entails(conj([m] + list(s.g2)), disj(s.d2))
        assert formula_length(m) <= proof_length(proof)
        assert is_nnf_interpolant(m)
    assert time.time() - started < 120
    report(8, "300 proofs: variable condition, flanks, length bound", started)


def test_criterion_9_modal():
    started = time.time()
    a, b = Box(And(p, q)), Box(Or(p, q))
    seq = sequent([a], [], [], [b])
    shapes = enumerate_cutfree_interpolants(seq, K, 6)
    targets = [a, b, And(Box(p), Box(q))]

    def k_equiv(x, y):
        return (
            try_prove_cutfree(sequent([x], [], [], [y]), K) is not None
            and try_prove_cutfree(sequent([y], [], [], [x]), K) is not None
        )

    for target in targets:
        assert not any(k_equiv(m, target) for m in shapes)
        proof = realize_interpolant(a, b, target, K)
        assert check_proof(proof, K) is None
        got = maehara(proof, K).interpolant
        assert k_equiv(got, target)
        for _, node in iter_nodes(proof):
            if node.rule == "cut":
                f = node.main_formula
                assert isinstance(f, (Atom, Box)) or f in (BOTTOM, TOP)
    assert time.time() - started < 120
    report(9, "cut-free K never reaches the three targets; realization does", started)


def test_criterion_10_round_trip_io():
    started = time.time()
    rng = random.Random(110)
    for _ in range(1000):
        f = random_formula(rng, depth=5, modal=True)
        assert parse_formula(format_formula(f)) == f
    proofs = 0
    while proofs < 1000:
        a = random_formula(rng, atoms=("p", "q", "r"), depth=2)
        b = random_formula(rng, atoms=("q", "r"), depth=2)
        proof = try_prove_cutfree(sequent([a], [], [], [Or(a, b)]), LKMINUS)
        if proof is None:
            continue
        text = format_proof(proof)
        assert parse_proof(text) == proof
        assert format_proof(parse_proof(text)) == text
        proofs += 1
    refutations = 0
    while refutations < 1000:
        cs = random_clause_set(rng, atoms=("p", "q", "r"), max_clauses=6, max_width=2)
        out = refute(cs)
        if isinstance(out, Satisfiable):
            continue
        text = format_refutation(out)
        assert parse_refutation(text) == out
        assert format_refutation(parse_refutation(text)) == text
        refutations += 1
    for _ in range(200):
        cs = random_clause_set(rng)
        text = format_clause_set(cs)
        assert parse_clause_set(text) == cs
        assert format_clause_set(parse_clause_set(text)) == text
    report(10, "1000 formulas, 1000 proofs, 1000 refutations round-trip", started)
