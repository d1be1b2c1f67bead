"""One instance of each instance set: the calls into craig, then an
independent check of every output.  A failed check raises CheckFailed;
`NotProvable` and `Satisfiable` are expected outcomes and are checked, not
counted as failures.  Counts go into a Counter and must repeat exactly from
pass to pass."""

import dataclasses
import itertools

from craig.construct import NotProvable
from craig.formulas import And, Atom, Literal, Or, clause_formula
from craig.resolution import ResolutionProof, Satisfiable
from craig.sequent import K, LKAT, LKMINUS

import gen


class CheckFailed(Exception):
    pass


def expect(ok, why):
    if not ok:
        raise CheckFailed(why)


def expect_proof(api, proof, system):
    bad = api.check_proof(proof, system)
    expect(bad is None, f"check_proof({system.name}): {bad}")


def expect_refutation(api, rp):
    bad = api.check_refutation(rp)
    expect(bad is None, f"check_refutation: {bad}")


def expect_model(api, formulas, assignment):
    expect(all(api.eval_formula(f, assignment) for f in formulas),
           "the assignment falsifies an input clause")


def proof_nodes(p):
    """(path, node) for every node, without recursion."""
    stack = [((), p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        stack.extend((path + (i,), c) for i, c in enumerate(node.children))


def _falsifies(api, seq, **where):
    return all(api.eval_formula(f, **where) for f in seq.antecedent()) and not any(
        api.eval_formula(f, **where) for f in seq.succedent()
    )


def _s4_countermodel(api, seq):
    """A falsifying reflexive, transitive model with one or two worlds."""
    names = sorted(seq.all_vars())
    frames = [{0: {0}}] + [
        {0: {0} | ({1} if a else set()), 1: {1} | ({0} if b else set())}
        for a, b in itertools.product((False, True), repeat=2)
    ]
    for succ in frames:
        worlds = sorted(succ)
        for bits in itertools.product((False, True), repeat=len(names) * len(worlds)):
            val = {w: dict(zip(names, bits[w * len(names):])) for w in worlds}
            model = api.make_model(worlds, succ, val)
            if _falsifies(api, seq, model=model, world=0):
                return model
    return None


def expect_countermodel(api, seq, system, countermodel):
    if system.name == "s4":
        expect(_s4_countermodel(api, seq) is not None,
               "no small S4 countermodel for an unprovable sequent")
    elif system.modal:
        expect(countermodel is not None and _falsifies(api, seq, model=countermodel, world=0),
               "the Kripke countermodel does not falsify the sequent")
    else:
        assignment = {x: False for f in seq.antecedent() + seq.succedent()
                      for x in api.vars_of(f)}
        assignment.update(countermodel)
        expect(_falsifies(api, seq, assignment=assignment),
               "the countermodel does not falsify the sequent")


def run_pipeline(api, inst, counts):
    a, b, k, cs = inst
    target = api.enumerate_interpolants(a, b)[k]
    expect(api.prune(api.formula_cnf(target)) == cs, "the pruned class differs from the draw")
    realized = api.realize_pruned(a, b, cs)
    ok, witness = api.is_tame(realized)
    expect(ok, f"realized proof is not tame: {witness}")
    size = 0
    for path, node in proof_nodes(realized):
        size += 1
        if node.rule == "cut":
            expect(api.classify_cut(realized, path).type_r, f"cut at {path} is not of type R")
    before = api.formula_cnf(api.maehara(realized, LKAT).interpolant)
    expect(before == cs, "the realized interpolant is not the pruned class")
    result = api.eliminate_cuts(realized)
    expect_proof(api, result.proof, LKMINUS)
    final = api.formula_cnf(api.maehara(result.proof, LKMINUS).interpolant)
    expect(api.subsumes(cs, final), "the target does not subsume the final interpolant")
    chain = [before] + [step.interpolant_cnf for step in result.trace]
    expect(all(api.subsumes(x, y) for x, y in zip(chain, chain[1:])),
           "the subsumption chain breaks")
    counts["transform.steps"] += len(result.trace)
    for step in result.trace:
        counts["transform.steps." + step.kind] += 1
    counts["proof.nodes.realized"] += size
    counts["proof.nodes.final"] += sum(1 for _ in proof_nodes(result.proof))


def run_prove(api, inst, counts):
    seq, system = inst
    try:
        proof = api.prove_cutfree(seq, system)
    except NotProvable as e:
        counts["prove.unprovable"] += 1
        expect_countermodel(api, seq, system, e.countermodel)
        return
    counts["prove.proved"] += 1
    expect_proof(api, proof, system)
    text = api.format_proof(proof)
    expect(api.parse_proof(text) == proof, "the .prf round trip changed the proof")
    m = api.maehara(proof, system).interpolant
    expect(api.vars_of(m) <= seq.side_vars(1) & seq.side_vars(2),
           "the interpolant has a non-shared atom")
    counts["prf.bytes"] += len(text)
    counts["proof.nodes"] += sum(1 for _ in proof_nodes(proof))


def run_refute(api, inst, counts):
    a_clauses, b_clauses, part, clause_formulas, expect_unsat = inst
    if b_clauses:
        out = api.refute_partitioned(a_clauses, b_clauses)
    else:
        out = api.refute(frozenset(a_clauses))
    if isinstance(out, Satisfiable):
        expect(not expect_unsat, "an unsatisfiable set was reported satisfiable")
        counts["refute.sat"] += 1
        expect_model(api, clause_formulas, out.as_dict())
        return
    counts["refute.unsat"] += 1
    expect_refutation(api, out)
    itp = api.interpolant_from_refutation(out, part)
    expect(api.vars_of(itp) <= part.shared, "the interpolant has a non-shared atom")
    text = api.format_refutation(out)
    expect(api.parse_refutation(text) == out, "the .res round trip changed the refutation")
    counts["refutation.nodes"] += len(out)
    counts["interpolant.length"] += api.formula_length(itp)


def _k_entails(api, x, y):
    try:
        api.prove_cutfree(api.sequent([x], [], [], [y]), K)
    except NotProvable:
        return False
    return True


def run_realize(api, inst, counts):
    a, b, target, system = inst
    proof = api.realize_interpolant(a, b, target, system, cminus_cap=10**6)
    expect_proof(api, proof, system)
    got = api.maehara(proof, system).interpolant
    if system.modal:
        same = _k_entails(api, got, target) and _k_entails(api, target, got)
    else:
        same = api.equiv(got, target)
    expect(same, "the realized interpolant is not equivalent to its target")
    counts["realize.classes"] += 1
    counts["proof.cuts"] += sum(1 for _, node in proof_nodes(proof) if node.rule == "cut")


PARTS = {
    "pipeline": (gen.pipeline_inputs, run_pipeline),
    "realize": (gen.realize_inputs, run_realize),
    "prove": (gen.prove_inputs, run_prove),
    "refute": (gen.refute_inputs, run_refute),
}

# Two workloads of two parts each, so that a run is long enough to be
# steady within the benchmark's time budget.  `pipeline` realizes proofs
# and eliminates cuts and never touches resolution; `search` proves,
# refutes and round-trips files and never touches transform or realization.
WORKLOADS = {"pipeline": ("pipeline", "realize"), "search": ("prove", "refute")}


def instances(workload, suffix):
    """(ident, run, input) for every instance of the workload's parts."""
    out = []
    for part in WORKLOADS[workload]:
        generate, run = PARTS[part]
        out += [(f"{part}:{i}", run, inst) for i, inst in enumerate(generate(suffix))]
    return out


def self_test_cases(api):
    """Per checker: a correct output and a deliberately corrupted copy, with
    the check the workloads apply to it.  Each pair must fail exactly once."""
    p, q = Atom("p"), Atom("q")
    proof = api.prove_cutfree(api.sequent([And(p, q)], [], [], [Or(p, q)]), LKMINUS)
    wrong_end = dataclasses.replace(proof, sequentv=api.sequent([p], [], [], [q]))
    rp = api.refute(frozenset([frozenset([Literal(False, p)]), frozenset([Literal(True, p)])]))
    wrong_root = ResolutionProof(rp.nodes, 0)
    clause = frozenset([Literal(False, p), Literal(False, q)])
    model = api.refute_partitioned([clause], []).as_dict()
    return {
        "proof": (lambda x: expect_proof(api, x, LKMINUS), [proof, wrong_end]),
        "refutation": (lambda x: expect_refutation(api, x), [rp, wrong_root]),
        "assignment": (lambda x: expect_model(api, [clause_formula(clause)], x),
                       [model, {name: False for name in model}]),
    }
