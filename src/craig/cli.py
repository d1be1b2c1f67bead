"""Command-line front end: parsing, proving, checking, interpolation,
refutation, realization, cut elimination, and the built-in check scenarios."""

from __future__ import annotations

import argparse
import sys
import traceback

from . import formulas as F
from . import resolution as R
from . import transform as T
from .construct import (
    NotProvable,
    ProofCheckFailed,
    enumerate_cutfree_interpolants,
    prove_cutfree,
    pruned_subsumption_pipeline,
    realize_interpolant,
    realize_pruned,
)
from .maehara import format_annotated, maehara
from .sequent import (
    LKAT,
    LKMINUS,
    ProofError,
    check_proof,
    classify_cut,
    format_proof,
    format_proof_text,
    format_sequent,
    is_tame,
    iter_nodes,
    parse_proof,
    parse_sequent,
    sequent,
    system_by_name,
)


def _emit_proof(proof, args):
    if getattr(args, "format", "sexpr") == "text":
        print(format_proof_text(proof))
    else:
        print(format_proof(proof))

EXIT_OK = 0
EXIT_LOGICAL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UnreadableInput(Exception):
    pass


def _read(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UnreadableInput(f"cannot read {path}: {e}") from e


def _formula_arg(text):
    # accept either inline text or a .fml file path
    if text.endswith(".fml"):
        return F.parse_formula(_read(text))
    return F.parse_formula(text)


def _clause_set_arg(text):
    if text.endswith(".cls"):
        return F.parse_clause_set(_read(text))
    return F.parse_clause_set(text.replace(";", "\n") + "\n" if text.strip() else "")


def cmd_parse(args):
    f = _formula_arg(args.formula)
    print(F.format_formula(f))
    return EXIT_OK


def cmd_prove(args):
    system = system_by_name(args.system)
    seq = parse_sequent(args.sequent)
    try:
        proof = prove_cutfree(seq, system)
    except NotProvable as e:
        print("not provable")
        if isinstance(e.countermodel, dict):
            items = ", ".join(f"{k}={int(v)}" for k, v in sorted(e.countermodel.items()))
            print(f"countermodel: {items}")
        elif e.countermodel is not None:
            model = e.countermodel
            for w, succs in model.successors:
                names = ", ".join(
                    f"{k}={int(v)}" for k, v in dict(model.valuation[w][1]).items()
                )
                print(f"world {w} -> {sorted(succs)} [{names}]")
        return EXIT_LOGICAL
    _emit_proof(proof, args)
    return EXIT_OK


def cmd_check_proof(args):
    system = system_by_name(args.system)
    proof = parse_proof(_read(args.proof))
    violation = check_proof(proof, system)
    if violation is None:
        print("ok")
        return EXIT_OK
    print(f"violation at {list(violation.path)}: {violation.reason}")
    return EXIT_LOGICAL


def cmd_interpolate(args):
    system = system_by_name(args.system)
    proof = parse_proof(_read(args.proof))
    violation = check_proof(proof, system)
    if violation is not None:
        print(f"violation at {list(violation.path)}: {violation.reason}")
        return EXIT_LOGICAL
    print(format_annotated(maehara(proof, system)), end="")
    return EXIT_OK


def cmd_refute(args):
    cs = _clause_set_arg(args.clauses)
    out = R.refute(cs)
    if isinstance(out, R.Satisfiable):
        items = ", ".join(f"{k}={int(v)}" for k, v in out.assignment)
        print(f"satisfiable: {items}")
        return EXIT_LOGICAL
    print(R.format_refutation(out), end="")
    return EXIT_OK


def cmd_res_interpolate(args):
    a_cls = _clause_set_arg(args.a)
    b_cls = _clause_set_arg(args.b)
    if args.refutation:
        out = R.parse_refutation(_read(args.refutation))
        bad = R.check_refutation(out)
        if bad is not None:
            print(f"violation at node {bad.node}: {bad.reason}")
            return EXIT_LOGICAL
    else:
        out = R.refute_partitioned(a_cls, b_cls)
        if isinstance(out, R.Satisfiable):
            items = ", ".join(f"{k}={int(v)}" for k, v in out.assignment)
            print(f"satisfiable: {items}")
            return EXIT_LOGICAL
    part = R.Partition.from_vars(
        F.clause_set_vars(a_cls), F.clause_set_vars(b_cls)
    )
    print(R.format_refutation(out), end="")
    print(F.format_formula(R.interpolant_from_refutation(out, part)))
    return EXIT_OK


def cmd_enumerate(args):
    a = _formula_arg(args.a)
    b = _formula_arg(args.b)
    try:
        out = F.enumerate_interpolants(a, b, max_shared=args.max_shared_vars)
    except F.NotValidImplication:
        print("the implication is not valid")
        return EXIT_LOGICAL
    for f in out:
        print(F.format_formula(f))
    return EXIT_OK


def cmd_prune(args):
    cs = _clause_set_arg(args.clauses)
    print(F.format_clause_set(F.prune(cs)), end="")
    return EXIT_OK


def cmd_realize(args):
    system = system_by_name(args.system)
    a = _formula_arg(args.a)
    b = _formula_arg(args.b)
    c = _formula_arg(args.interpolant)
    proof = realize_interpolant(a, b, c, system, cminus_cap=args.cminus_cap)
    _emit_proof(proof, args)
    return EXIT_OK


def cmd_cut_eliminate(args):
    proof = parse_proof(_read(args.proof))
    result = T.eliminate_cuts(proof)
    if args.trace:
        for step in result.trace:
            cnf_text = " | ".join(
                F.format_clause(c) or "<empty>"
                for c in F.sorted_clauses(step.interpolant_cnf)
            )
            print(
                f"{step.kind} at {list(step.path)} degree={step.degree} "
                f"weight={step.weight} cnf: {{{cnf_text}}}"
            )
    _emit_proof(result.proof, args)
    return EXIT_OK


def cmd_pipeline(args):
    a = _formula_arg(args.a)
    b = _formula_arg(args.b)
    cs = _clause_set_arg(args.clauses)
    proof, trace = pruned_subsumption_pipeline(a, b, cs)
    out = F.formula_cnf(maehara(proof, LKMINUS).interpolant)
    _emit_proof(proof, args)
    print(f"steps: {len(trace)}")
    print(f"interpolant: {F.format_formula(F.clause_set_formula(out))}")
    print(f"subsumed: {F.subsumes(cs, out)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Built-in check scenarios
# ---------------------------------------------------------------------------

def _assert(checks, name, condition):
    status = "pass" if condition else "FAIL"
    print(f"[{status}] {name}")
    checks.append(condition)


def repro_prop32(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    seq = sequent([F.And(p, q)], [], [], [F.Or(p, q)])
    out = enumerate_cutfree_interpolants(seq, LKMINUS, 6)
    print(f"cut-free interpolants of {format_sequent(seq)} at depth <= 6:")
    for m in sorted(out, key=F.format_formula):
        print(f"  {F.format_formula(m)}")
    _assert(checks, "at least one proof exists", bool(out))
    _assert(checks, "every interpolant is equivalent to p or to q",
            all(F.equiv(m, p) or F.equiv(m, q) for m in out))
    _assert(checks, "p & q is never reached",
            not any(F.equiv(m, F.And(p, q)) for m in out))
    _assert(checks, "p | q is never reached",
            not any(F.equiv(m, F.Or(p, q)) for m in out))
    return checks


def repro_prop33(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    cs = frozenset(
        [F.clause("p"), F.clause("q"), F.clause("~p"), F.clause("~q")]
    )
    part = R.Partition.from_vars({"p", "q"}, {"p", "q"})
    b_inputs = (F.clause("~p"), F.clause("~q"))
    interpolants = []
    count = 0
    for rp in R.enumerate_refutations(cs, 6):
        relabeled = R.ResolutionProof(
            tuple(
                R.Input(n.clause, "B" if n.clause in b_inputs else "A")
                if isinstance(n, R.Input)
                else n
                for n in rp.nodes
            ),
            rp.root,
        )
        count += 1
        interpolants.append(R.interpolant_from_refutation(relabeled, part))
    print(f"{count} weakening-free refutations with at most 6 nodes")
    shown = []
    for c in interpolants:
        text = F.format_formula(c)
        if text not in shown:
            shown.append(text)
    for text in sorted(shown):
        print(f"  {text}")
    _assert(checks, "refutations were found", count > 0)
    _assert(checks, "every interpolant is equivalent to p or to q",
            all(F.equiv(c, p) or F.equiv(c, q) for c in interpolants))
    _assert(checks, "p & q and p | q are never reached",
            not any(F.equiv(c, F.And(p, q)) or F.equiv(c, F.Or(p, q))
                    for c in interpolants))
    return checks


def repro_thm61(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    a, b = F.And(p, q), F.Or(p, q)
    targets = F.enumerate_interpolants(a, b)
    print(f"{len(targets)} interpolant classes of p & q -> p | q")
    all_ok = True
    for target in targets:
        proof = realize_interpolant(a, b, target, LKAT)
        ok = check_proof(proof, LKAT) is None
        got = maehara(proof, LKAT).interpolant
        same = F.equiv(got, target)
        print(
            f"  target {F.format_formula(target)}: proof "
            f"{'checks' if ok else 'BROKEN'}, interpolant "
            f"{F.format_formula(got)}"
        )
        all_ok = all_ok and ok and same
    _assert(checks, "four interpolant classes", len(targets) == 4)
    _assert(checks, "every class is realized with an equivalent interpolant", all_ok)
    return checks


def repro_prop71(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    from .sequent import K

    a, b = F.Box(F.And(p, q)), F.Box(F.Or(p, q))
    seq = sequent([a], [], [], [b])
    out = enumerate_cutfree_interpolants(seq, K, 6)
    print(f"{len(out)} cut-free interpolant shapes at depth <= 6")
    targets = [a, b, F.And(F.Box(p), F.Box(q))]

    def k_equiv(x, y):
        from .construct import try_prove_cutfree

        return (
            try_prove_cutfree(sequent([x], [], [], [y]), K) is not None
            and try_prove_cutfree(sequent([y], [], [], [x]), K) is not None
        )

    for target in targets:
        reached = any(k_equiv(m, target) for m in out)
        _assert(
            checks,
            f"{F.format_formula(target)} is never reached cut-free",
            not reached,
        )
    return checks


def repro_thm72(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    from .sequent import K
    from .construct import try_prove_cutfree

    a, b = F.Box(F.And(p, q)), F.Box(F.Or(p, q))
    for target in (a, b, F.And(F.Box(p), F.Box(q))):
        proof = realize_interpolant(a, b, target, K)
        ok = check_proof(proof, K) is None
        got = maehara(proof, K).interpolant
        fwd = try_prove_cutfree(sequent([got], [], [], [target]), K) is not None
        bwd = try_prove_cutfree(sequent([target], [], [], [got]), K) is not None
        policy = all(
            not n.rule == "cut"
            or isinstance(n.main_formula, (F.Atom, F.Box))
            or n.main_formula in (F.BOTTOM, F.TOP)
            for _, n in iter_nodes(proof)
        )
        print(
            f"  target {F.format_formula(target)}: proof "
            f"{'checks' if ok else 'BROKEN'}, equivalence "
            f"{'certified' if fwd and bwd else 'MISSING'}"
        )
        _assert(checks, f"realized {F.format_formula(target)}", ok and fwd and bwd and policy)
    return checks


def repro_thm54(args):
    checks = []
    p, q = F.Atom("p"), F.Atom("q")
    a, b = F.And(p, q), F.Or(p, q)
    cs = frozenset([F.clause("p"), F.clause("q")])
    realized = realize_pruned(a, b, cs)
    tame, witness = is_tame(realized)
    cuts_r = all(
        classify_cut(realized, path).type_r
        for path, n in iter_nodes(realized)
        if n.rule == "cut"
    )
    exact = F.formula_cnf(maehara(realized, LKAT).interpolant) == cs
    proof, trace = pruned_subsumption_pipeline(a, b, cs)
    out = F.formula_cnf(maehara(proof, LKMINUS).interpolant)
    print(f"realized proof: tame={tame}, cuts type R={cuts_r}, exact cnf={exact}")
    print(f"after cut elimination ({len(trace)} steps): "
          f"{F.format_formula(F.clause_set_formula(out))}")
    _assert(checks, "realization is tame with type R cuts and exact cnf",
            tame and cuts_r and exact)
    _assert(checks, "cut-free proof checks", check_proof(proof, LKMINUS) is None)
    _assert(checks, "target subsumes the final interpolant", F.subsumes(cs, out))
    return checks


REPROS = {
    "prop3.2": repro_prop32,
    "prop3.3": repro_prop33,
    "thm6.1": repro_thm61,
    "prop7.1": repro_prop71,
    "thm7.2": repro_thm72,
    "thm5.4": repro_thm54,
}


def cmd_repro(args):
    checks = REPROS[args.name](args)
    return EXIT_OK if all(checks) else EXIT_LOGICAL


def build_parser():
    parser = argparse.ArgumentParser(
        prog="craig",
        description="interpolation for resolution and sequent calculi",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse a formula and print it canonically")
    sp.add_argument("formula")
    sp.set_defaults(func=cmd_parse)

    sp = sub.add_parser("prove", help="cut-free proof search on a split sequent")
    sp.add_argument("--system", default="lk-minus")
    sp.add_argument("--format", choices=("sexpr", "text"), default="sexpr")
    sp.add_argument("sequent", help='e.g. "p & q ; => ; p | q"')
    sp.set_defaults(func=cmd_prove)

    sp = sub.add_parser("check-proof", help="validate a proof file")
    sp.add_argument("--system", default="lk")
    sp.add_argument("proof", help=".prf file or - for stdin")
    sp.set_defaults(func=cmd_check_proof)

    sp = sub.add_parser("interpolate", help="annotate a proof with interpolants")
    sp.add_argument("--system", default="lk-at")
    sp.add_argument("proof")
    sp.set_defaults(func=cmd_interpolate)

    sp = sub.add_parser("refute", help="resolution refutation or a model")
    sp.add_argument("clauses", help=".cls file or inline (';' between clauses)")
    sp.set_defaults(func=cmd_refute)

    sp = sub.add_parser("res-interpolate",
                        help="refute a partitioned clause set and interpolate")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--refutation", help="reuse a stored .res refutation")
    sp.set_defaults(func=cmd_res_interpolate)

    sp = sub.add_parser("enumerate", help="all interpolant classes of a -> b")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("--max-shared-vars", type=int, default=4)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("prune", help="prune a clause set")
    sp.add_argument("clauses")
    sp.set_defaults(func=cmd_prune)

    sp = sub.add_parser("realize", help="build a proof realizing an interpolant")
    sp.add_argument("--system", default="lk-at")
    sp.add_argument("--interpolant", required=True)
    sp.add_argument("--format", choices=("sexpr", "text"), default="sexpr")
    sp.add_argument("--cminus-cap", type=int, default=4096)
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(func=cmd_realize)

    sp = sub.add_parser("cut-eliminate", help="eliminate cuts from a tame proof")
    sp.add_argument("--trace", action="store_true")
    sp.add_argument("--format", choices=("sexpr", "text"), default="sexpr")
    sp.add_argument("proof")
    sp.set_defaults(func=cmd_cut_eliminate)

    sp = sub.add_parser("pipeline",
                        help="realize a pruned interpolant and eliminate cuts")
    sp.add_argument("--format", choices=("sexpr", "text"), default="sexpr")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("clauses")
    sp.set_defaults(func=cmd_pipeline)

    sp = sub.add_parser("repro", help="run a built-in check scenario")
    sp.add_argument("name", choices=sorted(REPROS))
    sp.set_defaults(func=cmd_repro)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except F.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (R.NonAtomicLiteral, UnreadableInput) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (R.RefutationCheckFailed, ProofCheckFailed):
        return _internal_error()
    except (F.FormulaError, R.ResolutionError, ProofError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_LOGICAL
    except Exception:
        return _internal_error()


def _internal_error():
    # A bug in craig, not an answer about the input: keep the traceback.
    print("internal error:", file=sys.stderr)
    traceback.print_exc()
    return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
