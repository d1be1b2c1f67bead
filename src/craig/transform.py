"""Interpolant-aware proof transformations: negation inversion, conversion of
literal cuts to positive cuts, weakening normalization, and cut elimination
on tame proofs with right-side cuts, with a subsumption trace."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    Formula,
    Neg,
    Or,
    TOP,
    formula_cnf,
    subsumes,
)
from .maehara import _annotating
from .sequent import (
    ACROSS,
    LK,
    LKMINUS,
    MODAL_RULES,
    Proof,
    ProofCheckFailed,
    ProofError,
    _deepest,
    _drive,
    _folding,
    _heights,
    aux_occurrences,
    ax,
    bot_axiom,
    check_proof,
    classify_cut,
    contract,
    cut,
    cut_occurrences,
    direct_ancestors,
    first_index,
    first_node,
    infer,
    is_tame,
    is_weak,
    main_occurrence,
    premise_aux,
    rebuild,
    relink,
    replace_at,
    subproof_at,
    wax,
    weaken,
    weaken_to,
)


class TransformError(ProofError):
    pass


class TargetNotNegation(TransformError):
    pass


class NotTame(TransformError):
    pass


class NotTypeR(TransformError):
    pass


# Rules whose main occurrence a cut can be reduced against.
_LOGICAL = {"rand", "ror1", "ror2", "rneg", "land1", "land2", "lor", "lneg"}
# Rules a deleted main occurrence collapses onto their (left) premise.
_DELETABLE = _LOGICAL | {"lw", "rw", "lc", "rc"}


# ---------------------------------------------------------------------------
# Negation inversion
# ---------------------------------------------------------------------------

def neg_invert(p: Proof, comp: str, idx: int) -> Proof:
    """Move an end-sequent occurrence of ~A to A in the dual component,
    preserving the interpolant as an AST and at most doubling the length.
    A subproof that the occurrence's ancestors reach through several
    parents is inverted once, and its inversion is shared (a memo for the
    call)."""
    f = p.sequentv.comp(comp)[idx]
    if not isinstance(f, Neg):
        raise TargetNotNegation(f"occurrence at {comp}:{idx} is {f!r}")
    return _drive(_inversion, p, (comp, idx))


def _axiom_inversion(node: Proof, comp: str) -> Proof:
    """Axiom case: rebuild a two-node proof with the same interpolant, an
    axiom on the body with each occurrence moved across the arrow under the
    negation rule that brings back the target."""
    nf = node.sequentv.comp(comp)[0]
    ant = "g1" if node.sequentv.g1 else "g2"
    suc = "d1" if node.sequentv.d1 else "d2"
    if (ant, suc) == ("g2", "d1"):
        raise TransformError(
            "inverting an axiom placed right/left needs a non-normal interpolant"
        )
    premise = ax(nf.body, ACROSS[suc], ACROSS[ant])
    return infer("lneg", (premise,), nf, ant) if comp == suc else infer("rneg", (premise,), nf, suc)


def _inversion(node: Proof, occ):
    """One inversion step, as a generator for _drive: it yields each
    (proof, occurrence) whose inversion it needs, is sent that inversion,
    and returns the inversion of node at occ."""
    comp, idx = occ
    nf = node.sequentv.comp(comp)[idx]
    a = nf.body
    dual = ACROSS[comp]
    rule = node.rule
    if rule == "ax":
        return _axiom_inversion(node, comp)
    if rule == "bot":
        raise TransformError("a negation cannot occur in a false-axiom")
    if main_occurrence(node) == occ:
        if rule == "rneg" and comp in ("d1", "d2"):
            return node.children[0]
        if rule == "lneg" and comp in ("g1", "g2"):
            return node.children[0]
        if rule in ("lw", "rw"):
            return weaken(node.children[0], a, dual)
        if rule in ("lc", "rc"):
            child = node.children[0]
            step1 = yield child, (comp, first_index(child.sequentv, comp, nf))
            step2 = yield step1, (comp, first_index(step1.sequentv, comp, nf))
            return contract(step2, a, dual)
        raise TransformError(f"rule {rule} cannot introduce the negation {nf!r}")
    # context occurrence: invert the corresponding ancestors and rebuild
    kids = []
    for ci, child in enumerate(node.children):
        kids.append((yield child, direct_ancestors(node, ci, occ)[0]))
    return rebuild(node, kids)


# ---------------------------------------------------------------------------
# Literal cuts to positive cuts
# ---------------------------------------------------------------------------

def _is_negative_literal_cut(f: Formula) -> bool:
    if f == TOP:
        return False
    return isinstance(f, Neg) and isinstance(f.body, (Atom, Bottom, Box))


def literal_cuts_to_atomic(p: Proof) -> Proof:
    """Replace every cut on a negated atom or box by a cut on its body,
    keeping the clause-set form of the interpolant.  One bottom-up pass: a
    subproof shared by several parents is rewritten once, and one with
    nothing to rewrite is kept as it is.  The inversions share one memo for
    the call, so a (subproof, occurrence) that several cuts or parents
    reach is inverted once, and the parents share its inversion."""
    memo = {}

    def step(node, kids):
        if node.rule == "cut" and _is_negative_literal_cut(node.main_formula):
            left_occ, right_occ = cut_occurrences(node)
            return cut(_drive(_inversion, kids[1], right_occ, memo),
                       _drive(_inversion, kids[0], left_occ, memo),
                       node.main_formula.body, int(node.main_comp[1]))
        if all(map(operator.is_, kids, node.children)):
            return node
        return relink(node, kids)

    return _drive(_folding, p, step)


# ---------------------------------------------------------------------------
# Weakening normalization
# ---------------------------------------------------------------------------

def is_w_reduced(p: Proof) -> bool:
    return first_node(p, lambda node: node.rule in ("lw", "rw") and
                      any(c.rule not in ("lw", "rw", "ax", "bot") for c in node.children)) is None


def w_reduce(p: Proof) -> Proof:
    """Shift weakenings up until each sits just below an axiom or weakening.
    One pass of _reducing steps: a shared subproof is reduced once, and one
    with nothing to shift is kept as it is.  Every node it returns is
    marked w-reduced, and a later call keeps a marked subproof without
    walking it."""
    return _drive(_reducing, p, None)


def _reducing(node: Proof, _):
    """One w_reduce step: node over its reduced premises.  A weakening
    over a rule other than an axiom or weakening is lifted above that rule,
    and the weakening of each of the rule's premises is a step of its own,
    so lifting a weakening over any number of rules needs no recursion."""
    if getattr(node, "_w_reduced", False):
        return node
    kids = []
    for child in node.children:
        kids.append(child if getattr(child, "_w_reduced", False) else (yield child, None))
    if not all(map(operator.is_, kids, node.children)):
        node = rebuild(node, kids)
    if node.rule in ("lw", "rw") and len(kids) != 1:
        raise TransformError(f"rule {node.rule} takes 1 premises, not {len(kids)}")
    if node.rule in ("lw", "rw") and kids[0].rule not in ("lw", "rw", "ax", "bot"):
        child = kids[0]
        if child.rule in MODAL_RULES:
            raise TransformError("weakening normalization is propositional only")
        hoisted = []
        for gk in child.children:
            hoisted.append((yield weaken(gk, node.main_formula, node.main_comp), None))
        node = rebuild(child, hoisted)
    return _marked(node)


def _marked(node: Proof) -> Proof:
    """node, marked w-reduced when its premises are marked."""
    if all(getattr(c, "_w_reduced", False) for c in node.children):
        node.__dict__["_w_reduced"] = True
    return node


# ---------------------------------------------------------------------------
# Occurrence-cone deletion (for weak cut formulas)
# ---------------------------------------------------------------------------

def delete_occurrence(p: Proof, occ) -> Proof:
    """Remove a weak occurrence, its ancestors, and the weakenings that
    introduce them.  Binary rules met by the cone collapse to their left
    branch; this keeps the interpolant's clause set when the cone stays on
    partition side 2 (conjunctive combinations), which type-R cuts ensure."""
    return _drive(_deletion, p, frozenset([occ]))


def _deletion(node: Proof, kill):
    """One deletion step, as a generator for _drive: node without kill, a
    frozenset of (comp, idx) occurrences of its conclusion.  A killed main
    occurrence takes its auxiliary occurrences with it, and a premise with
    nothing to kill is kept as it is."""
    rule = node.rule
    if rule in ("ax", "bot"):
        raise TransformError("cannot delete an axiom-active occurrence")
    child_kills = [
        frozenset(src for occ in kill for src in direct_ancestors(node, ci, occ))
        for ci in range(len(node.children))
    ]
    if main_occurrence(node) in kill:
        if rule in ("rand", "lor") and node.main_comp[1] != "2":
            raise TransformError(
                "cannot collapse a disjunctive branch while deleting a cone"
            )
        if rule not in _DELETABLE:
            raise TransformError(f"cannot delete through rule {rule}")
        kid = node.children[0]
        return (yield kid, child_kills[0]) if child_kills[0] else kid
    kids = []
    for c, ck in zip(node.children, child_kills):
        kids.append((yield c, ck) if ck else c)
    return rebuild(node, kids)


# ---------------------------------------------------------------------------
# Cut elimination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    kind: str
    path: tuple
    degree: int
    weight: int
    new_cuts: tuple  # (degree, weight) pairs of the replacing cuts
    interpolant_cnf: frozenset


@dataclass(frozen=True)
class CutEliminationResult:
    proof: Proof
    trace: tuple


# the heights of cuts, stored on each node walked as _cut_height
_CUT_HEIGHT = ("_cut_height", lambda node: node.rule == "cut")


def _uppermost_cut(p: Proof):
    """The path of the deepest cut, the leftmost of the deepest ones."""
    return _deepest(p, _CUT_HEIGHT)


def _cut_measures(node: Proof, _):
    """A _drive step: the (degree, weight) of each cut at or above node in
    preorder, skipping the cut-free subproofs by their stored heights."""
    if node._cut_height[0] < 0:
        return ()
    info = classify_cut(node, ()) if node.rule == "cut" else None
    out = ((info.degree, info.weight),) if info else ()
    for child in node.children:
        out += yield child, None
    return out


def _is_introducing(premise: Proof, occ):
    """How the premise provides its cut occurrence: 'wax' when it traces to
    an axiom under weakenings, 'logical' when its last rule introduces it,
    'contraction' for a contraction on it, else None."""
    rule = premise.rule
    if rule == "ax":
        return "wax"
    if rule in ("lw", "rw"):
        return "wax"  # w-reduced and the occurrence is not weak
    if main_occurrence(premise) == occ:
        if rule in ("lc", "rc"):
            return "contraction"
        if rule in _LOGICAL:
            return "logical"
        raise TransformError(f"unexpected introducing rule {rule}")
    return None


def _wax_axiom_comp(premise: Proof, occ_comp: str):
    """The axiom's other component in a weakening stack over an axiom, or
    None when the stack sits on a false-axiom (the occurrence is its bottom)."""
    node = premise
    while node.rule in ("lw", "rw"):
        node = node.children[0]
    if node.rule == "bot":
        return None
    if node.rule != "ax":
        raise TransformError("weak stack does not end in an axiom")
    if occ_comp in ("d1", "d2"):
        return "g1" if node.sequentv.g1 else "g2"
    return "d1" if node.sequentv.d1 else "d2"


def _reduce_cut(chi: Proof):
    """One reduction step: (replacement, kind, new cut paths in replacement)."""
    f = chi.main_formula
    side = int(chi.main_comp[1])
    dcomp, gcomp = f"d{side}", f"g{side}"
    left, right = chi.children
    occ_l, occ_r = cut_occurrences(chi)

    if is_weak(left, ((),) + occ_l):
        return delete_occurrence(left, occ_l), "weak-left"
    if is_weak(right, ((),) + occ_r):
        return delete_occurrence(right, occ_r), "weak-right"

    intro_l = _is_introducing(left, occ_l)
    intro_r = _is_introducing(right, occ_r)

    if intro_l is None:
        return _permute(chi, over_left=True), "permute-left"
    if intro_r is None:
        return _permute(chi, over_left=False), "permute-right"

    if intro_l == "contraction":
        return _contract_reduce(chi, on_left=True), "contraction-left"
    if intro_r == "contraction":
        return _contract_reduce(chi, on_left=False), "contraction-right"

    if intro_l == "wax" and intro_r == "wax":
        t1 = _wax_axiom_comp(left, dcomp)
        t2 = _wax_axiom_comp(right, gcomp)
        if t2 is None:
            # the right occurrence is the bottom of a false-axiom; the left
            # one then comes from an axiom false => false whose antecedent
            # copy survives in the conclusion
            if f != BOTTOM or t1 is None:
                raise TransformError("false-axiom cut with a non-false formula")
            return weaken_to(bot_axiom(t1), chi.sequentv), "axiom"
        if t1 is None:
            raise TransformError("a false-axiom cannot feed the left cut occurrence")
        if t1 == "g1" and t2 == "d1":
            raise NotTame("a left/right against right/left axiom cut cannot occur in a tame proof")
        return wax(f, chi.sequentv, t1, t2), "axiom"

    if intro_l == "wax":
        # absorb the axiom into the logical premise via a contraction
        t1 = _wax_axiom_comp(left, dcomp)
        if t1 != gcomp:
            raise TransformError(
                "axiom-against-rule cut crosses the partition; not supported"
            )
        return contract(right, f, gcomp), "axiom-absorb"
    if intro_r == "wax":
        t2 = _wax_axiom_comp(right, gcomp)
        if t2 != dcomp:
            raise TransformError(
                "rule-against-axiom cut crosses the partition; not supported"
            )
        return contract(left, f, dcomp), "axiom-absorb"

    return _degree_reduce(chi), "degree"


def _permute(chi: Proof, over_left: bool):
    """Permute the cut above the last rule of one premise."""
    f = chi.main_formula
    side = int(chi.main_comp[1])
    active = chi.children[0] if over_left else chi.children[1]
    passive = chi.children[1] if over_left else chi.children[0]
    rule = active.rule
    m, mcomp = active.main_formula, active.main_comp
    if rule in ("lw", "rw"):
        raise TransformError("cannot permute over a weakening")
    if rule not in _LOGICAL and rule not in ("lc", "rc"):
        raise TransformError(f"cannot permute over rule {rule}")

    def new_cut(ci: int):
        # the premise keeps the main formula, the passive side gains the
        # premise's auxiliary formulas
        br = w_reduce(weaken(active.children[ci], m, mcomp))
        ps = passive
        for c, g in premise_aux(rule, m, mcomp, ci):
            ps = weaken(ps, g, c)
        ps = w_reduce(ps)
        return cut(br, ps, f, side) if over_left else cut(ps, br, f, side)

    out = rebuild(active, [new_cut(ci) for ci in range(len(active.children))])
    # one duplicated main to contract away
    return contract(out, m, mcomp)


def _contract_reduce(chi: Proof, on_left: bool):
    """Reduce a cut against a contraction on the cut formula: drop a weak
    copy, or cut each copy in turn."""
    f = chi.main_formula
    side = int(chi.main_comp[1])
    left, right = chi.children
    active, passive = (left, right) if on_left else (right, left)
    inner_premise = active.children[0]

    def cut_on(a: Proof, p: Proof):
        # a on the contraction's side of the cut, p on the other
        return cut(a, p, f, side) if on_left else cut(p, a, f, side)

    for occ in aux_occurrences(active, 0):
        if is_weak(inner_premise, ((),) + occ):
            return cut_on(delete_occurrence(inner_premise, occ), passive)
    widened = w_reduce(weaken(passive, f, active.main_comp))
    return cut_on(cut_on(inner_premise, widened), passive)


def _degree_reduce(chi: Proof):
    f = chi.main_formula
    side = int(chi.main_comp[1])
    left, right = chi.children
    if isinstance(f, And):
        if right.rule == "land1":
            return cut(left.children[0], right.children[0], f.left, side)
        if right.rule == "land2":
            return cut(left.children[1], right.children[0], f.right, side)
        raise TransformError("conjunction cut against unexpected rule")
    if isinstance(f, Or):
        if left.rule == "ror1":
            return cut(left.children[0], right.children[0], f.left, side)
        if left.rule == "ror2":
            return cut(left.children[0], right.children[1], f.right, side)
        raise TransformError("disjunction cut against unexpected rule")
    if isinstance(f, Neg):
        return cut(right.children[0], left.children[0], f.body, side)
    raise TransformError(f"cannot reduce degree of cut on {f!r}")


def _unfit(node: Proof) -> bool:
    """A cut not of type R or not monochromatic."""
    if node.rule != "cut":
        return False
    info = classify_cut(node, ())
    return not (info.type_r and info.monochromatic)


def eliminate_cuts(p: Proof) -> CutEliminationResult:
    """Stepwise removal of all cuts from a tame proof whose cuts all sit on
    the right of the partition; the clause-set interpolant of each reduct
    subsumes-extends the previous one.  The result passes check_proof in
    LK-minus, or ProofCheckFailed is raised.

    Each step reduces the deepest cut, the leftmost of the deepest ones,
    and splices the w-reduced replacement in.  The facts that the steps
    read are stored on the nodes: each node's interpolant (maehara's walk,
    with no check_proof per step: the input is checked in LK, the result
    in LK-minus), the height of its deepest cut (_cut_height), its
    w-reduced mark (w_reduce) and its occurrence summaries (classify_cut).
    So a step walks only the nodes that the previous one built, the new
    path from the root to the replacement and the replacement's own nodes,
    and reads the facts of the subproofs it kept.  The clause sets of the root
    interpolants share one formula_cnf memo for the call, so a step
    computes those only of the subformulas that it built."""
    bad = check_proof(p, LK)
    if bad is not None:
        raise TransformError(f"input does not check: {bad.reason}")
    path = first_node(p, _unfit)
    if path is not None:
        if not classify_cut(p, path).type_r:
            raise NotTypeR(f"cut at {path} is not of type R")
        raise TransformError(f"cut at {path} is not monochromatic")
    ok, witness = is_tame(p)
    if not ok:
        raise NotTame(f"input proof is not tame: {witness}")

    end = p.sequentv
    p = w_reduce(p)
    trace = []
    memo = {}, {}
    current_cnf = formula_cnf(_drive(_annotating, p, None), memo)
    while True:
        path = _uppermost_cut(p)
        if path is None:
            break
        chi = subproof_at(p, path)
        old_info = classify_cut(p, path)
        replacement, kind = _reduce_cut(chi)
        if replacement.sequentv != chi.sequentv:
            raise TransformError(
                f"{kind} reduction changed the sequent at {path}"
            )
        # p is w-reduced, so no weakening sits below the cut at path and
        # reducing the replacement reduces the whole proof
        p = replace_at(p, path, w_reduce(replacement))
        _drive(_heights, replacement, _CUT_HEIGHT)
        new_cuts = _drive(_cut_measures, replacement, None)
        for dw in new_cuts:
            if dw >= (old_info.degree, old_info.weight):
                raise TransformError(
                    f"{kind} reduction did not decrease the measure: "
                    f"{dw} vs {(old_info.degree, old_info.weight)}"
                )
        next_cnf = formula_cnf(_drive(_annotating, p, None), memo)
        if not subsumes(current_cnf, next_cnf):
            raise TransformError(f"{kind} reduction broke the subsumption chain")
        trace.append(
            TraceStep(
                kind,
                path,
                old_info.degree,
                old_info.weight,
                new_cuts,
                next_cnf,
            )
        )
        current_cnf = next_cnf
    if p.sequentv != end:
        raise TransformError("cut elimination changed the end-sequent")
    bad = check_proof(p, LKMINUS)
    if bad is not None:
        raise ProofCheckFailed(
            f"cut elimination built an invalid proof at {bad.path}: {bad.reason}"
        )
    return CutEliminationResult(p, tuple(trace))
