"""Interpolant extraction over split proofs, for the propositional systems
with atomic/literal/monochromatic cuts and the normal modal systems."""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    And,
    BOTTOM,
    Box,
    Formula,
    Neg,
    Or,
    TOP,
    format_formula,
    nnf,
)
from .sequent import (
    Proof,
    ProofError,
    Sequent,
    System,
    _drive,
    axiom_kind,
    check_proof,
    format_proof_text,
    format_sequent,
    is_monochromatic,
)


class InterpolationError(ProofError):
    pass


class NonMonochromaticCut(InterpolationError):
    pass


class UnsupportedRule(InterpolationError):
    pass


@dataclass(frozen=True)
class AnnotatedProof:
    proof: Proof
    interpolant: Formula


def axiom_interpolant(s: Sequent) -> Formula:
    """The interpolant of an axiom leaf: for false =>, false on side 1 and
    true on side 2; for f => f, by the sides of its two occurrences."""
    if not s.succedent():
        return BOTTOM if s.g1 else TOP
    f = s.antecedent()[0]
    kind = axiom_kind(s)
    if kind == "L/L":
        return BOTTOM
    if kind == "R/R":
        return TOP
    if kind == "L/R":
        return f
    return Neg(f)


def combine(rule, comp, parts) -> Formula:
    """The interpolant of an inner node from its premises' interpolants
    parts: a two-premise rule (lor, rand, cut) joins them with Or when its
    main occurrence (a cut's placement) is on side 1 and with And on side 2;
    k and 4 box the one part on side 2 and take its dual on side 1, d and
    d4 box it, and the other one-premise rules pass it on."""
    if len(parts) == 2:
        return (Or if comp[1] == "1" else And)(*parts)
    (c,) = parts
    if rule in ("k", "4"):
        return Box(c) if comp == "d2" else Neg(Box(Neg(c)))
    return Box(c) if rule in ("d", "d4") else c


def maehara(p: Proof, system: System) -> AnnotatedProof:
    """Annotate every node with its interpolant; the root one interpolates
    the end-sequent's partition.  p must pass check_proof under system,
    else InterpolationError names the first violation, and a system with
    the seriality rule (d or d4) but no box-introducing one (k or 4) is
    refused whatever the proof.

    One pass of _drive steps, once per distinct node, that checks each cut
    before its premises, so the first non-monochromatic one in preorder is
    the one raised.  A node's interpolant depends on its subproof alone, so,
    like the check_proof verdict, each node walked stores its own, and a
    later call stops there.  Within cut elimination each step's walk thus
    visits only the nodes that the step built."""
    if {"d", "d4"} & system.modal_rules and not {"k", "4"} & system.modal_rules:
        raise UnsupportedRule(f"interpolating the seriality rule of {system.name} needs a box-introducing rule")
    bad = check_proof(p, system)
    if bad is not None:
        raise InterpolationError(f"not a {system.name} proof: violation at {list(bad.path)}: {bad.reason}")
    return AnnotatedProof(p, _drive(_annotating, p, None))


def _annotating(node: Proof, _):
    """One maehara step: the interpolant of node, stored on it."""
    c = getattr(node, "_interpolant", None)
    if c is not None:
        return c
    if node.rule == "cut" and not is_monochromatic(node.main_formula, node.sequentv):
        raise NonMonochromaticCut(f"cut on {node.main_formula!r} in {format_sequent(node.sequentv)}")
    parts = []
    for child in node.children:
        c = getattr(child, "_interpolant", None)
        if c is None:
            c = yield child, None
        parts.append(c)
    c = combine(node.rule, node.main_comp, parts) if parts else axiom_interpolant(node.sequentv)
    node.__dict__["_interpolant"] = c
    return c


def is_nnf_interpolant(f: Formula) -> bool:
    """Negation only on atoms, false, or boxed subformulas (box bodies are
    opaque): f is its own NNF."""
    return nnf(f) is f


def format_annotated(ann: AnnotatedProof) -> str:
    """format_proof_text with each node's line suffixed by its interpolant,
    then the root's interpolant."""
    text = format_proof_text(ann.proof, lambda node: f" @ {format_formula(node._interpolant)}")
    return f"{text}\n{format_formula(ann.interpolant)}\n"
