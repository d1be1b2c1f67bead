"""Interpolant extraction over split proofs, for the propositional systems
with atomic/literal/monochromatic cuts and the normal modal systems."""

from __future__ import annotations

from dataclasses import dataclass, field

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
    RULES,
    Proof,
    ProofError,
    Sequent,
    System,
    _drive,
    axiom_kind,
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
    # id(node): interpolant, for the nodes walked that store none
    notes: dict = field(repr=False, compare=False)

    @property
    def interpolant(self) -> Formula:
        return _note(self.proof, self.notes)


def _note(node: Proof, notes) -> Formula:
    stored = getattr(node, "_interpolant", None)
    return notes[id(node)] if stored is None else stored


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
    the end-sequent's partition.

    One pass of _drive steps, once per distinct node, that checks each node
    before its premises, so the first failure in preorder is the one
    raised.  Like the check_proof verdict, each node walked stores its
    interpolant, and a later call stops there.  Only the d and d4 rules are
    checked against the system, so such a node and the nodes below it
    store none and are checked on every call; every other check holds
    under any system once passed.  Within cut elimination each call thus
    walks only the nodes that the last step built."""
    memo = {}
    _drive(_annotating, p, bool({"k", "4"} & system.modal_rules), memo)
    notes = {id(node): c for node, c in memo.values() if getattr(node, "_interpolant", None) is None}
    return AnnotatedProof(p, notes)


def _annotating(node: Proof, serial: bool):
    """One maehara step: the interpolant of node, where serial tells
    whether the system has a rule that introduces a boxed succedent."""
    c = getattr(node, "_interpolant", None)
    if c is not None:
        return c
    rule = node.rule
    if rule == "cut":
        if not is_monochromatic(node.main_formula, node.sequentv):
            raise NonMonochromaticCut(f"cut on {node.main_formula!r} in {format_sequent(node.sequentv)}")
    elif rule in ("d", "d4"):
        if not serial:
            raise UnsupportedRule("interpolating the seriality rule needs a box-introducing rule")
    elif rule not in RULES:
        raise UnsupportedRule(f"no interpolation case for rule {rule!r}")
    keep = rule not in ("d", "d4")
    parts = []
    for child in node.children:
        c = getattr(child, "_interpolant", None)
        if c is None:
            c = yield child, serial
            keep = keep and getattr(child, "_interpolant", None) is not None
        parts.append(c)
    if parts:
        c = combine(rule, node.main_comp, parts)
    elif rule in ("ax", "bot"):
        c = axiom_interpolant(node.sequentv)
    else:
        c = None  # a leaf that no rule allows; check_proof rejects it
    if keep:
        node.__dict__["_interpolant"] = c
    return c


def is_nnf_interpolant(f: Formula) -> bool:
    """Negation only on atoms, false, or boxed subformulas (box bodies are
    opaque): f is its own NNF."""
    return nnf(f) is f


def format_annotated(ann: AnnotatedProof) -> str:
    """format_proof_text with each node's line suffixed by its interpolant,
    then the root's interpolant."""
    text = format_proof_text(ann.proof, lambda node: f" @ {format_formula(_note(node, ann.notes))}")
    return f"{text}\n{format_formula(ann.interpolant)}\n"
