"""Properties over drawn inputs: the file formats read back what they
wrote, cut-free search returns proofs that the checker passes, and the
Maehara interpolants of those proofs are interpolants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from craig.construct import NotProvable, prove_cutfree, verify_interpolant
from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Box,
    Literal,
    Neg,
    Or,
    format_clause_set,
    parse_clause_set,
)
from craig.maehara import maehara
from craig.resolution import Satisfiable, format_refutation, parse_refutation, refute_partitioned
from craig.sequent import K, KD4, KT, LKMINUS, S4, check_proof, format_proof, parse_proof, sequent

# Derandomized, with no example database, so every run draws the same inputs.
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

ATOMS = [Atom(name) for name in "pqr"]


def formulas(modal=False):
    leaves = st.sampled_from(ATOMS + [BOTTOM])
    unary = [Neg, Box] if modal else [Neg]
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            st.builds(lambda op, f: op(f), st.sampled_from(unary), sub),
            st.builds(lambda op, f, g: op(f, g), st.sampled_from([And, Or]), sub, sub),
        ),
        max_leaves=6,
    )


literals = st.builds(
    Literal,
    st.booleans(),
    st.one_of(st.sampled_from(ATOMS + [BOTTOM]), formulas(modal=True).map(Box)),
)
atomic_clauses = st.frozensets(st.builds(Literal, st.booleans(), st.sampled_from(ATOMS[:2])), max_size=2)


@st.composite
def implications(draw):
    """(system, a, b), with a and b propositional under a propositional
    system."""
    system = draw(st.sampled_from([LKMINUS, K, KT, S4, KD4]))
    return system, draw(formulas(system.modal)), draw(formulas(system.modal))


class TestFileFormats:
    @PROPERTY
    @given(st.frozensets(st.frozensets(literals, max_size=3), max_size=4))
    def test_cls_reads_back_the_clause_set(self, cs):
        assert parse_clause_set(format_clause_set(cs)) == cs

    @PROPERTY
    @given(st.lists(atomic_clauses, max_size=5), st.lists(atomic_clauses, max_size=5))
    def test_res_reads_back_the_refutation(self, a, b):
        rp = refute_partitioned(a, b)
        assume(not isinstance(rp, Satisfiable))
        assert parse_refutation(format_refutation(rp)) == rp

    @PROPERTY
    @given(implications())
    def test_prf_reads_back_the_proof(self, drawn):
        system, a, b = drawn
        proof = prove_cutfree(sequent([a], [], [], [Or(a, b)]), system)
        assert parse_proof(format_proof(proof)) == proof


class TestSearch:
    @PROPERTY
    @given(implications())
    def test_cutfree_proofs_pass_the_checker_and_give_interpolants(self, drawn):
        system, a, b = drawn
        for seq in (sequent([a], [], [], [b]), sequent([a], [], [], [Or(b, a)])):
            try:
                proof = prove_cutfree(seq, system)
            except NotProvable:
                continue
            assert check_proof(proof, system) is None
            assert verify_interpolant(a, seq.d2[0], maehara(proof, system).interpolant, system)
