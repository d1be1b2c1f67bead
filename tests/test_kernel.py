"""The hash-consed formula kernel: one node per structure, identity
equality, stored fields equal to their recursive definitions, and an
intern table that holds only live formulas, literals among them."""

import copy
import gc
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craig import formulas
from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    FormulaError,
    Literal,
    Neg,
    Or,
    TOP,
    format_formula,
    format_literal,
    formula_length,
    is_modal,
    literal_key,
    parse_formula,
    parse_literal,
    vars_of,
)
from craig.sequent import parse_sequent

# Derandomized, with a fixed number of bounded-size examples, and no example
# database, so every run checks the same formulas in about the same time.
KERNEL = settings(derandomize=True, database=None, deadline=None, max_examples=300)

# Formula shapes as plain tuples, so structural equality of shapes is
# Python's own tuple equality and not the kernel's.
shapes = st.recursive(
    st.one_of(
        st.sampled_from(["p", "q", "r"]).map(lambda name: ("atom", name)),
        st.just(("false",)),
    ),
    lambda sub: st.one_of(
        st.tuples(st.sampled_from(["neg", "box"]), sub),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub),
    ),
    max_leaves=12,
)

BUILD = {"neg": Neg, "box": Box, "and": And, "or": Or}


def build(shape):
    if shape[0] == "atom":
        return Atom(shape[1])
    if shape[0] == "false":
        return Bottom()
    return BUILD[shape[0]](*(build(s) for s in shape[1:]))


def reference_vars(f):
    if isinstance(f, Atom):
        return frozenset([f.name])
    if isinstance(f, (Neg, Box)):
        return reference_vars(f.body)
    if isinstance(f, (And, Or)):
        return reference_vars(f.left) | reference_vars(f.right)
    return frozenset()


def reference_length(f):
    if isinstance(f, (Neg, Box)):
        return 1 + reference_length(f.body)
    if isinstance(f, (And, Or)):
        return 1 + reference_length(f.left) + reference_length(f.right)
    return 1


def reference_modal(f):
    if isinstance(f, Box):
        return True
    if isinstance(f, Neg):
        return reference_modal(f.body)
    if isinstance(f, (And, Or)):
        return reference_modal(f.left) or reference_modal(f.right)
    return False


def reference_depth(f):
    if isinstance(f, (Neg, Box)):
        return 1 + reference_depth(f.body)
    if isinstance(f, (And, Or)):
        return 1 + max(reference_depth(f.left), reference_depth(f.right))
    return 0


class TestInterning:
    @KERNEL
    @given(shapes)
    def test_round_trip_is_the_same_node(self, shape):
        f = build(shape)
        assert parse_formula(format_formula(f)) is f

    @KERNEL
    @given(shapes, shapes)
    def test_equal_structure_is_identity(self, a_shape, b_shape):
        a, b = build(a_shape), build(b_shape)
        assert (a is b) == (a_shape == b_shape)
        assert (a == b) == (format_formula(a) == format_formula(b))
        assert (a == b) == (hash(a) == hash(b))

    @KERNEL
    @given(shapes)
    def test_stored_fields_match_their_definitions(self, shape):
        f = build(shape)
        for _ in range(2):  # computed, then read back
            assert vars_of(f) == reference_vars(f)
            assert formula_length(f) == reference_length(f)
            assert is_modal(f) == reference_modal(f)
            assert f.depth == reference_depth(f)

    def test_constants(self):
        assert Bottom() is BOTTOM
        assert Neg(Bottom()) is TOP
        assert format_formula(TOP) == "true"

    def test_nodes_are_immutable(self):
        f = And(Atom("p"), Atom("q"))
        with pytest.raises(AttributeError):
            f.left = Atom("r")
        with pytest.raises(AttributeError):
            del f.right
        assert format_formula(f) == "p & q"

    def test_copy_and_pickle_give_the_interned_node(self):
        f = parse_formula("[](p & ~q) | false -> true")
        for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert g is f
        assert pickle.loads(pickle.dumps(BOTTOM)) is BOTTOM
        assert copy.deepcopy(TOP) is TOP
        s = parse_sequent("p & q ; r => ~p ; []q")
        for back in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert back == s
            assert all(a is b for a, b in zip(back.g1 + back.g2 + back.d1 + back.d2,
                                              s.g1 + s.g2 + s.d1 + s.d2))

    def test_pickle_takes_any_depth_and_writes_each_subformula_once(self, shallow_stack):
        chain = Atom("p")
        for _ in range(60_000):
            chain = Neg(chain)

        def doubled(levels):
            g = Atom("q")
            for _ in range(levels):
                g = Or(g, g)
            return g

        for f in (chain, doubled(40), Box(And(chain, doubled(3)))):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(f, protocol)) is f
        # the 40-level DAG has 41 distinct subformulas and a tree of 2^41 - 1
        sizes = [len(pickle.dumps(doubled(levels))) for levels in (10, 20, 40)]
        assert sizes[2] - sizes[1] <= 2 * (sizes[1] - sizes[0]) and sizes[2] < 1_000

    def test_children_must_be_formulas(self):
        with pytest.raises(FormulaError, match="not a formula"):
            Neg("p")
        with pytest.raises(FormulaError, match="not a formula"):
            And(Atom("p"), None)

    def test_table_holds_only_live_formulas(self):
        gc.collect()
        before = len(formulas._INTERN)
        built = [And(Atom(f"dropped{i}"), Neg(Atom(f"dropped{i}"))) for i in range(100_000)]
        for f in built[::1000]:
            format_formula(f), vars_of(f), formula_length(f), is_modal(f)
        assert len(formulas._INTERN) == before + 300_000
        del built, f
        gc.collect()
        assert len(formulas._INTERN) == before

    def test_threads_share_one_node_per_structure(self):
        """More threads than cores build the same new formulas at once."""
        names = [f"shared{i}" for i in range(3_000)]
        results = {}

        def work(k):
            results[k] = [Or(Neg(Atom(n)), And(Atom(n), BOTTOM)) for n in names]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        first = results[0]
        for got in results.values():
            assert all(a is b for a, b in zip(got, first))


# Literal shapes: a sign and an atom, false or boxed body.
literal_shapes = st.tuples(
    st.booleans(),
    st.one_of(
        st.sampled_from(["p", "q"]).map(lambda name: ("atom", name)),
        st.just(("false",)),
        shapes.map(lambda shape: ("box", shape)),
    ),
)


def build_literal(shape):
    negated, body = shape
    return Literal(negated, build(body))


class TestLiterals:
    @KERNEL
    @given(literal_shapes, literal_shapes)
    def test_equal_structure_is_identity(self, a_shape, b_shape):
        a, b = build_literal(a_shape), build_literal(b_shape)
        assert (a is b) == (a_shape == b_shape)
        assert (a == b) == (a is b)
        assert (a == b) == (hash(a) == hash(b))

    @KERNEL
    @given(literal_shapes)
    def test_round_trip_and_stored_key(self, shape):
        lit = build_literal(shape)
        negated = shape[0]
        assert parse_literal(format_literal(lit)) is lit
        assert literal_key(lit) == (negated, format_literal(lit).lstrip("~"))

    def test_body_must_be_an_atom_false_or_boxed(self):
        for body in (Neg(Atom("p")), And(Atom("p"), Atom("q")), "p"):
            with pytest.raises(FormulaError, match="literal body"):
                Literal(False, body)

    def test_literals_are_immutable(self):
        lit = Literal(True, Atom("p"))
        with pytest.raises(AttributeError):
            lit.body = Atom("q")
        with pytest.raises(AttributeError):
            del lit.body
        assert format_literal(lit) == "~p"

    def test_copy_and_pickle_give_the_interned_literal(self):
        for lit in (Literal(True, Atom("p")), Literal(False, parse_formula("[](p & ~q)")),
                    Literal(True, BOTTOM)):
            for other in (copy.copy(lit), copy.deepcopy(lit), pickle.loads(pickle.dumps(lit))):
                assert other is lit

    def test_table_holds_only_live_literals(self):
        gc.collect()
        before = len(formulas._INTERN)
        built = [Literal(i % 2 == 0, Atom(f"droppedlit{i}")) for i in range(50_000)]
        for lit in built[::1000]:
            literal_key(lit)
        # 50,000 atoms and the 25,000 negated ones
        assert len(formulas._INTERN) == before + 75_000
        del built, lit
        gc.collect()
        assert len(formulas._INTERN) == before

    def test_threads_share_one_literal_per_key(self):
        """More threads than cores build the same new literals at once."""
        names = [f"sharedlit{i}" for i in range(3_000)]
        results = {}

        def work(k):
            results[k] = [Literal(True, Atom(n)) for n in names]

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        first = results[0]
        for got in results.values():
            assert all(a is b for a, b in zip(got, first))
