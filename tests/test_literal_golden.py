"""Golden text and order of clause literals.  The `.cls` and `.res` texts,
the canonical literal order and the resolution interpolants are pinned
byte for byte, so a change to how literals are represented cannot change
a file or an interpolant unnoticed."""

import hashlib

from craig.formulas import (
    BOTTOM,
    TOP,
    And,
    Atom,
    Box,
    Neg,
    clause_set_vars,
    format_clause_set,
    format_formula,
    format_literal,
    formula_length,
    literal_key,
    parse_clause_set,
    sorted_literals,
)
from craig.resolution import (
    Partition,
    format_refutation,
    interpolant_from_refutation,
    parse_refutation,
    refute,
    refute_partitioned,
)
from test_resolution import php

# p, ~p, false, true, a boxed and a negated boxed literal
GOLDEN_TEXT = "p ~[](p|q)\n~p [](p&q) false\ntrue p\n~p\n[](p&q) ~[](p|q) ~p\n"
GOLDEN_CLS = "[](p&q) false ~p\n[](p&q) ~[](p|q) ~p\np ~[](p|q)\np true\n~p\n"
GOLDEN_ORDER = [
    ("[](p&q)", (False, "[](p&q)")),
    ("false", (False, "false")),
    ("p", (False, "p")),
    ("~[](p|q)", (True, "[](p|q)")),
    ("~p", (True, "p")),
    ("true", (True, "true")),
]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def php_split(n):
    """php(n) as the pigeon clauses (A) and the hole clauses (B)."""
    cs = php(n)
    holes = frozenset(c for c in cs if all(format_literal(l).startswith("~") for l in c))
    return cs - holes, holes


class TestClauseText:
    def test_format_clause_set(self):
        assert format_clause_set(parse_clause_set(GOLDEN_TEXT)) == GOLDEN_CLS

    def test_round_trip(self):
        cs = parse_clause_set(GOLDEN_TEXT)
        assert parse_clause_set(GOLDEN_CLS) == cs
        assert format_clause_set(parse_clause_set(format_clause_set(cs))) == GOLDEN_CLS

    def test_literal_order_and_keys(self):
        lits = sorted_literals(frozenset().union(*parse_clause_set(GOLDEN_TEXT)))
        assert [(format_literal(l), literal_key(l)) for l in lits] == GOLDEN_ORDER

    def test_stored_literal_key(self):
        """literal_key, stored on the node on first use, is the literal's
        sign and its text without the sign."""
        fresh = Box(And(Atom("lk0"), Atom("lk1")))
        for lit in (TOP, BOTTOM, Atom("lk2"), Neg(Atom("lk2")), fresh, Neg(fresh)):
            want = isinstance(lit, Neg), format_literal(lit).lstrip("~")
            assert literal_key(lit) == want
            assert literal_key(lit) is literal_key(lit)
        assert literal_key(TOP) == (True, "true") and literal_key(BOTTOM) == (False, "false")
        assert literal_key(Neg(fresh)) == (True, "[](lk0&lk1)")


class TestRefutationText:
    def check(self, rp, part, nodes, text_sha, itp_length, itp_sha):
        text = format_refutation(rp)
        itp = interpolant_from_refutation(rp, part)
        assert (len(rp), sha256(text)) == (nodes, text_sha)
        assert (formula_length(itp), sha256(format_formula(itp))) == (itp_length, itp_sha)
        assert parse_refutation(text) == rp

    def test_php3_refute(self):
        cs = php(3)
        self.check(
            refute(cs),
            Partition.from_vars(clause_set_vars(cs), ()),
            64, "cb2c59385dc9d6f2db29c020ad51caa295da6cdf72d99718de22ebc64c34f342",
            85, "26ea1327fa908038a46c0fc6fa0e7a0d05fdb4a3d32e396b816d19ca15242ee6",
        )

    def test_php3_refute_partitioned(self):
        pigeons, holes = php_split(3)
        self.check(
            refute_partitioned(pigeons, holes),
            Partition.from_vars(clause_set_vars(pigeons), clause_set_vars(holes)),
            64, "996d289e8b89fd86748a8736f1d36b6957df0998e8b77f43dbff933483f72a0f",
            322, "c9b2530328a44a66f33dbbc14ae8e6ca2d3c5ccea88e78564b3d9277615546e4",
        )

    def test_small_split(self):
        a, b = parse_clause_set("p\n~p q\n"), parse_clause_set("~q r\n~r\n")
        rp = refute_partitioned(a, b)
        assert format_refutation(rp) == (
            "0: INPUT B {r ~q}\n1: INPUT A {q ~p}\n2: RES 1 0 q\n3: INPUT B {~r}\n"
            "4: RES 2 3 r\n5: INPUT A {p}\n6: RES 5 4 p\n"
        )
        itp = interpolant_from_refutation(rp, Partition.from_vars(clause_set_vars(a), clause_set_vars(b)))
        assert format_formula(itp) == "false | (q | false) & (~q | true) & true"
