import copy
import itertools
import random
import re
import signal
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from craig import formulas
from craig.formulas import (
    ATOM_NAME,
    And,
    Atom,
    BOTTOM,
    Box,
    FormulaError,
    IncompleteAssignment,
    Literal,
    MAX_DEPTH,
    MAX_PRUNE_RESOLVENTS,
    ModalNotSupported,
    Neg,
    NotValidImplication,
    Or,
    ParseError,
    PruneTooLarge,
    REPR_LENGTH,
    TOP,
    TooManySharedVars,
    clause,
    clause_formula,
    clause_key,
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
    is_modal,
    is_pruned_clause_set,
    is_pruned_interpolant,
    literal_key,
    make_model,
    mcnf,
    nnf,
    parse_clause_set,
    parse_formula,
    prune,
    sel,
    sorted_literals,
    split_literal,
    subformulas,
    substitute,
    subsumes,
    truth_table,
    vars_of,
)
from craig.maehara import is_nnf_interpolant
from craig.sequent import propositional_degree
from conftest import assignments_over, random_3cnf, random_clause_set, random_formula, random_nnf, reference_eval

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


class TestParse:
    def test_sugar_expansion(self):
        assert parse_formula("p & q -> p | q") == Or(Neg(And(p, q)), Or(p, q))

    def test_true_is_canonical_top(self):
        assert parse_formula("true") == Neg(BOTTOM)
        assert is_valid_by_tables(parse_formula("true"))

    def test_box(self):
        assert parse_formula("[](p & q)") == Box(And(p, q))

    def test_precedence(self):
        assert parse_formula("~p & q | r") == Or(And(Neg(p), q), r)
        assert parse_formula("p -> q -> r") == Or(Neg(p), Or(Neg(q), r))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_formula("p &\n& q")
        assert info.value.line == 2
        with pytest.raises(ParseError):
            parse_formula("p q")
        with pytest.raises(ParseError):
            parse_formula("(p")

    @pytest.mark.parametrize("name", ["true", "false"])
    def test_constant_names_are_not_atoms(self, name):
        with pytest.raises(FormulaError, match="bad atom name"):
            Atom(name)
        assert format_formula(parse_formula(name)) == name
        assert Atom(name + "x").name == name + "x"
        assert Atom("x" + name).name == "x" + name

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(300):
            f = random_formula(rng, depth=5, modal=True)
            assert parse_formula(format_formula(f)) == f

    @pytest.mark.parametrize(
        "text",
        [
            "~" * MAX_DEPTH + "p",
            "[]" * MAX_DEPTH + "p",
            "(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
            " & ".join(["p"] * (MAX_DEPTH + 1)),
            "p -> " * (MAX_DEPTH - 1) + "p",
        ],
        ids=["negations", "boxes", "parentheses", "conjunctions", "implications"],
    )
    def test_nesting_up_to_the_bound_parses(self, text):
        f = parse_formula(text)
        assert f.depth <= MAX_DEPTH
        assert parse_formula(format_formula(f)) is f

    @pytest.mark.parametrize(
        "text, offending",
        [
            ("~" * 20_000 + "p", 20_000 - MAX_DEPTH - 1),
            ("[]" * (MAX_DEPTH + 1) + "p", 0),
            ("(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1), MAX_DEPTH),
            (" & ".join(["p"] * 20_000), 4 * MAX_DEPTH + 2),
            ("q | " + " | ".join(["p"] * 20_000), 4 * MAX_DEPTH + 2),
            ("p -> " * MAX_DEPTH + "p", 2),
            ("[](" * MAX_DEPTH + "~p" + ")" * MAX_DEPTH, 0),
        ],
        ids=["negations", "boxes", "parentheses", "conjunctions", "disjunctions",
             "implications", "mixed"],
    )
    def test_nesting_past_the_bound_is_a_parse_error(self, text, offending):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}") as info:
            parse_formula(text)
        assert (info.value.line, info.value.col) == (1, offending + 1)


REFERENCE_TOKEN_RE = re.compile(r"->|\[\]|[~&|()]|[a-z][a-zA-Z0-9_]*|\S")


class ReferenceTokens:
    """The character-at-a-time tokenizer that the one-pass _Tokens replaced:
    items are (kind, value, line, col)."""

    def __init__(self, text):
        self.items = []
        line = 1
        line_start = 0
        pos = 0
        while pos < len(text):
            ch = text[pos]
            if ch == "\n":
                line += 1
                line_start = pos + 1
                pos += 1
                continue
            if ch.isspace():
                pos += 1
                continue
            m = REFERENCE_TOKEN_RE.match(text, pos)
            col = pos - line_start + 1
            if not m:
                raise ParseError(f"bad character {ch!r}", line, col)
            tok = m.group()
            if tok in ("->", "[]", "~", "&", "|", "(", ")"):
                self.items.append((tok, tok, line, col))
            elif tok in ("true", "false"):
                self.items.append((tok, tok, line, col))
            elif ATOM_NAME.match(tok):
                self.items.append(("atom", tok, line, col))
            else:
                raise ParseError(f"unexpected token {tok!r}", line, col)
            pos = m.end()
        self.items.append(("eof", "", line, len(text) - line_start + 1))


def tokens_or_error(text, reference):
    """Every token with its line and column, or the tokenizer's error."""
    try:
        if reference:
            return ReferenceTokens(text).items
        toks = formulas._Tokens(text)
    except ParseError as e:
        return str(e), e.line, e.col
    out = []
    for kind, value, offset in toks.items:
        at = toks.error("", offset)
        out.append((kind, value, at.line, at.col))
    return out


# Formula-like text with line breaks, tabs, other whitespace, uppercase
# letters and stray characters, from fragments and from single characters.
formula_texts = st.one_of(
    st.lists(st.sampled_from([
        "p", "q1", "ab_C", "true", "false", "truex", "~", "&", "|", "->", "-",
        ">", "[]", "[", "]", "(", ")", " ", "\n", "\t", "\r\n", "\x0c",
        "\u00a0", "A", "Xy", "1", "_", "#", "\u00e9",
    ]), max_size=30).map("".join),
    st.text(alphabet="pqTF ~&|->[]()\n\t_1!", max_size=30),
)


class TestTokenizer:
    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(formula_texts)
    def test_same_tokens_and_errors_as_the_reference(self, text):
        want = tokens_or_error(text, reference=True)
        assert tokens_or_error(text, reference=False) == want
        if isinstance(want, list):
            # a parser error points at one of the tokens
            try:
                parse_formula(text)
            except ParseError as e:
                assert (e.line, e.col) in {(line, col) for _, _, line, col in want}


def is_valid_by_tables(f):
    return all(eval_formula(f, a) for a in assignments_over(vars_of(f)))


class TestVarsAndEval:
    def test_vars(self):
        assert vars_of(BOTTOM) == frozenset()
        assert vars_of(Neg(p)) == frozenset({"p"})
        assert vars_of(Or(And(p, q), r)) == frozenset({"p", "q", "r"})

    def test_eval(self):
        assert is_valid_by_tables(Or(p, Neg(p)))
        assert not eval_formula(And(p, q), {"p": True, "q": False})
        with pytest.raises(IncompleteAssignment):
            eval_formula(p, {})

    def test_vacuous_box(self):
        model = make_model([0], {}, {})
        assert eval_formula(Box(p), model=model, world=0)

    def test_box_with_successor(self):
        model = make_model([0, 1], {0: [1]}, {1: {"p": False}})
        assert not eval_formula(Box(p), model=model, world=0)


class TestEquiv:
    def test_double_negation(self):
        assert equiv(Neg(Neg(p)), p)

    def test_sel_bottom_top(self):
        assert equiv(sel(p, BOTTOM, TOP), p)

    def test_not_equiv(self):
        assert not equiv(And(p, q), Or(p, q))

    def test_modal_rejected(self):
        with pytest.raises(ModalNotSupported):
            equiv(Box(p), Box(p))


class TestSel:
    def test_shape(self):
        assert sel(q, p, TOP) == And(Or(q, p), Or(Neg(q), TOP))

    def test_paper_identities(self):
        assert equiv(sel(p, BOTTOM, TOP), p)
        assert equiv(sel(p, TOP, BOTTOM), Neg(p))
        assert equiv(sel(q, p, TOP), Or(p, q))


class TestCnf:
    def test_constants(self):
        assert cnf(TOP) == frozenset()
        assert cnf(BOTTOM) == frozenset([frozenset()])

    def test_distribution(self):
        # hand application of the recursion: {{p}} x {{q},{r}}
        expected = frozenset([clause("p", "q"), clause("p", "r")])
        assert cnf(Or(p, And(q, r))) == expected
        assert equiv(clause_set_formula(expected), Or(p, And(q, r)))

    def test_soundness_random(self):
        rng = random.Random(11)
        for _ in range(200):
            f = random_formula(rng, depth=5)
            assert equiv(clause_set_formula(cnf(nnf(f))), f)

    def test_algebra_random(self):
        # commutativity, associativity, idempotence, units as exact set identities
        rng = random.Random(13)
        for _ in range(300):
            a = random_nnf(rng, depth=3)
            b = random_nnf(rng, depth=3)
            c = random_nnf(rng, depth=3)
            lit = random_nnf(rng, depth=0)
            for op in (And, Or):
                assert cnf(op(a, b)) == cnf(op(b, a))
                assert cnf(op(op(a, b), c)) == cnf(op(a, op(b, c)))
            assert cnf(And(a, a)) == cnf(a)
            assert cnf(Or(lit, lit)) == cnf(lit)
            assert cnf(And(a, TOP)) == cnf(a)
            assert cnf(Or(a, BOTTOM)) == cnf(a)

    def test_same_results_as_the_recursive_reference(self):
        rng = random.Random(14)
        for _ in range(500):
            f = random_formula(rng, depth=6, modal=rng.random() < 0.3)
            assert nnf(f) is reference_nnf(f)
            assert formula_cnf(f) == reference_cnf(reference_nnf(f))
        with pytest.raises(FormulaError):
            cnf(And(p, Neg(And(p, q))))  # not an NNF

    def test_a_shared_memo_gives_the_same_clause_sets(self):
        rng = random.Random(15)
        fs = [random_formula(rng, depth=5) for _ in range(200)]
        memo = {}, {}
        for f in fs:
            assert formula_cnf(f, memo) == formula_cnf(f)
        sizes = tuple(map(len, memo))
        assert sizes[0] > 200 and sizes[1] > 200
        for f in fs:
            assert formula_cnf(f, memo) == formula_cnf(f)
        assert tuple(map(len, memo)) == sizes  # nothing computed again

    def test_each_distinct_subformula_once(self):
        """f_{k+1} = ~(f_k & f_k) is a tree of 2^60 nodes over 121 distinct
        formulas, and so is its NNF: a walk of the tree would not end."""
        f = p
        for _ in range(60):
            f = Neg(And(f, f))
        assert nnf(f).depth == 60
        assert formula_cnf(f) == frozenset([clause("p")])
        assert formula_cnf(Neg(f)) == frozenset([clause("~p")])

    def test_deep_chains_are_iterative(self, shallow_stack):
        """A 5,000-deep chain alternating | and & over three atoms, with its
        clause sets and those of its negation built alongside, step by
        step."""
        atoms = [Atom(f"x{i}") for i in range(3)]
        f = atoms[0]
        want, want_neg = frozenset([clause("x0")]), frozenset([clause("~x0")])
        for i in range(5_000):
            atom = atoms[i % 3]
            unit, neg_unit = frozenset([frozenset([atom])]), frozenset([frozenset([Neg(atom)])])
            if i % 2:
                f = And(f, atom)
                want, want_neg = want | unit, cross(want_neg, neg_unit)
            else:
                f = Or(f, atom)
                want, want_neg = cross(want, unit), want_neg | neg_unit
        with pytest.raises(RecursionError):
            reference_nnf(Neg(f))
        g = nnf(Neg(f))
        assert g.depth == f.depth + 1 and isinstance(g, Or)
        assert formula_cnf(f) == want
        assert formula_cnf(Neg(f)) == want_neg


def reference_nnf(f):
    """nnf as it was before it became a memoized explicit-stack pass."""
    if isinstance(f, (Atom, type(BOTTOM), Box)):
        return f
    if isinstance(f, And):
        return And(reference_nnf(f.left), reference_nnf(f.right))
    if isinstance(f, Or):
        return Or(reference_nnf(f.left), reference_nnf(f.right))
    body = f.body
    if isinstance(body, (Atom, type(BOTTOM), Box)):
        return f
    if isinstance(body, Neg):
        return reference_nnf(body.body)
    if isinstance(body, And):
        return Or(reference_nnf(Neg(body.left)), reference_nnf(Neg(body.right)))
    return And(reference_nnf(Neg(body.left)), reference_nnf(Neg(body.right)))


def reference_cnf(f):
    """cnf as it was before it became a memoized explicit-stack pass."""
    if f == TOP:
        return frozenset()
    if f is BOTTOM:
        return frozenset([frozenset()])
    if isinstance(f, And):
        return reference_cnf(f.left) | reference_cnf(f.right)
    if isinstance(f, Or):
        return cross(reference_cnf(f.left), reference_cnf(f.right))
    return frozenset([frozenset([f])])


class TestClauseSetFormula:
    def test_empty_set_is_top(self):
        assert clause_set_formula(frozenset()) == TOP

    def test_empty_clause_is_bottom(self):
        assert clause_set_formula(frozenset([frozenset()])) == BOTTOM

    def test_two_units(self):
        cs = frozenset([clause("p"), clause("q")])
        assert clause_set_formula(cs) == And(p, q)

    def test_text_round_trip(self):
        rng = random.Random(17)
        for _ in range(200):
            cs = random_clause_set(rng)
            assert parse_clause_set(format_clause_set(cs)) == cs

    def test_modal_literal_text(self):
        cs = frozenset([frozenset([Neg(Box(And(p, q))), r])])
        assert parse_clause_set(format_clause_set(cs)) == cs


class TestSubsumption:
    def test_examples(self):
        a = frozenset([clause("p")])
        b = frozenset([clause("p", "q"), clause("p")])
        assert subsumes(a, b)
        assert subsumes(frozenset([clause("p"), clause("q")]), frozenset([clause("p")]))

    def test_reflexive_random(self, rng):
        for _ in range(100):
            cs = random_clause_set(rng)
            assert subsumes(cs, cs)

    def test_algebra_random(self):
        rng = random.Random(19)
        for _ in range(300):
            a = random_clause_set(rng)
            b = random_clause_set(rng)
            c = random_clause_set(rng)
            if a >= b:
                assert subsumes(a, b)
            if subsumes(a, b):
                assert subsumes(a | c, b | c)
                assert subsumes(cross(a, c), cross(b, c))
                if subsumes(b, c):
                    assert subsumes(a, c)
            assert subsumes(cross(a, b) | c, cross(a | c, b | c))

    def test_subsumption_implies_entailment(self):
        rng = random.Random(23)
        for _ in range(200):
            a = random_clause_set(rng)
            b = random_clause_set(rng)
            if subsumes(a, b):
                assert entails(clause_set_formula(a), clause_set_formula(b))


def models_of(cs, names):
    fml = clause_set_formula(cs)
    return {
        tuple(sorted(a.items()))
        for a in assignments_over(names)
        if eval_formula(fml, a)
    }


class TestPrune:
    def test_an_elimination_past_the_bound_is_refused(self):
        """The A half of a benchmark refute draw, 45 random 3-clauses over 20
        atoms, multiplies its clause count with each elimination until it
        exhausts memory; prune raises before it builds that many."""
        a_half = random_3cnf(random.Random(301))[:45]
        with pytest.raises(PruneTooLarge, match=f" resolvents, more than {MAX_PRUNE_RESOLVENTS}$"):
            prune(frozenset(a_half))

    def test_example_resolves_mixed_atom(self):
        cs = frozenset([clause("p"), clause("r", "~p")])
        assert prune(cs) == frozenset([clause("r")])

    def test_fixpoint(self):
        cs = frozenset([clause("r"), clause("q", "s")])
        assert prune(cs) == cs

    def test_tautology_deleted(self):
        cs = frozenset([clause("p", "~p"), clause("r")])
        assert prune(cs) == frozenset([clause("r")])

    def test_top_clause_deleted(self):
        cs = frozenset([clause("true", "p"), clause("q")])
        assert TOP in clause("true", "p")
        assert prune(cs) == frozenset([clause("q")])

    def test_properties_random(self):
        # Model-enumeration oracle for both pruning properties.
        rng = random.Random(29)
        names = ["p", "q", "r", "s"]
        for _ in range(150):
            cs = random_clause_set(rng)
            pruned = prune(cs)
            assert is_pruned_clause_set(pruned)
            # every model of cs is a model of prune(cs)
            fml = clause_set_formula(cs)
            pfml = clause_set_formula(pruned)
            for a in assignments_over(names):
                if eval_formula(fml, a):
                    assert eval_formula(pfml, a)
            # every model of prune(cs) over the reduced language extends to one of cs
            reduced = sorted(set(names) & set().union(*[vars_of(pfml)]))
            kept = sorted(vars_of(fml))
            for a in assignments_over(reduced):
                if eval_formula(pfml, a):
                    assert any(
                        eval_formula(fml, {**ext, **a})
                        for ext in assignments_over(set(kept) - set(reduced))
                    )


class TestPrunedInterpolant:
    def test_positive(self):
        cs = frozenset([clause("p"), clause("q")])
        assert is_pruned_interpolant(cs, And(p, q), Or(p, q))

    def test_subclause_entailed(self):
        # p & q entails {p}, a proper subclause of {p q}
        cs = frozenset([clause("p", "q")])
        assert not is_pruned_interpolant(cs, And(p, q), Or(p, q))

    def test_not_pruned(self):
        cs = frozenset([clause("p", "~p")])
        assert not is_pruned_interpolant(cs, p, p)


class TestEnumerateInterpolants:
    def test_four_classes(self):
        out = enumerate_interpolants(And(p, q), Or(p, q))
        assert len(out) == 4
        targets = [And(p, q), p, q, Or(p, q)]
        for t in targets:
            assert sum(1 for f in out if equiv(f, t)) == 1

    def test_identity_implication(self):
        # oracle: the four unary boolean functions, filtered by hand
        candidates = [BOTTOM, p, Neg(p), TOP]
        expected = [
            f for f in candidates if entails(p, f) and entails(f, p)
        ]
        assert len(expected) == 1
        out = enumerate_interpolants(p, p)
        assert len(out) == 1
        assert equiv(out[0], p)

    def test_empty_shared(self):
        out = enumerate_interpolants(BOTTOM, q)
        assert len(out) == 1
        assert equiv(out[0], BOTTOM)

    def test_invalid_rejected(self):
        with pytest.raises(NotValidImplication):
            enumerate_interpolants(p, q)

    def test_cap(self):
        a = And(And(p, q), And(r, s))
        b = Or(Or(p, q), Or(r, s))
        with pytest.raises(TooManySharedVars):
            enumerate_interpolants(a, b, max_shared=3)

    def test_strongest_class_present_random(self):
        rng = random.Random(31)
        found = 0
        for _ in range(60):
            a = random_formula(rng, atoms=("p", "q", "r"), depth=3)
            b = random_formula(rng, atoms=("q", "r", "s"), depth=3)
            try:
                out = enumerate_interpolants(a, b)
            except NotValidImplication:
                continue
            found += 1
            assert out
            assert all(entails(a, f) and entails(f, b) for f in out)
            # the first class is the strongest: it implies every other class
            assert all(entails(out[0], f) for f in out)
        assert found > 5


class TestMcnf:
    def test_single_modal_literal(self):
        assert mcnf(Box(p)) == frozenset([frozenset([Box(p)])])

    def test_mixed(self):
        f = And(Box(p), Or(q, Box(r)))
        expected = frozenset(
            [frozenset([Box(p)]), frozenset([q, Box(r)])]
        )
        assert mcnf(f) == expected

    def test_negated_box(self):
        f = Or(Neg(Box(p)), s)
        assert mcnf(f) == frozenset([frozenset([Neg(Box(p)), s])])

    def test_abstraction_equivalence(self):
        # substituting fresh atoms for outer boxes must give a propositional
        # equivalence between input and clause-set interpretation
        rng = random.Random(37)
        for _ in range(100):
            f = random_formula(rng, depth=4, modal=True)
            cs = mcnf(f)
            boxes = {}

            def abstract(g):
                if isinstance(g, Box):
                    return boxes.setdefault(g, Atom(f"x{len(boxes)}"))
                if isinstance(g, Neg):
                    return Neg(abstract(g.body))
                if isinstance(g, (And, Or)):
                    return type(g)(abstract(g.left), abstract(g.right))
                return g

            lhs = abstract(f)
            rhs = abstract(clause_set_formula(cs))
            assert equiv(lhs, rhs)


class TestLiterals:
    def test_literal_is_its_formula(self):
        for body in (p, BOTTOM, Box(And(p, q))):
            assert Literal(False, body) is body
            assert Literal(True, body) is Neg(body)
            assert split_literal(body) == (False, body)
            assert split_literal(Neg(body)) == (True, body)
        assert Literal(True, BOTTOM) is TOP
        for f in (And(p, q), Neg(Neg(p)), Neg(And(p, q))):
            with pytest.raises(FormulaError, match="not a literal"):
                split_literal(f)

    def test_clause_key_keys_each_literal_once(self, rng, monkeypatch):
        """clause_key sorts the literals' keys, which is what keying the
        sorted literals gave, on clauses with true, false and boxed
        literals, and keys each literal once."""
        atoms = (p, q, r, BOTTOM, Box(p), Box(And(p, q)))
        clauses = [frozenset(), frozenset([TOP]), frozenset([BOTTOM, TOP])]
        for _ in range(2000):
            clauses.append(frozenset(
                Literal(rng.random() < 0.5, rng.choice(atoms)) for _ in range(rng.randint(1, 5))
            ))
        for c in clauses:
            assert clause_key(c) == tuple(literal_key(l) for l in sorted_literals(c))
        calls = []
        monkeypatch.setattr(formulas, "literal_key", lambda l: calls.append(l) or literal_key(l))
        wide = clauses[-1] | {Box(r), Neg(Box(q))}
        formulas.clause_key(wide)
        assert sorted(calls, key=literal_key) == sorted(wide, key=literal_key)

    def test_clause_formula_ordering(self):
        # right-associated disjunction in canonical literal order
        c = clause("~q", "p", "r")
        assert clause_formula(c) == Or(p, Or(r, Neg(q)))


# ---------------------------------------------------------------------------
# Truth tables as bit-vectors, against the per-row evaluation they replaced
# ---------------------------------------------------------------------------

def reference_entails(a, b):
    """entails as it was before truth tables became bit-vectors: one
    evaluation per row."""
    names = vars_of(a) | vars_of(b)
    return all(eval_formula(b, v) for v in assignments_over(names) if eval_formula(a, v))


def reference_equiv(f, g):
    names = vars_of(f) | vars_of(g)
    return all(eval_formula(f, v) == eval_formula(g, v) for v in assignments_over(names))


def reference_projected_rows(f, shared):
    """Truth-table rows over the shared atoms reachable by some model of f."""
    rows = set()
    extra = sorted(vars_of(f) - set(shared))
    for row in assignments_over(shared):
        for ext in assignments_over(extra):
            if eval_formula(f, {**row, **ext}):
                rows.add(tuple(row[x] for x in shared))
                break
    return rows


def reference_forcing_rows(b, shared):
    """Rows over the shared atoms under which b holds for every extension."""
    rows = set()
    extra = sorted(vars_of(b) - set(shared))
    for row in assignments_over(shared):
        if all(eval_formula(b, {**row, **ext}) for ext in assignments_over(extra)):
            rows.add(tuple(row[x] for x in shared))
    return rows


def reference_enumerate_interpolants(a, b, max_shared=4):
    """enumerate_interpolants over the per-row references."""
    shared = sorted(vars_of(a) & vars_of(b))
    if len(shared) > max_shared:
        raise TooManySharedVars(f"{len(shared)} shared atoms exceeds cap {max_shared}")
    lower = reference_projected_rows(a, shared)
    upper = reference_forcing_rows(b, shared)
    if not lower <= upper:
        raise NotValidImplication("the implication is not valid")
    free = sorted(upper - lower)
    out = []
    for picks in itertools.product([False, True], repeat=len(free)):
        rows = set(lower) | {r for r, take in zip(free, picks) if take}
        out.append((rows, clause_set_formula(formulas._prime_implicate_cnf(rows, shared))))
    order = list(itertools.product([False, True], repeat=len(shared)))
    out.sort(key=lambda rf: tuple(r in rf[0] for r in order))
    return [f for _, f in out]


def reference_is_pruned_interpolant(cs, a, b):
    """is_pruned_interpolant with one reference entailment per proper
    subclause."""
    if not is_pruned_clause_set(cs):
        return False
    f = clause_set_formula(cs)
    shared = vars_of(a) & vars_of(b)
    if not (vars_of(f) <= shared and reference_entails(a, f) and reference_entails(f, b)):
        return False
    return not any(
        reference_entails(a, clause_formula(frozenset(sub)))
        for c in cs for r in range(len(c)) for sub in itertools.combinations(c, r)
    )


def random_implication(rng):
    return (random_formula(rng, atoms=("p", "q", "r", "u"), depth=3),
            random_formula(rng, atoms=("p", "q", "r", "v"), depth=3))


class TestTruthTables:
    def test_bit_i_is_eval_formula_on_row_i(self):
        rng = random.Random(41)
        fs = [random_formula(rng, depth=5) for _ in range(300)]
        for f in fs + [TOP, BOTTOM, Neg(TOP), And(p, Neg(p)), Or(p, Neg(p))]:
            names = sorted(vars_of(f) | set(rng.sample(["p", "q", "r", "s", "t"], 2)))
            rng.shuffle(names)  # any order of the names
            table = truth_table(f, names)
            rows = list(itertools.product([False, True], repeat=len(names)))
            assert 0 <= table < 1 << len(rows)
            for i, row in enumerate(rows):
                assert (table >> i & 1 == 1) == eval_formula(f, dict(zip(names, row)))

    def test_zero_atoms_make_one_row(self):
        assert truth_table(TOP, []) == 1
        assert truth_table(BOTTOM, []) == 0
        assert truth_table(Or(BOTTOM, Neg(And(TOP, BOTTOM))), []) == 1
        assert truth_table(p, ["p"]) == 0b10
        assert truth_table(p, ["p", "q"]) == 0b1100
        assert truth_table(q, ["p", "q"]) == 0b1010

    def test_atoms_outside_the_names_and_boxes_are_refused(self):
        with pytest.raises(IncompleteAssignment):
            truth_table(And(p, q), ["p"])
        with pytest.raises(ModalNotSupported):
            truth_table(Or(p, Box(q)), ["p", "q"])

    def test_entails_and_equiv_equal_the_row_by_row_reference(self):
        rng = random.Random(43)
        for _ in range(400):
            f = random_formula(rng, depth=4)
            g = random_formula(rng, depth=4) if rng.random() < 0.7 else nnf(f)
            assert entails(f, g) == reference_entails(f, g)
            assert entails(g, f) == reference_entails(g, f)
            assert equiv(f, g) == reference_equiv(f, g)

    def test_shared_rows_equal_the_references(self):
        rng = random.Random(47)
        for _ in range(200):
            f = random_formula(rng, depth=4)
            shared = sorted(rng.sample(["p", "q", "r", "s"], rng.randint(0, 4)))
            assert formulas._shared_rows(f, shared, every=False) == reference_projected_rows(f, shared)
            assert formulas._shared_rows(f, shared, every=True) == reference_forcing_rows(f, shared)

    def test_enumerate_interpolants_equals_the_reference(self):
        rng = random.Random(53)
        valid = 0
        for _ in range(150):
            a, b = random_implication(rng)
            try:
                want = reference_enumerate_interpolants(a, b)
            except (NotValidImplication, TooManySharedVars) as e:
                with pytest.raises(type(e)):
                    enumerate_interpolants(a, b)
                continue
            valid += 1
            assert enumerate_interpolants(a, b) == want
        assert valid > 20

    def test_is_pruned_interpolant_equals_the_reference(self):
        """Every class of each valid draw, pruned, and random clause sets
        over the shared atoms."""
        rng = random.Random(59)
        verdicts = set()
        for _ in range(80):
            a, b = random_implication(rng)
            try:
                targets = enumerate_interpolants(a, b)
            except FormulaError:
                continue
            shared = sorted(vars_of(a) & vars_of(b)) or ["p"]
            candidates = [prune(formula_cnf(t)) for t in targets]
            candidates += [random_clause_set(rng, atoms=shared) for _ in range(5)]
            for cs in candidates:
                got = is_pruned_interpolant(cs, a, b)
                assert got == reference_is_pruned_interpolant(cs, a, b)
                verdicts.add(got)
        assert verdicts == {False, True}


# ---------------------------------------------------------------------------
# The fold on shared and on deep formulas
# ---------------------------------------------------------------------------

@contextmanager
def deadline(seconds):
    """Raises TimeoutError inside the block once seconds have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"not done within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def quick(fn, *args):
    """fn(*args), which must return within a second."""
    with deadline(1.0):
        return fn(*args)


def or_tower(base, levels=60):
    """f' = f | f from base: a tree of 2^levels copies of base over
    levels + 1 distinct formulas."""
    for _ in range(levels):
        base = Or(base, base)
    return base


def neg_tower(base, levels=60):
    """f' = ~(f & f) from base: equivalent to base at an even level."""
    for _ in range(levels):
        base = Neg(And(base, base))
    return base


class TestSharedFormulas:
    """Each walker takes each distinct subformula once.  A failing assert
    compares plain values only: printing a tower takes tree-sized text."""

    def test_or_tower(self):
        f = or_tower(p)
        got = (
            quick(vars_of, f),
            quick(formula_length, f),
            quick(is_modal, f),
            quick(propositional_degree, f),
            len(quick(subformulas, f)),
            quick(substitute, f, {p: q}) is or_tower(q),
            quick(nnf, f) is f,
            quick(is_nnf_interpolant, f),
            quick(formula_cnf, f),
            quick(truth_table, f, ["p"]),
            quick(entails, f, p) and quick(entails, p, f),
            quick(equiv, f, p),
        )
        want = (frozenset({"p"}), 2 ** 61 - 1, False, 2 ** 60 - 1, 61, True, True, True,
                frozenset([clause("p")]), 0b10, True, True)
        assert got == want

    def test_neg_tower(self):
        f = neg_tower(p)
        got = (
            quick(vars_of, f),
            quick(formula_length, f),
            quick(is_modal, f),
            quick(propositional_degree, f),
            len(quick(subformulas, f)),
            quick(substitute, f, {p: q}) is neg_tower(q),
            quick(nnf, f).depth,
            quick(is_nnf_interpolant, f),
            quick(formula_cnf, f),
            quick(truth_table, f, ["p"]),
            quick(entails, f, p) and quick(entails, p, f),
            quick(equiv, f, Neg(neg_tower(p, 59))),
        )
        want = (frozenset({"p"}), 3 * 2 ** 60 - 2, False, 2 ** 61 - 2, 121, True, 60, False,
                frozenset([clause("p")]), 0b10, True, True)
        assert got == want

    def test_towers_over_a_box(self):
        boxed = Box(p)
        got = [
            (quick(is_modal, f), quick(propositional_degree, f), len(quick(subformulas, f)),
             quick(mcnf, f), quick(mcnf, Neg(f)))
            for f in (or_tower(boxed), neg_tower(boxed))
        ]
        unit, neg_unit = frozenset([frozenset([boxed])]), frozenset([frozenset([Neg(boxed)])])
        assert got == [(True, 2 ** 60 - 1, 62, unit, neg_unit), (True, 2 ** 61 - 2, 122, unit, neg_unit)]


class TestDeepFormulas:
    """5,000-deep chains built with the constructors, beyond the recursion
    limit under shallow_stack."""

    def test_fold_walkers_on_an_and_or_chain(self, shallow_stack):
        atoms = [Atom(f"x{i}") for i in range(3)]
        renamed = {atoms[0]: atoms[1]}
        rows = list(itertools.product([False, True], repeat=3))
        f, g = atoms[0], atoms[1]
        values = [row[0] for row in rows]  # the chain's value on each row
        for i in range(5_000):
            atom = atoms[i % 3]
            op = And if i % 2 else Or
            f, g = op(f, atom), op(g, renamed.get(atom, atom))
            values = [(v and row[i % 3]) if i % 2 else (v or row[i % 3]) for v, row in zip(values, rows)]
        got = (
            vars_of(f),
            formula_length(f),
            is_modal(f),
            propositional_degree(f),
            len(subformulas(f)),
            substitute(f, dict(renamed)) is g,
            nnf(f) is f,
            nnf(Neg(f)).depth,
            is_nnf_interpolant(f),
            is_nnf_interpolant(Neg(f)),
            truth_table(f, ["x0", "x1", "x2"]) == sum(v << i for i, v in enumerate(values)),
            entails(f, Or(f, atoms[1])),
            equiv(f, And(f, f)),
        )
        want = (frozenset({"x0", "x1", "x2"}), 10_001, False, 5_000, 5_003, True, True, 5_001,
                True, False, True, True, True)
        assert got == want

    def test_printing_a_prefix_chain(self, shallow_stack):
        f = p
        for i in range(5_000):
            f = Neg(f) if i % 2 else Box(f)
        text = format_formula(f)
        assert text == "~[]" * 2_500 + "p"
        assert (formula_length(f), is_modal(f), propositional_degree(f)) == (5_001, True, 2_500)

    def test_repr_of_a_60_000_deep_chain(self, shallow_stack):
        """A repr prints the text of a formula of at most REPR_LENGTH
        symbols, and else its class, depth and length, storing no text on
        the nodes: the text stored on each node of a chain takes memory
        quadratic in its depth."""
        atoms = [Atom(f"x{i}") for i in range(3)]
        f = atoms[0]
        for i in range(60_000):
            f = (And if i % 2 else Or)(f, atoms[i % 3])
            if i == 98:
                short = Neg(f)  # 200 symbols
        tracemalloc.start()
        try:
            text = repr(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert text == "<And depth=60000 length=120001>" and peak < 20_000_000
        assert not hasattr(f, "_key")
        assert formula_length(short) == REPR_LENGTH
        assert repr(short) == f"<{format_formula(short)}>"
        assert repr(Or(short, p)) == f"<Or depth=101 length={REPR_LENGTH + 2}>"

    def test_mcnf_of_a_chain_over_boxes(self, shallow_stack):
        atoms = [Atom(f"x{i}") for i in range(3)]
        f = Box(atoms[0])
        want = frozenset([frozenset([f])])
        for i in range(5_000):
            if i % 2:
                lit = Box(atoms[i % 3])
                f, want = And(f, lit), want | frozenset([frozenset([lit])])
            else:
                lit = atoms[i % 3]
                f, want = Or(f, lit), cross(want, frozenset([frozenset([lit])]))
        assert (is_modal(f), len(subformulas(f))) == (True, 5_006)
        assert mcnf(f) == want


def answer(function, *args, **kwargs):
    """function's value, or its exception's name and message, so that a
    test compares a failure like a value."""
    try:
        return function(*args, **kwargs)
    except Exception as e:
        return f"{type(e).__name__}: {e}"


class TestEvalFormula:
    """eval_formula is a fold: Kleene's three values classically, a set of
    worlds in a model.  reference_eval is the recursive short-circuit
    evaluation it replaced."""

    def test_equals_the_reference_wherever_the_reference_answers(self):
        rng = random.Random(61)
        answered = raised = 0
        for _ in range(600):
            f = random_formula(rng, depth=5)
            for a in assignments_over(vars_of(f)):
                partial = {name: v for name, v in a.items() if rng.random() < 0.6}
                for where in (a, partial):
                    want, got = answer(reference_eval, f, where), answer(eval_formula, f, where)
                    if type(want) is bool:
                        assert got == want
                        continue
                    assert want.startswith("IncompleteAssignment: ")
                    if type(got) is str:
                        missing = got.removeprefix("IncompleteAssignment: no value for atom ")
                        assert missing in vars_of(f) - where.keys()
                        raised += 1
                    else:
                        # the atoms that are assigned decide f alone
                        assert all(eval_formula(f, {**full, **where}) == got
                                   for full in assignments_over(vars_of(f) - where.keys()))
                        answered += 1
        assert answered > 100 and raised > 100

    def test_equals_the_reference_in_small_kripke_models(self):
        rng = random.Random(67)
        for _ in range(400):
            f = random_formula(rng, depth=5, modal=True)
            worlds = list(range(rng.randint(1, 3)))
            succ = {w: [v for v in worlds if rng.random() < 0.5] for w in worlds}
            val = {w: {name: rng.random() < 0.5 for name in "pqrs"} for w in worlds}
            model = make_model(worlds, succ, val)
            for w in worlds + [len(worlds)]:  # a world outside the model too
                assert eval_formula(f, model=model, world=w) == reference_eval(f, model=model, world=w)

    def test_a_60_000_deep_chain(self, shallow_stack):
        """A chain alternating | and & over three atoms and their boxes,
        with its value under one assignment and at each world of a
        two-world model computed alongside, step by step."""
        atoms = [Atom(f"x{i}") for i in range(3)]
        assignment = {"x0": True, "x1": False, "x2": True}
        model = make_model([0, 1], {0: [1]}, {0: {"x0": True, "x2": True}, 1: {"x1": True}})

        def holds(g, w):
            if type(g) is Box:
                return all(holds(g.body, v) for v in model.succ(w))
            return model.value(w, g.name)

        f = boxed = atoms[0]
        value, at = True, [True, False]
        for i in range(60_000):
            atom = atoms[i % 3]
            part = Box(atom) if i % 4 == 1 else atom
            if i % 2:
                f, boxed = And(f, atom), And(boxed, part)
                value = value and assignment[atom.name]
                at = [at[w] and holds(part, w) for w in (0, 1)]
            else:
                f, boxed = Or(f, atom), Or(boxed, part)
                value = value or assignment[atom.name]
                at = [at[w] or holds(part, w) for w in (0, 1)]
        got = (
            answer(eval_formula, f, assignment),
            [answer(eval_formula, boxed, model=model, world=w) for w in (0, 1)],
            answer(eval_formula, f, {"x0": True, "x1": True}),
            # the last link is & x2, so x2 false decides the chain alone
            answer(eval_formula, f, {"x0": True, "x2": False}),
        )
        assert got == (value, at, "IncompleteAssignment: no value for atom x2", False)

    def test_parsing_at_the_bound(self, shallow_stack):
        texts = ("(" * MAX_DEPTH + "p" + ")" * MAX_DEPTH, "[](" * MAX_DEPTH + "p" + ")" * MAX_DEPTH,
                 "(" * (MAX_DEPTH + 1) + "p" + ")" * (MAX_DEPTH + 1))
        got = [answer(lambda text: parse_formula(text).depth, text) for text in texts]
        assert got == [0, MAX_DEPTH, f"ParseError: 1:{MAX_DEPTH + 1}: formula nested deeper than {MAX_DEPTH}"]

    def test_copies_of_a_20_000_deep_formula_are_the_node(self, shallow_stack):
        f = p
        for i in range(20_000):
            f = And(f, q) if i % 2 else Neg(f)
        copies = [answer(copy.copy, f), answer(copy.deepcopy, f), answer(copy.deepcopy, [f, (f, Neg(f))])]
        assert [copies[0] is f, copies[1] is f, copies[2][1][0] is f] == [True, True, True]
