import random
import re

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
    TOP,
    TooManySharedVars,
    assignments_over,
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
    subsumes,
    vars_of,
)
from conftest import random_3cnf, random_clause_set, random_formula, random_nnf

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
