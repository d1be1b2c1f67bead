import itertools
import random
import sys

import pytest

from craig.formulas import (
    And,
    Atom,
    BOTTOM,
    Bottom,
    Box,
    FormulaError,
    IncompleteAssignment,
    Neg,
    Or,
    clause_key,
    format_formula,
    is_modal,
    split_literal,
)
from craig.maehara import axiom_interpolant, combine
from craig.resolution import Input, Resolve, ResolutionProof, Weaken
from craig.sequent import (
    ACROSS,
    COMPONENTS,
    MODAL_JUMPS,
    ProofError,
    _drive,
    contract,
    format_sequent,
    infer,
    jump,
    jump_premise,
    main_occurrence,
    sequent,
    weaken_to,
)


def random_formula(rng, atoms=("p", "q", "r", "s"), depth=4, modal=False):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.1:
            return BOTTOM
        return Atom(rng.choice(atoms))
    kinds = ["neg", "and", "or"]
    if modal:
        kinds.append("box")
    kind = rng.choice(kinds)
    if kind == "neg":
        return Neg(random_formula(rng, atoms, depth - 1, modal))
    if kind == "box":
        return Box(random_formula(rng, atoms, depth - 1, modal))
    left = random_formula(rng, atoms, depth - 1, modal)
    right = random_formula(rng, atoms, depth - 1, modal)
    return And(left, right) if kind == "and" else Or(left, right)


def random_nnf(rng, atoms=("p", "q", "r", "s"), depth=4):
    if depth == 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.05:
            return BOTTOM
        if roll < 0.1:
            return Neg(BOTTOM)
        atom = Atom(rng.choice(atoms))
        return Neg(atom) if rng.random() < 0.5 else atom
    left = random_nnf(rng, atoms, depth - 1)
    right = random_nnf(rng, atoms, depth - 1)
    return And(left, right) if rng.random() < 0.5 else Or(left, right)


def random_clause_set(rng, atoms=("p", "q", "r", "s"), max_clauses=4, max_width=3):
    from craig.formulas import Literal

    clauses = []
    for _ in range(rng.randint(0, max_clauses)):
        lits = []
        for _ in range(rng.randint(0, max_width)):
            lits.append(Literal(rng.random() < 0.5, Atom(rng.choice(atoms))))
        clauses.append(frozenset(lits))
    return frozenset(clauses)


def random_3cnf(rng, variables=20, clauses=90):
    """clauses random 3-clauses over x00, x01, ...: the benchmark's refute
    draw, call for call."""
    from craig.formulas import Literal

    atoms = [Atom(f"x{v:02d}") for v in range(variables)]
    return [
        frozenset(Literal(rng.random() < 0.5, atoms[v]) for v in rng.sample(range(variables), 3))
        for _ in range(clauses)
    ]


def assignments_over(names):
    """Every assignment to the names, as a dict, in the rows' order of
    itertools.product([False, True], ...) over the sorted names."""
    names = sorted(names)
    for bits in itertools.product([False, True], repeat=len(names)):
        yield dict(zip(names, bits))


def reference_eval(f, assignment=None, model=None, world=None):
    """eval_formula as it was before it became a fold: one recursive,
    short-circuit evaluation per assignment or world, left part first."""
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Atom):
        if model is not None:
            return model.value(world, f.name)
        if f.name not in assignment:
            raise IncompleteAssignment(f"no value for atom {f.name}")
        return assignment[f.name]
    if isinstance(f, Neg):
        return not reference_eval(f.body, assignment, model, world)
    if isinstance(f, And):
        return reference_eval(f.left, assignment, model, world) and reference_eval(f.right, assignment, model, world)
    if isinstance(f, Or):
        return reference_eval(f.left, assignment, model, world) or reference_eval(f.right, assignment, model, world)
    if isinstance(f, Box) and model is not None:
        return all(reference_eval(f.body, assignment, model, v) for v in model.succ(world))
    raise FormulaError(f"cannot evaluate {f!r}")


def reference_format_proof(p):
    """The verbose .prf text that format_proof wrote before it left out
    derivable sequents: every node with its sequent, a cut without its
    formula, and a shared subproof copied wherever it is used.  Recursive,
    so only for proofs of modest depth."""
    seq = format_sequent(p.sequentv)
    occ = main_occurrence(p)
    if occ is not None:
        main = str(p.sequentv.flat_index(*occ))
    elif p.rule == "cut":
        main = p.main_comp
    else:
        main = "-"
    inner = " ".join([p.rule, f'"{seq}"', main] + [reference_format_proof(c) for c in p.children])
    return f"({inner})"


def iter_nodes(p, path=()):
    """(path, node) for every node of p's tree in preorder, on an explicit
    stack, so a subproof met again is walked again."""
    stack = [(path, p)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((path + (i,), node.children[i]))


def reference_iter_nodes(p, path=()):
    """The recursive preorder walk that iter_nodes replaced."""
    yield path, p
    for i, c in enumerate(p.children):
        yield from reference_iter_nodes(c, path + (i,))


def interpolants(ann):
    """((path, interpolant), ...) for every node of an annotated proof's
    tree in preorder: the interpolant the node stores, or its entry in
    ann.notes."""
    out = []
    for path, node in iter_nodes(ann.proof):
        stored = getattr(node, "_interpolant", None)
        out.append((path, ann.notes[id(node)] if stored is None else stored))
    return tuple(out)


def distinct_nodes(p):
    """The number of distinct node objects in p."""
    seen, stack = set(), [p]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children)
    return len(seen)


@pytest.fixture
def rng():
    return random.Random(20240901)


@pytest.fixture
def shallow_stack():
    """A recursion limit far below the depth of the inputs under test."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def reference_enumerate_cutfree_interpolants(s, system, max_depth):
    """enumerate_cutfree_interpolants as it was before it read the rule
    table: a recursive enumerator with its own copy of the calculus, one
    branch per connective and side, memoized by (sequent, depth)."""
    memo = {}

    def mset(seq, depth):
        key = (seq, depth)
        if key in memo:
            return memo[key]
        ants, sucs = seq.antecedent(), seq.succedent()
        # an axiom f => f or false =>
        axiom = len(ants) == 1 and (sucs == ants or not sucs and ants[0] == BOTTOM)
        out = {axiom_interpolant(seq)} if axiom else set()
        if depth > 0:
            for comp in COMPONENTS:
                ant = comp in ("g1", "g2")
                for f in set(seq.comp(comp)):
                    base = seq.remove_one(comp, f)
                    out |= mset(base, depth - 1)  # weakening backward
                    out |= mset(seq.insert(comp, f), depth - 1)  # contraction
                    if ant and isinstance(f, And):
                        out |= mset(base.insert(comp, f.left), depth - 1)
                        out |= mset(base.insert(comp, f.right), depth - 1)
                    elif ant and isinstance(f, Or):
                        ls = mset(base.insert(comp, f.left), depth - 1)
                        rs = mset(base.insert(comp, f.right), depth - 1)
                        out |= {combine("lor", comp, (x, y)) for x in ls for y in rs}
                    elif ant and isinstance(f, Neg):
                        out |= mset(base.insert(ACROSS[comp], f.body), depth - 1)
                    elif ant and isinstance(f, Box) and "t" in system.modal_rules:
                        out |= mset(seq.insert(comp, f.body), depth - 1)
                    elif not ant and isinstance(f, And):
                        ls = mset(base.insert(comp, f.left), depth - 1)
                        rs = mset(base.insert(comp, f.right), depth - 1)
                        out |= {combine("rand", comp, (x, y)) for x in ls for y in rs}
                    elif not ant and isinstance(f, Or):
                        out |= mset(base.insert(comp, f.left), depth - 1)
                        out |= mset(base.insert(comp, f.right), depth - 1)
                    elif not ant and isinstance(f, Neg):
                        out |= mset(base.insert(ACROSS[comp], f.body), depth - 1)
            out |= _reference_modal_backward(seq, system, depth, mset)
        memo[key] = frozenset(out)
        return memo[key]

    try:
        return mset(s, max_depth)
    finally:
        del mset  # it refers to itself: a cycle holding the whole memo


def _reference_modal_backward(seq, system, depth, mset):
    """The interpolants of the modal jumps that conclude seq."""
    out = set()
    dcomp = "d1" if seq.d1 else "d2"
    for rule in MODAL_JUMPS:
        if rule not in system.modal_rules:
            continue
        try:
            premise = jump_premise(rule, seq)
        except ProofError:
            continue
        out |= {combine(rule, dcomp, (x,)) for x in mset(premise, depth - 1)}
    return out


def reference_prove_cutfree(s, system):
    """prove_cutfree as it was before its search read the rule table: a
    search step that builds the premises of ~, |, & and t by hand, with &
    on the left and | on the right as both parts in one premise under both
    of their rules and a contraction."""
    from craig.construct import ConstructError, NotProvable, _checked, _fail_tree_to_model, _prop_countermodel

    if not system.modal and any(is_modal(f) for f in s.antecedent() + s.succedent()):
        raise ConstructError(
            f"boxed formula in a non-modal system {system.name}: {format_sequent(s)}"
        )
    proof, fail = _drive(_reference_searching, s, (system, frozenset(), frozenset()))
    if proof is not None:
        return _checked(proof, system)
    countermodel = None
    if not system.modal:
        countermodel = _prop_countermodel(fail.sequent)
    elif system.modal_rules == frozenset({"k"}):
        countermodel = _fail_tree_to_model(fail)
    raise NotProvable(s, countermodel)


def _reference_searching(s, arg):
    """The search step of reference_prove_cutfree: (proof, None) or (None,
    fail-tree) for s under arg = (system, unfolded, blocked)."""
    from craig.construct import _closure_proof, _FailNode

    system, unfolded, blocked = arg
    closed = _closure_proof(s)
    if closed is not None:
        return closed, None
    pick = next(((comp, f) for comp, fs in zip(COMPONENTS, s) for f in fs
                 if isinstance(f, (And, Or, Neg))), None)
    if pick is not None:
        comp, f = pick
        ant = comp in ("g1", "g2")
        base = s.remove_one(comp, f)
        if isinstance(f, Neg):
            premises, rules = [base.insert(ACROSS[comp], f.body)], ["lneg" if ant else "rneg"]
        elif isinstance(f, Or) == ant:  # lor and rand: one premise per part
            premises = [base.insert(comp, f.left), base.insert(comp, f.right)]
            rules = ["lor" if ant else "rand"]
        else:  # both parts in one premise, then the two copies of f contracted
            premises = [base.insert(comp, f.left).insert(comp, f.right)]
            rules = ["land2", "land1", "lc"] if ant else ["ror2", "ror1", "rc"]
        subs = []
        for premise in premises:
            sub, fail = yield premise, arg
            if sub is None:
                return None, fail
            subs.append(sub)
        for rule in rules:
            subs = [infer(rule, subs, f, comp)]
        return subs[0], None
    # literals and boxes only
    if "t" in system.modal_rules:
        for comp in ("g1", "g2"):
            for f in s.comp(comp):
                if isinstance(f, Box) and (comp, f) not in unfolded:
                    sub, fail = yield s.insert(comp, f.body), (system, unfolded | {(comp, f)}, blocked)
                    if sub is None:
                        return None, fail
                    return contract(infer("t", (sub,), f, comp), f, comp), None
    fails = []
    box_jump = "4" if "4" in system.modal_rules else ("k" if "k" in system.modal_rules else None)
    if box_jump is not None:
        boxed = [{g for g in s.comp(c) if isinstance(g, Box)} for c in ("g1", "g2")]
        goals = [(box_jump, sequent(*boxed, [f], []) if dcomp == "d1" else sequent(*boxed, [], [f]))
                 for dcomp in ("d1", "d2") for f in s.comp(dcomp) if isinstance(f, Box)]
        if "d" in system.modal_rules:
            goals.append(("d4" if "d4" in system.modal_rules else "d", sequent(*boxed)))
        for rule, goal in goals:
            premise = jump_premise(rule, goal)
            key = (premise, rule)
            if key in blocked:
                continue
            sub, fail = yield premise, (system, frozenset(), blocked | {key})
            if sub is not None:
                return weaken_to(reference_jump(rule, sub), s), None
            if fail is not None:
                fails.append(fail)
    return None, _FailNode(s, fails)


def reference_jump(rule, child):
    """The modal jump rule over child, its conclusion read forward from the
    premise as sequent.py read it before jump took the conclusion: k and d
    box each antecedent formula, 4 and d4 take the deepest-box split of
    each antecedent component, and k and 4 box the one succedent formula."""
    s = child.sequentv
    boxes = _deepest_box_split if rule in ("4", "d4") else (lambda fs: [Box(f) for f in fs])
    g1, g2 = boxes(s.g1), boxes(s.g2)
    if rule in ("d", "d4"):
        return jump(rule, child, sequent(g1, g2))
    return jump(rule, child, sequent(g1, g2, *([Box(f) for f in fs] for fs in (s.d1, s.d2))))


def _deepest_box_split(fs):
    """The boxed formulas whose bodies and themselves make up fs, when there
    are any: a deepest formula of fs is the body of none, so it is one of
    them, and so on for the rest less it and its body."""
    rest = sorted(fs, key=lambda f: f.depth)
    out = []
    while rest and isinstance(rest[-1], Box) and rest[-1].body in rest[:-1]:
        f = rest.pop()
        rest.remove(f.body)
        out.append(f)
    return out


def reference_enumerate_refutations(cs, max_nodes, allow_weakening=False):
    """enumerate_refutations as it was before it ran on an explicit stack:
    a recursive generator that extends the node list one node at a time."""
    inputs = sorted(cs, key=clause_key)
    bodies = {split_literal(l)[1] for c in cs for l in c}
    atoms = sorted((b for b in bodies if isinstance(b, Atom)), key=format_formula)

    def extend(nodes, clauses):
        if len(nodes) <= max_nodes and clauses and not clauses[-1]:
            used = set()
            stack = [len(nodes) - 1]
            while stack:
                i = stack.pop()
                if i in used:
                    continue
                used.add(i)
                node = nodes[i]
                if isinstance(node, Resolve):
                    stack.extend([node.left, node.right])
                elif isinstance(node, Weaken):
                    stack.append(node.premise)
            if len(used) == len(nodes):
                yield ResolutionProof(tuple(nodes), len(nodes) - 1)
        if len(nodes) >= max_nodes:
            return
        for c in inputs:
            yield from extend(nodes + [Input(c, "A")], clauses + [c])
        for i in range(len(nodes)):
            for j in range(len(nodes)):
                for a in atoms:
                    if a in clauses[i] and Neg(a) in clauses[j]:
                        merged = (clauses[i] - {a}) | (clauses[j] - {Neg(a)})
                        yield from extend(nodes + [Resolve(i, j, a)], clauses + [merged])
        if allow_weakening:
            for i in range(len(nodes)):
                for a in atoms:
                    for lit in (a, Neg(a)):
                        if lit not in clauses[i]:
                            yield from extend(
                                nodes + [Weaken(i, frozenset([lit]))],
                                clauses + [clauses[i] | {lit}],
                            )

    try:
        yield from extend([], [])
    finally:
        del extend  # it refers to itself: a cycle per call
