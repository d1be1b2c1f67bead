"""Cut-free backward proof search for the propositional and modal systems,
plus the constructions that realize a target interpolant in a proof."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formulas import (
    And,
    Atom,
    BOTTOM,
    Box,
    Formula,
    Neg,
    Or,
    clause_set_formula,
    entails,
    format_formula,
    formula_cnf,
    is_modal,
    is_pruned_interpolant,
    make_model,
    mcnf,
    sorted_clauses,
    sorted_literals,
    vars_of,
)
from .maehara import axiom_interpolant, combine
from .sequent import (
    COMPONENTS,
    LKAT,
    MODAL_JUMPS,
    RULE_SCHEMA,
    Proof,
    ProofCheckFailed,
    ProofError,
    Sequent,
    System,
    _drive,
    ax,
    bot_axiom,
    check_proof,
    cut,
    format_sequent,
    infer,
    jump,
    jump_premise,
    premises_of,
    sequent,
    wax,
    weaken,
    weaken_to,
)
from .transform import eliminate_cuts, literal_cuts_to_atomic


class ConstructError(ProofError):
    pass


class NotProvable(ConstructError):
    def __init__(self, seq, countermodel=None):
        super().__init__(f"not provable: {seq!r}")
        self.sequent = seq
        self.countermodel = countermodel


class NotEntailed(ConstructError):
    pass


class NotAnInterpolant(ConstructError):
    pass


class NotPrunedInterpolant(ConstructError):
    pass


class SubproofMismatch(ConstructError):
    pass


# ---------------------------------------------------------------------------
# Backward search
# ---------------------------------------------------------------------------

def _closure_proof(s: Sequent):
    for gcomp in ("g1", "g2"):
        if BOTTOM in s.comp(gcomp):
            return weaken_to(bot_axiom(gcomp), s)
    for gcomp in ("g1", "g2"):
        for f in s.comp(gcomp):
            for dcomp in ("d1", "d2"):
                if f in s.comp(dcomp):
                    return weaken_to(ax(f, gcomp, dcomp), s)
    return None


def _invertible(s: Sequent, system: System, unfolded):
    """(comp, f) for the search's next invertible step on s: the first
    composite formula, else under t the first boxed antecedent formula not
    in unfolded, else None."""
    for comp, fs in zip(COMPONENTS, s):
        for f in fs:
            if isinstance(f, (And, Or, Neg)):
                return comp, f
    if "t" in system.modal_rules:
        for comp in ("g1", "g2"):
            for f in s.comp(comp):
                if isinstance(f, Box) and (comp, f) not in unfolded:
                    return comp, f
    return None


# The search's step on a composite formula, by side and connective, and its
# t step: rules of RULE_SCHEMA that share one main occurrence, each below
# the next.  & on the left and | on the right take both parts into one
# premise by both of their rules over a contraction.
_CHAINS = {
    ("g", Neg): ("lneg",), ("d", Neg): ("rneg",),
    ("g", Or): ("lor",), ("d", And): ("rand",),
    ("g", And): ("lc", "land1", "land2"), ("d", Or): ("rc", "ror1", "ror2"),
    ("g", Box): ("lc", "t"),
}


def _chain_premises(chain, s: Sequent, f: Formula, comp):
    """The premises of the topmost rule of chain, read upward from s, the
    conclusion of its first rule, with main occurrence f at comp."""
    premises = (s,)
    for rule in chain:
        premises = premises_of(rule, premises[0], f, comp)
    return premises


@dataclass
class _FailNode:
    """Countermodel scaffolding: a saturated open sequent and the models of
    its failed modal jumps."""

    sequent: Sequent
    children: list


def _prop_countermodel(s: Sequent):
    a = {}
    for f in s.antecedent():
        if isinstance(f, Atom):
            a[f.name] = True
    for f in s.succedent():
        if isinstance(f, Atom):
            a.setdefault(f.name, False)
    return a


def _fail_tree_to_model(tree: _FailNode):
    """One world per fail node, numbered in preorder, each seeing the worlds
    of its children."""
    worlds = []
    succ = {}
    val = {}
    stack = [(tree, None)]
    while stack:
        node, parent = stack.pop()
        w = len(worlds)
        worlds.append(w)
        val[w] = _prop_countermodel(node.sequent)
        succ[w] = set()
        if parent is not None:
            succ[parent].add(w)
        stack.extend((child, w) for child in reversed(node.children))
    return make_model(worlds, succ, val)


def _searching(s: Sequent, arg):
    """A _drive step: (proof, None) or (None, fail-tree) for s under arg = (system, unfolded, blocked)."""
    system, unfolded, blocked = arg
    closed = _closure_proof(s)
    if closed is not None:
        return closed, None
    pick = _invertible(s, system, unfolded)
    if pick is not None:  # the chain's premises searched, its rules applied over their proofs
        comp, f = pick
        chain = _CHAINS[comp[0], type(f)]
        if chain[-1] == "t":  # a boxed formula is unfolded once between jumps
            arg = system, unfolded | {(comp, f)}, blocked
        subs = []
        for premise in _chain_premises(chain, s, f, comp):
            sub, fail = yield premise, arg
            if sub is None:
                return None, fail
            subs.append(sub)
        for rule in reversed(chain):
            subs = [infer(rule, subs, f, comp)]
        return subs[0], None
    # literals and boxes only
    fails = []
    box_jump = "4" if "4" in system.modal_rules else ("k" if "k" in system.modal_rules else None)
    if box_jump is not None:
        # each jump's conclusion: the distinct boxed antecedent formulas of s
        # over one boxed succedent formula of s, or over nothing for d (d4
        # under 4, whose premise keeps the boxes)
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
                return weaken_to(jump(rule, sub, goal), s), None
            if fail is not None:
                fails.append(fail)
    return None, _FailNode(s, fails)


def prove_cutfree(s: Sequent, system: System) -> Proof:
    """Backward root-first search; raises NotProvable with a countermodel for
    the propositional systems and for k, and ConstructError for a boxed
    formula under a propositional system."""
    if not system.modal and any(is_modal(f) for f in s.antecedent() + s.succedent()):
        raise ConstructError(
            f"boxed formula in a non-modal system {system.name}: {format_sequent(s)}"
        )
    proof, fail = _drive(_searching, s, (system, frozenset(), frozenset()))
    if proof is not None:
        return _checked(proof, system)
    countermodel = None
    if not system.modal:
        countermodel = _prop_countermodel(fail.sequent)
    elif system.modal_rules == frozenset({"k"}):
        countermodel = _fail_tree_to_model(fail)
    raise NotProvable(s, countermodel)


def try_prove_cutfree(s: Sequent, system: System):
    try:
        return prove_cutfree(s, system)
    except NotProvable:
        return None


def verify_interpolant(a: Formula, b: Formula, c: Formula, system: System) -> bool:
    """Variable condition plus both implications, by truth table or by the
    cut-free modal prover."""
    if not vars_of(c) <= (vars_of(a) & vars_of(b)):
        return False
    if not system.modal:
        if is_modal(a) or is_modal(b) or is_modal(c):
            return False
        return entails(a, c) and entails(c, b)
    first = try_prove_cutfree(sequent([a], [], [], [c]), system)
    second = try_prove_cutfree(sequent([c], [], [], [b]), system)
    return first is not None and second is not None


# ---------------------------------------------------------------------------
# Realizing clauses (literal shifting)
# ---------------------------------------------------------------------------

def realize_clause(a: Formula, clause_, system: System = LKAT) -> Proof:
    """A proof of  a ; => ; l1, ..., lk  whose interpolant is the false
    constant disjoined with the clause's literals, via literal cuts."""
    fls = sorted_literals(clause_)
    try:
        cur = prove_cutfree(sequent([a], [], fls, []), system)
    except NotProvable as e:
        raise NotEntailed(f"{format_formula(a)} does not entail the clause") from e
    for lf in fls:
        left = weaken(cur, lf, "d2")
        ctx = left.sequentv.remove_one("d1", lf)
        right = wax(lf, ctx.insert("g1", lf), "g1", "d2")
        cur = cut(left, right, lf, 1)
    return cur


# ---------------------------------------------------------------------------
# Conjoining clause proofs (transversal cut cascade)
# ---------------------------------------------------------------------------

def conjoin(
    a: Formula,
    b: Formula,
    cs,
    pis,
    system: System = LKAT,
    cminus_cap: int = 4096,
) -> Proof:
    """Stitch per-clause proofs  a ; => ; Ci  into a checked proof of
    a ; => ; b  whose interpolant's clause set is the union of the pieces'.

    Every clause contributes cuts on its literals (right of the partition)
    against transversal premises, built from the last clause back; the
    transversal leaves  ; l1, ..., ln => ; b  are closed by cut-free search.
    Negative-literal cuts are converted to cuts on their bodies afterwards.
    """
    clauses = sorted_clauses(cs)
    if len(pis) != len(clauses):
        raise SubproofMismatch("one subproof per clause is required")
    for clause_, pi in zip(clauses, pis):
        want = sequent([a], [], [], sorted_literals(clause_))
        if pi.sequentv != want:
            raise SubproofMismatch(
                f"subproof proves {pi.sequentv!r} instead of {want!r}"
            )
    if not verify_interpolant(a, b, clause_set_formula(cs), system):
        raise NotAnInterpolant("the clause set does not interpolate a -> b")
    product = 1
    for clause_ in clauses:
        product *= max(1, len(clause_))
        if product > cminus_cap:
            raise ConstructError(
                f"transversal product exceeds the cap ({cminus_cap}); "
                "raise it explicitly for larger clause sets"
            )

    empty = [i for i, c in enumerate(clauses) if not c]
    if empty:
        # an empty clause forces a itself to be unsatisfiable; its subproof
        # already proves a ; => ;  and the remaining clauses are redundant
        return _checked(weaken_to(pis[empty[0]], sequent([a], [], [], [b])), system)

    lits = [sorted_literals(clause_) for clause_ in clauses]
    # levels[i]: the selections T of one literal from each clause before i
    levels = [[frozenset()]]
    for ls in lits:
        levels.append(list(dict.fromkeys(selection | {lf} for selection in levels[-1] for lf in ls)))
    # proofs of  a ; T => ; b  for the selections T of a level, from the
    # last level back: the leaves by cut-free search, then at level i the
    # subproof of clause i with each literal cut against the next level's
    derived = {selection: weaken_to(prove_cutfree(sequent([], selection, [], [b]), system),
                                    sequent([a], selection, [], [b]))
               for selection in levels.pop()}
    for pi, ls, selections in reversed(list(zip(pis, lits, levels))):
        above, derived = derived, {}
        for selection in selections:
            cur = weaken_to(pi, sequent([a], selection, [], ls + [b]))
            for lf in ls:
                ctx = cur.sequentv.remove_one("d2", lf)
                right = weaken_to(above[selection | {lf}], ctx.insert("g2", lf))
                cur = cut(cur, right, lf, 2)
            derived[selection] = cur
    psi = weaken_to(derived[frozenset()], sequent([a], [], [], [b]))
    return _checked(literal_cuts_to_atomic(psi), system)


def _checked(proof: Proof, system: System) -> Proof:
    bad = check_proof(proof, system)
    if bad is not None:
        raise ProofCheckFailed(f"built an invalid proof at {bad.path}: {bad.reason}")
    return proof


# ---------------------------------------------------------------------------
# Completeness constructions
# ---------------------------------------------------------------------------

def realize_interpolant(a: Formula, b: Formula, c: Formula, system: System = LKAT,
                        cminus_cap: int = 4096) -> Proof:
    """A checked proof of  a ; => ; b  whose extracted interpolant is
    equivalent to c: clause realization followed by the conjunction step."""
    if not verify_interpolant(a, b, c, system):
        raise NotAnInterpolant(f"{format_formula(c)} does not interpolate")
    cs = mcnf(c) if system.modal else formula_cnf(c)
    pis = [realize_clause(a, clause_, system) for clause_ in sorted_clauses(cs)]
    return conjoin(a, b, cs, pis, system, cminus_cap)


def realize_pruned(a: Formula, b: Formula, cs) -> Proof:
    """A tame proof with right-side cuts whose interpolant's clause set is
    exactly the given pruned interpolant; clause proofs are cut-free."""
    if not is_pruned_interpolant(cs, a, b):
        raise NotPrunedInterpolant("need a pruned interpolant of a -> b")
    pis = []
    for clause_ in sorted_clauses(cs):
        pis.append(prove_cutfree(sequent([a], [], [], sorted_literals(clause_)), LKAT))
    return conjoin(a, b, cs, pis, LKAT)


def pruned_subsumption_pipeline(a: Formula, b: Formula, cs):
    """Cut-free realization up to subsumption: realize the pruned
    interpolant, then eliminate cuts.  Returns (proof, trace)."""
    realized = realize_pruned(a, b, cs)
    result = eliminate_cuts(realized)
    return result.proof, result.trace


# ---------------------------------------------------------------------------
# Exhaustive cut-free interpolant enumeration
# ---------------------------------------------------------------------------

def enumerate_cutfree_interpolants(s: Sequent, system: System, max_depth: int):
    """All interpolant ASTs of cut-free proofs of s up to the given depth.

    A sequent's set at a depth holds the axiom's interpolant if it is an
    axiom and, above depth 0, combine's over the premises' sets a level
    lower for each cut-free rule instance that concludes it.  The sequents
    needed at each depth are collected from s down, the instances of each
    distinct one built once, and the sets of each distinct (sequent, depth)
    pair computed once, from depth 0 up.  An axiom has at most two formulas
    and, read upward, only weakening drops one, so a sequent with more than
    depth + 2 formulas has an empty set and is not collected."""
    instances = {}
    levels = [{s}]  # levels[i]: the sequents needed at depth max_depth - i
    for depth in range(max_depth, 0, -1):
        lower = set()
        for seq in levels[-1]:
            if seq not in instances:
                instances[seq] = list(_cutfree_instances(seq, system))
            for _, _, premises in instances[seq]:
                lower.update(premise for premise in premises if sum(map(len, premise)) <= depth + 1)
        levels.append(lower)
    sets = {}  # the sets of one level that are not empty
    for depth, seqs in enumerate(reversed(levels)):
        below, sets = sets, {}
        for seq in seqs:
            ants, sucs = seq.antecedent(), seq.succedent()
            # an axiom f => f or false =>
            axiom = len(ants) == 1 and (sucs == ants or not sucs and ants[0] == BOTTOM)
            out = {axiom_interpolant(seq)} if axiom else set()
            for rule, comp, premises in instances[seq] if depth else ():
                parts = [below.get(premise) for premise in premises]
                if all(parts):
                    out.update(combine(rule, comp, xs) for xs in itertools.product(*parts))
            if out:
                sets[seq] = out
    return frozenset(sets.get(s, ()))


def _cutfree_instances(seq: Sequent, system: System):
    """(rule, main component, premises) for each instance of a cut-free
    rule of the system that concludes seq: the rules of RULE_SCHEMA but cut,
    with premises_of, and the modal jumps, with jump_premise.  t is taken
    with a contraction below it, the search's t step, whose premise keeps
    the box beside its body, so that the sets at each depth are those the
    incompleteness repros (prop3.2, prop7.1) were written against."""
    for comp, fs in zip(COMPONENTS, seq):
        for f in dict.fromkeys(fs):
            for rule, (side, connective, _) in RULE_SCHEMA.items():
                if (rule == "cut" or side != comp[0] or not isinstance(f, connective or Formula)
                        or rule == "t" and rule not in system.modal_rules):
                    continue
                yield rule, comp, _chain_premises(_CHAINS["g", Box] if rule == "t" else (rule,), seq, f, comp)
    dcomp = "d1" if seq.d1 else "d2"
    for rule in MODAL_JUMPS:
        if rule in system.modal_rules:
            try:
                premise = jump_premise(rule, seq)
            except ProofError:
                continue
            yield rule, dcomp, (premise,)
