"""One constraint-propagating match solver for every conjunctive enumerator.

Every matching problem in this codebase reduces to the same primitive:
enumerate the substitutions that map a conjunction of pattern atoms into a
candidate universe.  Four bespoke backtracking recursions used to exist —
FullDR's bounded-substitution cartesian product, the Skolem chase's body
matcher, exact subsumption's body/head enumerators, and the conjunction
matcher behind the naive Datalog reference evaluator and the guarded chase
engine.  This module replaces all of them with one
engine built on the classic join-ordering/selectivity ideas from the database
literature: prune a variable's candidates the moment any atom's partial
assignment rules them out, and branch on the most-constrained variable first.

Domain / propagation model
--------------------------

The solver supports three candidate-universe shapes behind four entry points:

* :func:`solve_match` — *subset matching*: every pattern atom must map to
  some atom of the universe (a predicate-indexed mapping or a plain atom
  collection).  Per-variable candidate domains are intersected across the
  pattern atoms **up front**: for each top-level variable position of each
  pattern, the set of terms its candidate targets expose is computed, the
  sets are intersected per variable, and candidates incompatible with the
  intersected domains are discarded until a fixpoint is reached.  An empty
  domain aborts the search before a single branch is explored.
* :func:`solve_cover` — the dual problem behind exact subsumption's head
  check: every *target* atom must be the image of some pattern atom.
* :func:`solve_bounded` — FullDR's bounded-substitution problem: every
  variable of an explicit tuple ranges over a fixed term pool, subject to
  atom-equality constraints ``θ(A) = θ(B)``.  Equalities are propagated
  eagerly through a union-find over the variables (variable–variable
  positions merge classes, variable–term positions collapse a class's domain
  to a single forced value), so only the surviving free classes are
  enumerated — never the full cartesian product.
* :func:`solve_bounded_pairings` — the PROPAGATE-shaped extension: each body
  atom optionally pairs with a same-predicate head atom, the induced
  equalities are propagated incrementally, and inconsistent pairings prune
  the whole selection subtree before any substitution is materialized.

During the search proper, :func:`solve_match`/:func:`solve_cover` branch on
the **most-constrained slot first** (the pattern or target with the fewest
surviving candidates) and **forward-check** after each binding: the candidate
lists of every unassigned slot sharing a freshly bound variable are
re-filtered, and an emptied list fails the branch immediately.

Reading the solver stats block
------------------------------

Every solve accumulates into a :class:`MatchSolverStats` block of the shared
counters (:class:`repro.obs.Counters`): the module-global one unless the
caller passes its own.  :func:`match_solver_stats` snapshots the global
block and :func:`reset_match_solver_stats` zeroes it.  The repository benchmark
(``perfbench/``) diffs two snapshots around each rewriting pass and reports
``solves`` and ``nodes_expanded`` as its ``unification.solver.*`` per-layer
metrics:

* ``solves`` — solver invocations (one per conjunction solved);
* ``solutions`` — substitutions enumerated across all invocations;
* ``nodes_expanded`` — branches accepted during the search (a slot bound to
  a candidate, a pairing imposed, or a free class assigned a term); the
  ratio ``solutions / nodes_expanded`` measures how little of the tree is
  wasted work;
* ``domains_pruned`` — candidate values discarded by the up-front domain
  intersection, by forward checking, or by an equality collapsing a bounded
  class's domain to one forced value;
* ``empty_domain_exits`` — searches (or subtrees) abandoned because a
  domain emptied or a constraint was contradictory; each exit is an entire
  cartesian subspace that the old enumerators would have walked.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..logic.atoms import Atom, Predicate
from ..logic.substitution import Substitution
from ..logic.terms import FunctionTerm, Term, Variable
from ..obs import Counters

#: a candidate universe: atoms pre-bucketed by predicate, or any atom
#: collection (bucketed by the solver on entry)
Universe = Union[Mapping[Predicate, Sequence[Atom]], Iterable[Atom]]

#: one (body atom, head atom) pairing of a PROPAGATE-style selection
Pairing = Tuple[Atom, Atom]


class MatchSolverStats(Counters):
    """Cumulative counters for the solver (see the module docstring)."""

    __slots__ = (
        "solves",
        "solutions",
        "nodes_expanded",
        "domains_pruned",
        "empty_domain_exits",
    )


#: module-global accumulator; callers snapshot it around the work they measure
GLOBAL_MATCH_SOLVER_STATS = MatchSolverStats()


def match_solver_stats() -> Dict[str, int]:
    """A snapshot of the global solver counters."""
    return GLOBAL_MATCH_SOLVER_STATS.snapshot()


def reset_match_solver_stats() -> None:
    """Zero the global solver counters."""
    GLOBAL_MATCH_SOLVER_STATS.reset()


# ----------------------------------------------------------------------
# destructive binding extension with an undo trail
# ----------------------------------------------------------------------
def _extend_term(
    pattern: Term,
    target: Term,
    bindings: Dict[Variable, Term],
    trail: List[Variable],
) -> bool:
    if type(pattern) is Variable:
        bound = bindings.get(pattern)
        if bound is None:
            bindings[pattern] = target
            trail.append(pattern)
            return True
        return bound == target
    if isinstance(pattern, FunctionTerm):
        if not isinstance(target, FunctionTerm) or pattern.symbol != target.symbol:
            return False
        return all(
            _extend_term(sub_pattern, sub_target, bindings, trail)
            for sub_pattern, sub_target in zip(pattern.args, target.args)
        )
    return pattern == target


def _extend_atom(
    pattern: Atom,
    target: Atom,
    bindings: Dict[Variable, Term],
    trail: List[Variable],
) -> bool:
    """Destructively extend ``bindings`` with ``μ(pattern) = target``.

    Newly bound variables are appended to ``trail`` so the caller can undo
    the extension on backtrack (the predicates are assumed equal: candidates
    are pre-bucketed by predicate).
    """
    for pattern_arg, target_arg in zip(pattern.args, target.args):
        if not _extend_term(pattern_arg, target_arg, bindings, trail):
            return False
    return True


def _undo(bindings: Dict[Variable, Term], trail: List[Variable], mark: int) -> None:
    while len(trail) > mark:
        del bindings[trail.pop()]


def _bucket(
    universe: Universe, needed: FrozenSet[Predicate]
) -> Dict[Predicate, Tuple[Atom, ...]]:
    """Snapshot the universe's buckets for the predicates a solve can probe.

    The snapshot matters: the Skolem chase adds facts to its buckets while a
    solve generator is live, and the guarded engine mutates its fact set
    between pulled solutions.  Only the pattern conjunction's predicates are
    copied — a fact store spread over many relations costs nothing beyond
    the buckets the patterns actually mention.
    """
    if isinstance(universe, Mapping):
        return {
            predicate: tuple(universe[predicate])
            for predicate in needed
            if predicate in universe
        }
    buckets: Dict[Predicate, List[Atom]] = {}
    for atom in universe:
        if atom.predicate in needed:
            buckets.setdefault(atom.predicate, []).append(atom)
    return {predicate: tuple(atoms) for predicate, atoms in buckets.items()}


# ----------------------------------------------------------------------
# slot search shared by subset matching and covering
# ----------------------------------------------------------------------
def _search_slots(
    slots: Sequence[Tuple[Pairing, ...]],
    slot_variables: Sequence[FrozenSet[Variable]],
    bindings: Dict[Variable, Term],
    stats: MatchSolverStats,
) -> Iterator[Substitution]:
    """Enumerate substitutions filling every slot with one of its candidates.

    A *slot* is a choice point holding ``(pattern, target)`` candidate pairs;
    binding a slot extends the shared substitution with ``μ(pattern) =
    target``.  Branching picks the slot with the fewest surviving candidates
    (most-constrained first); after each binding, the candidates of every
    slot sharing a freshly bound variable are re-filtered (forward checking)
    and an emptied slot fails the branch before it recurses.
    """
    trail: List[Variable] = []

    def recurse(
        active: Tuple[int, ...], domains: Dict[int, Tuple[Pairing, ...]]
    ) -> Iterator[Substitution]:
        if not active:
            stats.solutions += 1
            yield Substitution._from_dict(dict(bindings))
            return
        # most-constrained slot first
        slot = min(active, key=lambda index: len(domains[index]))
        rest = tuple(index for index in active if index != slot)
        for pattern, target in domains[slot]:
            mark = len(trail)
            if not _extend_atom(pattern, target, bindings, trail):
                _undo(bindings, trail, mark)
                continue
            stats.nodes_expanded += 1
            fresh = set(trail[mark:])
            narrowed = domains
            failed = False
            if rest and fresh:
                narrowed = {}
                for index in rest:
                    pairs = domains[index]
                    if slot_variables[index].isdisjoint(fresh):
                        narrowed[index] = pairs
                        continue
                    kept: List[Pairing] = []
                    for candidate in pairs:
                        inner_mark = len(trail)
                        if _extend_atom(
                            candidate[0], candidate[1], bindings, trail
                        ):
                            kept.append(candidate)
                        _undo(bindings, trail, inner_mark)
                    stats.domains_pruned += len(pairs) - len(kept)
                    if not kept:
                        stats.empty_domain_exits += 1
                        failed = True
                        break
                    narrowed[index] = tuple(kept)
            if not failed:
                yield from recurse(rest, narrowed)
            _undo(bindings, trail, mark)

    yield from recurse(tuple(range(len(slots))), dict(enumerate(slots)))


# ----------------------------------------------------------------------
# subset matching: every pattern maps to some universe atom
# ----------------------------------------------------------------------
def solve_match(
    patterns: Sequence[Atom],
    universe: Universe,
    base: Optional[Substitution] = None,
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Substitution]:
    """Enumerate substitutions mapping every pattern atom into the universe.

    This is the subset-matching primitive behind rule application over a
    fact store, the Skolem/guarded chase body matchers and exact
    subsumption's body check.
    ``base`` pre-seeds the substitution; only extensions of it are yielded.
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    bindings: Dict[Variable, Term] = dict(base.items()) if base else {}
    if not patterns:
        stats.solutions += 1
        yield Substitution._from_dict(dict(bindings))
        return
    buckets = _bucket(universe, frozenset(p.predicate for p in patterns))
    per_slot = [buckets.get(pattern.predicate, ()) for pattern in patterns]
    yield from _solve_slot_candidates(patterns, per_slot, bindings, stats)


def solve_match_prefiltered(
    patterns: Sequence[Atom],
    candidate_lists: Sequence[Sequence[Atom]],
    base: Optional[Substitution] = None,
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Substitution]:
    """:func:`solve_match` with per-pattern candidate lists supplied directly.

    Callers that maintain incremental per-slot candidate domains (the Skolem
    chase keeps one list per rule body atom, appended as new facts arrive)
    skip the per-solve bucketing and predicate scan entirely.
    Each candidate list may be a superset of the true matches of its pattern
    — candidates are still verified and filtered before the search — but must
    only contain atoms of the pattern's predicate.  Like :func:`solve_match`,
    the lists are snapshotted when the generator starts, so appends made
    while solutions are being pulled are not observed by this solve.
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    bindings: Dict[Variable, Term] = dict(base.items()) if base else {}
    if not patterns:
        stats.solutions += 1
        yield Substitution._from_dict(dict(bindings))
        return
    yield from _solve_slot_candidates(patterns, candidate_lists, bindings, stats)


def _solve_slot_candidates(
    patterns: Sequence[Atom],
    per_slot: Sequence[Sequence[Atom]],
    bindings: Dict[Variable, Term],
    stats: MatchSolverStats,
) -> Iterator[Substitution]:
    """Shared tail of the subset-matching solvers (see :func:`solve_match`).

    Filters each slot's raw candidates against the pre-seeded bindings, runs
    the per-variable domain-intersection fixpoint, and hands the surviving
    slots to the search.  The candidate snapshots are taken here, in the
    generator prologue, before any solution is yielded.
    """
    # initial candidate lists, filtered against the pre-seeded bindings
    trail: List[Variable] = []
    candidates: List[List[Atom]] = []
    for pattern, raw in zip(patterns, per_slot):
        kept: List[Atom] = []
        for target in raw:
            mark = len(trail)
            if _extend_atom(pattern, target, bindings, trail):
                kept.append(target)
            _undo(bindings, trail, mark)
        if not kept:
            stats.empty_domain_exits += 1
            return
        candidates.append(kept)
    # intersect per-variable candidate domains across the pattern atoms and
    # discard candidates outside the intersection, to a fixpoint
    positions: List[Tuple[Tuple[int, Variable], ...]] = [
        tuple(
            (index, arg)
            for index, arg in enumerate(pattern.args)
            if type(arg) is Variable and arg not in bindings
        )
        for pattern in patterns
    ]
    changed = True
    while changed:
        changed = False
        domains: Dict[Variable, Set[Term]] = {}
        for slot, slot_positions in enumerate(positions):
            for index, variable in slot_positions:
                values = {target.args[index] for target in candidates[slot]}
                current = domains.get(variable)
                domains[variable] = (
                    values if current is None else current & values
                )
        if any(not domain for domain in domains.values()):
            stats.empty_domain_exits += 1
            return
        for slot, slot_positions in enumerate(positions):
            if not slot_positions:
                continue
            kept = [
                target
                for target in candidates[slot]
                if all(
                    target.args[index] in domains[variable]
                    for index, variable in slot_positions
                )
            ]
            if len(kept) != len(candidates[slot]):
                stats.domains_pruned += len(candidates[slot]) - len(kept)
                candidates[slot] = kept
                changed = True
                if not kept:
                    stats.empty_domain_exits += 1
                    return
    slots = [
        tuple((pattern, target) for target in candidates[slot])
        for slot, pattern in enumerate(patterns)
    ]
    slot_variables = [pattern.variable_set() for pattern in patterns]
    yield from _search_slots(slots, slot_variables, bindings, stats)


def first_match(
    patterns: Sequence[Atom],
    universe: Universe,
    base: Optional[Substitution] = None,
    stats: Optional[MatchSolverStats] = None,
) -> Optional[Substitution]:
    """The first substitution of :func:`solve_match`, or ``None``."""
    return next(solve_match(patterns, universe, base, stats), None)


# ----------------------------------------------------------------------
# covering: every target is the image of some pattern
# ----------------------------------------------------------------------
def solve_cover(
    patterns: Sequence[Atom],
    targets: Sequence[Atom],
    base: Optional[Substitution] = None,
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Substitution]:
    """Enumerate extensions of ``base`` with ``μ(patterns) ⊇ targets``.

    The dual of :func:`solve_match`: here the *targets* are the slots and
    each must be matched by some pattern atom (exact subsumption's
    ``μ(head1) ⊇ head2`` check).  Patterns not needed to cover any target
    remain unbound.
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    bindings: Dict[Variable, Term] = dict(base.items()) if base else {}
    if not targets:
        stats.solutions += 1
        yield Substitution._from_dict(dict(bindings))
        return
    trail: List[Variable] = []
    slots: List[Tuple[Pairing, ...]] = []
    slot_variables: List[FrozenSet[Variable]] = []
    for target in targets:
        pairs: List[Pairing] = []
        variables: Set[Variable] = set()
        for pattern in patterns:
            if pattern.predicate != target.predicate:
                continue
            mark = len(trail)
            if _extend_atom(pattern, target, bindings, trail):
                pairs.append((pattern, target))
                variables |= pattern.variable_set()
            _undo(bindings, trail, mark)
        if not pairs:
            stats.empty_domain_exits += 1
            return
        slots.append(tuple(pairs))
        slot_variables.append(frozenset(variables))
    yield from _search_slots(slots, slot_variables, bindings, stats)


# ----------------------------------------------------------------------
# bounded-range solving (FullDR)
# ----------------------------------------------------------------------
class _BoundedState:
    """Union-find over range-bounded variables with trail-based undo.

    Variables outside the solve domain (e.g. the existential variables of a
    non-full premise) act as rigid terms: an equality against one collapses
    the partner class's domain to that single term.
    """

    __slots__ = ("variables", "var_set", "range_terms", "range_set", "parent", "forced", "stats")

    def __init__(
        self,
        variables: Sequence[Variable],
        range_terms: Sequence[Term],
        stats: MatchSolverStats,
    ) -> None:
        self.variables: Tuple[Variable, ...] = tuple(variables)
        self.var_set = frozenset(self.variables)
        self.range_terms: Tuple[Term, ...] = tuple(dict.fromkeys(range_terms))
        self.range_set = frozenset(self.range_terms)
        self.parent: Dict[Variable, Variable] = {v: v for v in self.variables}
        self.forced: Dict[Variable, Term] = {}
        self.stats = stats

    def find(self, variable: Variable) -> Variable:
        parent = self.parent
        while parent[variable] is not variable:
            variable = parent[variable]
        return variable

    def union(self, left: Variable, right: Variable, trail: List[Tuple[str, Variable]]) -> bool:
        left_root = self.find(left)
        right_root = self.find(right)
        if left_root is right_root:
            return True
        left_value = self.forced.get(left_root)
        right_value = self.forced.get(right_root)
        if (
            left_value is not None
            and right_value is not None
            and left_value != right_value
        ):
            return False
        self.parent[right_root] = left_root
        trail.append(("parent", right_root))
        if right_value is not None and left_value is None:
            self.forced[left_root] = right_value
            trail.append(("forced", left_root))
        return True

    def force(
        self,
        variable: Variable,
        term: Term,
        trail: List[Tuple[str, Variable]],
        require_in_range: bool = True,
    ) -> bool:
        root = self.find(variable)
        existing = self.forced.get(root)
        if existing is not None:
            return existing == term
        if require_in_range and term not in self.range_set:
            return False
        self.forced[root] = term
        trail.append(("forced", root))
        # the class's domain collapses from the whole range to one value
        self.stats.domains_pruned += max(len(self.range_terms) - 1, 0)
        return True

    def impose_atom_equality(
        self, left: Atom, right: Atom, trail: List[Tuple[str, Variable]]
    ) -> bool:
        """Propagate ``θ(left) = θ(right)`` position by position."""
        if left.predicate != right.predicate:
            return False
        var_set = self.var_set
        for left_arg, right_arg in zip(left.args, right.args):
            left_is_var = type(left_arg) is Variable and left_arg in var_set
            right_is_var = type(right_arg) is Variable and right_arg in var_set
            if left_is_var and right_is_var:
                if not self.union(left_arg, right_arg, trail):
                    return False
            elif left_is_var:
                if not self.force(left_arg, right_arg, trail):
                    return False
            elif right_is_var:
                if not self.force(right_arg, left_arg, trail):
                    return False
            elif left_arg != right_arg:
                return False
        return True

    def undo(self, trail: List[Tuple[str, Variable]], mark: int) -> None:
        while len(trail) > mark:
            kind, variable = trail.pop()
            if kind == "parent":
                self.parent[variable] = variable
            else:
                del self.forced[variable]

    def assignments(self) -> Iterator[Substitution]:
        """Enumerate all total assignments consistent with the constraints.

        Forced classes are emitted first (their domain is a single value);
        the surviving free classes each range over the full term pool.  With
        no inter-class constraints left, this is a product over class
        domains — never over the individual variables.
        """
        stats = self.stats
        classes: Dict[Variable, List[Variable]] = {}
        for variable in self.variables:
            classes.setdefault(self.find(variable), []).append(variable)
        forced_roots = [root for root in classes if root in self.forced]
        free_roots = [root for root in classes if root not in self.forced]
        mapping: Dict[Variable, Term] = {}
        for root in forced_roots:
            value = self.forced[root]
            for member in classes[root]:
                mapping[member] = value
        if free_roots and not self.range_terms:
            stats.empty_domain_exits += 1
            return

        def recurse(index: int) -> Iterator[Substitution]:
            if index == len(free_roots):
                stats.solutions += 1
                yield Substitution._from_dict(dict(mapping))
                return
            members = classes[free_roots[index]]
            for term in self.range_terms:
                stats.nodes_expanded += 1
                for member in members:
                    mapping[member] = term
                yield from recurse(index + 1)
            for member in members:
                del mapping[member]

        yield from recurse(0)


def solve_bounded(
    variables: Sequence[Variable],
    range_terms: Sequence[Term],
    equalities: Sequence[Tuple[Atom, Atom]] = (),
    base: Optional[Substitution] = None,
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Substitution]:
    """Enumerate total substitutions of ``variables`` into ``range_terms``.

    Every yielded substitution maps *each* variable to a range term and
    satisfies every atom equality ``θ(A) = θ(B)``.  Intended for function-free
    conjunctions (FullDR's COMPOSE); variables mentioned by the atoms but not
    listed in ``variables`` are treated as rigid terms.  ``base`` pre-forces
    the listed variables it binds (its images need not come from the range).
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    state = _BoundedState(variables, range_terms, stats)
    trail: List[Tuple[str, Variable]] = []
    if base:
        for variable, term in base.items():
            if variable in state.var_set and not state.force(
                variable, term, trail, require_in_range=False
            ):
                stats.empty_domain_exits += 1
                return
    for left, right in equalities:
        if not state.impose_atom_equality(left, right, trail):
            stats.empty_domain_exits += 1
            return
    yield from state.assignments()


def solve_bounded_pairings(
    body_atoms: Sequence[Atom],
    head_atoms: Sequence[Atom],
    variables: Sequence[Variable],
    range_terms: Sequence[Term],
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Tuple[Tuple[Pairing, ...], Substitution]]:
    """Enumerate ``(selection, θ)`` pairs for PROPAGATE-style inferences.

    Each body atom optionally pairs with a same-predicate head atom; for
    every *nonempty* selection, every bounded substitution unifying the
    chosen pairs is enumerated.  The equalities of a pairing are propagated
    the moment it is chosen, so a contradictory pairing prunes its entire
    selection subtree without materializing a single substitution.
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    state = _BoundedState(variables, range_terms, stats)
    trail: List[Tuple[str, Variable]] = []
    body_atoms = tuple(body_atoms)
    options: List[Tuple[Atom, ...]] = [
        tuple(head for head in head_atoms if head.predicate == body.predicate)
        for body in body_atoms
    ]
    selection: List[Pairing] = []

    def recurse(index: int) -> Iterator[Tuple[Tuple[Pairing, ...], Substitution]]:
        if index == len(body_atoms):
            if selection:
                chosen = tuple(selection)
                for theta in state.assignments():
                    yield (chosen, theta)
            return
        # leave this body atom unmatched...
        yield from recurse(index + 1)
        # ...or pair it with each compatible head atom
        body = body_atoms[index]
        for head in options[index]:
            mark = len(trail)
            if state.impose_atom_equality(body, head, trail):
                stats.nodes_expanded += 1
                selection.append((body, head))
                yield from recurse(index + 1)
                selection.pop()
            else:
                stats.empty_domain_exits += 1
            state.undo(trail, mark)

    yield from recurse(0)


def solve_unification_slots(
    right_atoms: Sequence[Atom],
    candidate_lists: Sequence[Sequence[Atom]],
    frozen_variables: FrozenSet[Variable],
    stats: Optional[MatchSolverStats] = None,
) -> Iterator[Tuple[Tuple[Atom, ...], Substitution]]:
    """Enumerate per-slot candidate choices under one shared X-unifier.

    Slot ``i`` picks one atom from ``candidate_lists[i]`` to unify with
    ``right_atoms[i]``; a complete choice yields ``(choices, θ)`` where ``θ``
    is exactly ``restricted_mgu(choices, right_atoms, frozen_variables)``.
    This is the counterpart-selection problem of ExbDR (Definition 5.5),
    previously enumerated as a cartesian product with one full MGU attempt
    per combination.  Here the unifier is extended incrementally slot by
    slot (trail-based, rolled back on backtrack) and every accepted choice
    **forward-checks** the remaining slots: their candidate lists are
    re-filtered under the extended unifier, and an emptied list prunes the
    whole subtree before any deeper combination is tried.

    Slots are processed in the given order and candidates in the given list
    order, so solutions come out in the same lexicographic order as the
    cartesian product they replace — downstream derivation order (and hence
    saturation behavior) is unchanged.
    """
    stats = stats or GLOBAL_MATCH_SOLVER_STATS
    stats.solves += 1
    count = len(right_atoms)
    if count == 0:
        return
    if any(not candidates for candidates in candidate_lists):
        stats.empty_domain_exits += 1
        return
    from .mgu import IncrementalUnifier

    unifier = IncrementalUnifier(frozen_variables)
    chosen: List[Atom] = []

    def search(
        depth: int, domains: Sequence[Sequence[Atom]]
    ) -> Iterator[Tuple[Tuple[Atom, ...], Substitution]]:
        if depth == count:
            stats.solutions += 1
            yield tuple(chosen), unifier.substitution()
            return
        target = right_atoms[depth]
        for candidate in domains[depth]:
            mark = unifier.mark()
            if not unifier.unify_atoms(candidate, target):
                stats.domains_pruned += 1
                continue
            stats.nodes_expanded += 1
            narrowed: List[Sequence[Atom]] = list(domains)
            emptied = False
            for later in range(depth + 1, count):
                kept: List[Atom] = []
                later_target = right_atoms[later]
                for later_candidate in domains[later]:
                    probe = unifier.mark()
                    if unifier.unify_atoms(later_candidate, later_target):
                        unifier.undo(probe)
                        kept.append(later_candidate)
                    else:
                        stats.domains_pruned += 1
                if not kept:
                    emptied = True
                    break
                narrowed[later] = kept
            if emptied:
                stats.empty_domain_exits += 1
                unifier.undo(mark)
                continue
            chosen.append(candidate)
            yield from search(depth + 1, narrowed)
            chosen.pop()
            unifier.undo(mark)

    yield from search(0, [tuple(candidates) for candidates in candidate_lists])
