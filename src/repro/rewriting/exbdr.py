"""The Existential-Based Datalog Rewriting inference rule ExbDR (Definition 5.5).

ExbDR manipulates GTGDs directly.  It combines a non-full GTGD

``τ  =  β → ∃ȳ (η ∧ A1 ∧ ... ∧ An)``         (n ≥ 1)

with a full GTGD

``τ' =  A'1 ∧ ... ∧ A'n ∧ β' → H'``

via a ȳ-MGU ``θ`` of ``A1..An`` and ``A'1..A'n`` satisfying
``θ(x̄) ∩ ȳ = ∅`` and ``vars(θ(β')) ∩ ȳ = ∅``, deriving

``θ(β) ∧ θ(β') → ∃ȳ θ(η) ∧ θ(A1) ∧ ... ∧ θ(An) ∧ θ(H')``.

Candidate selection follows Proposition 5.7: a guard of ``τ'`` always
participates, so the implementation picks a guard ``G'``, unifies it with a
head atom of ``τ``, computes the *side atoms* forced to participate, and then
enumerates counterpart head atoms for them using the positional
compatibility filter described after Proposition 5.7.  The counterpart lists
are searched through the shared constraint-propagating solver
(:func:`repro.unification.solver.solve_unification_slots`).

**Memoized kernel.**  Saturation stores clauses in canonical form (variables
renamed ``x_i``/``y_i``) and interns atoms, so the same unification problems
recur as a non-full clause's head grows one atom at a time.  Each stage of a
combination is looked up in a table that is filled on first use and lives
for one saturation, and each table is a pure function of its key:

* the *guard stage*, keyed on (τ' renamed apart, guard, head atom of τ, ȳ
  restricted to that head atom's variables), holds the ȳ-MGU ``σ`` of the
  two atoms, the ``σ(x̄) ∩ ȳ = ∅`` test, and the split of τ''s body into
  side atoms and rest atoms ``β'``;
* a side atom's *counterpart list*, keyed on (guard stage, side atom, τ's
  head atoms of its relation, ȳ restricted to their variables);
* the slot solver's *solutions*, keyed on (guard stage, counterpart lists, ȳ
  restricted to their variables).  Each stored solution has passed
  Definition 5.5's side conditions and the lookahead, and carries ``θ(β')``
  and ``θ(H')``; only ``θ(β)`` and ``θ(η ∧ A1..An)`` are built per pair.

The keys may restrict ȳ because τ' is renamed apart from τ, so a stage
only ever meets the variables of τ that occur in the head atoms it was given.
Those lie in x̄ ∪ ȳ, so ȳ restricted to them also fixes x̄ restricted to them.

**Premise variants.**  Before a result is built, a solution is skipped when

* τ' has no rest atoms,
* ``θ`` maps x̄ injectively to variables outside ȳ, and
* ``θ(H') = θ(h)`` for some head atom ``h`` of τ (only ``H'``'s relation
  needs checking).

``θ`` fixes ȳ, so it then renames τ, and the result ``θ(β) → ∃ȳ θ(η ∧
A1..An)`` is a variant of τ.  (That also needs τ to repeat no atom, since
results are deduplicated; derived clauses never do, so only an input clause
can, and the kernel checks it.)  The result's canonical form is τ itself,
so admission always discards it.  While τ is in W ∪ U (W = worked-off
clauses, U = unprocessed clauses) it is a duplicate.  τ leaves W ∪ U only
through backward subsumption, and both subsumption checks are transitive, so
afterwards some retained clause subsumes it and it is forward-subsumed.

Partner order, solver order and the per-pair deduplication are those of the
plain algorithm, so the retained clauses and the Datalog rewriting are the
same; the saturation statistics count fewer derived clauses.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..indexing.unification_index import TGDUnificationIndex
from ..logic.atoms import Atom, Predicate
from ..logic.rules import Rule, datalog_tgd_to_rule
from ..logic.substitution import Substitution
from ..logic.terms import Variable
from ..logic.tgd import TGD, head_normalize
from ..unification.mgu import restricted_mgu
from ..unification.solver import solve_unification_slots
from .base import InferenceRule, RewritingSettings, dedupe_atoms
from .lookahead import tgd_result_is_dead_end

#: τ's head atoms of one relation, with ȳ restricted to their variables
Bucket = Tuple[Tuple[Atom, ...], FrozenSet[Variable]]
#: one stored solver solution: θ, θ(β') and θ(H')
Solution = Tuple[Substitution, Tuple[Atom, ...], Atom]

_NO_BUCKET: Bucket = ((), frozenset())


class _GuardStage:
    """A guard unified with a head atom of τ, with τ''s body split by it.

    Stages are interned in :attr:`ExbDR._guard_stages`, so a stage object
    stands for its key in the counterpart and solution tables.
    """

    __slots__ = ("sigma", "side_atoms", "rest_atoms")

    def __init__(
        self,
        sigma: Substitution,
        side_atoms: Tuple[Atom, ...],
        rest_atoms: Tuple[Atom, ...],
    ) -> None:
        self.sigma = sigma
        self.side_atoms = side_atoms
        self.rest_atoms = rest_atoms


class ExbDR(InferenceRule[TGD]):
    """Definition 5.5 plugged into the saturation engine."""

    name = "ExbDR"

    def __init__(self, settings: Optional[RewritingSettings] = None) -> None:
        super().__init__(settings)
        self._index = TGDUnificationIndex()
        #: cap on the number of side-atom counterpart combinations explored per
        #: guard choice; prevents pathological blow-ups on adversarial inputs.
        #: Past it the candidate lists are cut and the rule is marked
        #: :attr:`truncated`, so the rewriting is reported incomplete.
        self.max_combinations = 100_000
        # per-clause head atoms bucketed by predicate: the counterpart domain
        # of every guard/side-atom pairing, built once per non-full clause
        self._head_buckets: Dict[TGD, Dict[Predicate, Bucket]] = {}
        # the kernel's tables (see the module docstring)
        self._guard_stages: Dict[
            Tuple[TGD, Atom, Atom, FrozenSet[Variable]], Optional[_GuardStage]
        ] = {}
        self._counterpart_lists: Dict[
            Tuple[_GuardStage, Atom, Bucket], Tuple[Tuple[Atom, ...], FrozenSet[Variable]]
        ] = {}
        self._solutions: Dict[
            Tuple[_GuardStage, Tuple[Tuple[Atom, ...], ...], FrozenSet[Variable]],
            Tuple[Solution, ...],
        ] = {}

    # ------------------------------------------------------------------
    # InferenceRule hooks
    # ------------------------------------------------------------------
    def initial_clauses(self, sigma: Sequence[TGD]) -> Tuple[TGD, ...]:
        return head_normalize(sigma)

    def register(self, clause: TGD) -> None:
        self._index.add(clause)

    def unregister(self, clause: TGD) -> None:
        self._index.remove(clause)

    def extract_datalog(self, worked_off: Iterable[TGD]) -> Tuple[Rule, ...]:
        rules = []
        for tgd in worked_off:
            if tgd.is_datalog_rule:
                rules.append(datalog_tgd_to_rule(tgd))
        return tuple(rules)

    def infer(self, clause: TGD, worked_off: Set[TGD]) -> Iterable[TGD]:
        # Partner retrieval goes through the guard-signature buckets: the
        # Definition 5.5 unification always joins a guard of the full premise
        # with a head atom of the non-full premise, so partners without a
        # matching guard relation are never even enumerated.
        results: List[TGD] = []
        if clause.is_non_full:
            for partner in self._index.full_partners_by_guard(clause):
                if partner in worked_off and partner.is_datalog_rule:
                    results.extend(self._combine(clause, partner))
        else:
            for partner in self._index.non_full_partners_by_guard(clause):
                if partner in worked_off:
                    results.extend(self._combine(partner, clause))
        return results

    # ------------------------------------------------------------------
    # the inference proper
    # ------------------------------------------------------------------
    def _head_bucket(self, non_full: TGD) -> Dict[Predicate, Bucket]:
        buckets = self._head_buckets.get(non_full)
        if buckets is None:
            grouped: Dict[Predicate, List[Atom]] = {}
            for atom in non_full.head:
                grouped.setdefault(atom.predicate, []).append(atom)
            existential = non_full.existential_variables
            buckets = {
                predicate: (
                    tuple(atoms),
                    existential & _variables_of(atoms),
                )
                for predicate, atoms in grouped.items()
            }
            self._head_buckets[non_full] = buckets
        return buckets

    def _combine(self, non_full: TGD, full: TGD) -> List[TGD]:
        """All ExbDR consequences of the ordered pair (non-full τ, full τ')."""
        full = full.rename_apart("r")
        existential = non_full.existential_variables
        universal = non_full.universal_variables
        buckets = self._head_bucket(non_full)
        # results are deduplicated, so renaming a τ that repeats an atom
        # yields a smaller clause, not a variant of τ
        repeats_no_atom = len(non_full.body_atom_set) == len(non_full.body) and len(
            non_full.head_atom_set
        ) == len(non_full.head)
        results: List[TGD] = []
        seen: Set[TGD] = set()
        for guard in full.guards():
            for head_guard in buckets.get(guard.predicate, _NO_BUCKET)[0]:
                stage = self._guard_stage(full, guard, head_guard, existential, universal)
                if stage is None:
                    continue
                problem = self._slot_problem(stage, buckets, existential)
                if problem is None:
                    continue
                skip_variants = repeats_no_atom and not stage.rest_atoms
                for theta, new_rest, new_head_extra in self._solved(
                    stage, *problem, full, existential, universal
                ):
                    if skip_variants and self._is_premise_variant(
                        theta, new_head_extra, buckets, existential, universal
                    ):
                        continue
                    derived = TGD(
                        dedupe_atoms(theta.apply_atoms(non_full.body) + new_rest),
                        dedupe_atoms(theta.apply_atoms(non_full.head) + (new_head_extra,)),
                    )
                    if derived not in seen:
                        seen.add(derived)
                        results.append(derived)
        return results

    def _guard_stage(
        self,
        full: TGD,
        guard: Atom,
        head_guard: Atom,
        existential: FrozenSet[Variable],
        universal: FrozenSet[Variable],
    ) -> Optional[_GuardStage]:
        """The stage of one guard and same-relation head atom; ``None`` if the
        pair can yield no inference."""
        key = (full, guard, head_guard, existential & head_guard.variable_set())
        try:
            return self._guard_stages[key]
        except KeyError:
            pass
        stage = None
        sigma = restricted_mgu((head_guard,), (guard,), existential)
        if sigma is not None and not self._maps_universal_into_existential(
            sigma, universal, existential
        ):
            side_atoms = self._side_atoms(full.body, sigma, existential)
            # Proposition 5.7 guarantees the guard participates; if the
            # unification did not touch an existential variable the pair
            # cannot yield an inference.
            if guard in side_atoms:
                rest_atoms = tuple(atom for atom in full.body if atom not in side_atoms)
                stage = _GuardStage(sigma, side_atoms, rest_atoms)
        self._guard_stages[key] = stage
        return stage

    def _slot_problem(
        self,
        stage: _GuardStage,
        buckets: Dict[Predicate, Bucket],
        existential: FrozenSet[Variable],
    ) -> Optional[Tuple[Tuple[Tuple[Atom, ...], ...], FrozenSet[Variable]]]:
        """The side atoms' counterpart lists and ȳ restricted to their variables.

        ``None`` if some side atom has no counterpart.  Past
        ``max_combinations`` the lists are cut and the rule marked truncated.
        """
        candidate_lists: List[Tuple[Atom, ...]] = []
        frozen: FrozenSet[Variable] = frozenset()
        combination_count = 1
        for atom in stage.side_atoms:
            candidates, restricted = self._counterpart_list(
                stage, atom, buckets.get(atom.predicate, _NO_BUCKET), existential
            )
            if not candidates:
                return None
            candidate_lists.append(candidates)
            frozen = frozen | restricted if frozen else restricted
            combination_count *= len(candidates)
        if combination_count > self.max_combinations:
            candidate_lists = [candidates[:4] for candidates in candidate_lists]
            self.truncated = True
        return tuple(candidate_lists), frozen

    def _counterpart_list(
        self,
        stage: _GuardStage,
        body_atom: Atom,
        bucket: Bucket,
        existential: FrozenSet[Variable],
    ) -> Tuple[Tuple[Atom, ...], FrozenSet[Variable]]:
        """A side atom's counterparts, with ȳ restricted to their variables."""
        key = (stage, body_atom, bucket)
        cached = self._counterpart_lists.get(key)
        if cached is None:
            candidates = self._counterparts(body_atom, bucket[0], stage.sigma, existential)
            cached = self._counterpart_lists[key] = (
                candidates,
                bucket[1] & _variables_of(candidates),
            )
        return cached

    def _solved(
        self,
        stage: _GuardStage,
        candidate_lists: Tuple[Tuple[Atom, ...], ...],
        frozen: FrozenSet[Variable],
        full: TGD,
        existential: FrozenSet[Variable],
        universal: FrozenSet[Variable],
    ) -> Tuple[Solution, ...]:
        """The solver's solutions that pass Definition 5.5 and the lookahead.

        Slot-by-slot selection under one incrementally extended X-unifier
        with forward checking; the solver yields in product order, so the
        solutions keep the order of the cartesian product it replaced.
        """
        key = (stage, candidate_lists, frozen)
        cached = self._solutions.get(key)
        if cached is not None:
            return cached
        solutions: List[Solution] = []
        for _combination, theta in solve_unification_slots(
            stage.side_atoms, candidate_lists, existential
        ):
            solution = self._checked(theta, stage.rest_atoms, full, existential, universal)
            if solution is not None:
                solutions.append(solution)
        cached = self._solutions[key] = tuple(solutions)
        return cached

    @staticmethod
    def _maps_universal_into_existential(
        substitution: Substitution,
        universal: frozenset,
        existential: frozenset,
    ) -> bool:
        """Check the Definition 5.5 requirement ``θ(x̄) ∩ ȳ = ∅``."""
        for var in universal:
            image = substitution.get(var)
            if image is not None and isinstance(image, Variable) and image in existential:
                return True
        return False

    @staticmethod
    def _side_atoms(
        body: Tuple[Atom, ...], sigma: Substitution, existential: frozenset
    ) -> Tuple[Atom, ...]:
        """Body atoms of τ' whose σ-image mentions an existential variable of τ."""
        side = []
        for atom in body:
            image = sigma.apply_atom(atom)
            if any(var in existential for var in image.variables()):
                side.append(atom)
        return tuple(side)

    @staticmethod
    def _counterparts(
        body_atom: Atom,
        head_atoms: Tuple[Atom, ...],
        sigma: Substitution,
        existential: frozenset,
    ) -> Tuple[Atom, ...]:
        """Candidate head atoms for a side atom (positional filter of Section 5.1).

        ``head_atoms`` is the side atom's predicate bucket of the non-full
        clause's (cached) head grouping — same-predicate by construction.
        """
        image = sigma.apply_atom(body_atom)
        candidates: List[Atom] = []
        for head_atom in head_atoms:
            head_image = sigma.apply_atom(head_atom)
            compatible = True
            for body_arg, head_arg in zip(image.args, head_image.args):
                body_is_existential = (
                    isinstance(body_arg, Variable) and body_arg in existential
                )
                head_is_existential = (
                    isinstance(head_arg, Variable) and head_arg in existential
                )
                if (body_is_existential or head_is_existential) and body_arg != head_arg:
                    compatible = False
                    break
            if compatible:
                candidates.append(head_atom)
        return tuple(candidates)

    def _checked(
        self,
        theta: Substitution,
        rest_atoms: Tuple[Atom, ...],
        full: TGD,
        existential: frozenset,
        universal: frozenset,
    ) -> Optional[Solution]:
        """``(θ, θ(β'), θ(H'))`` if θ yields an ExbDR inference, else ``None``.

        ``theta`` is the ȳ-MGU of the chosen counterparts and the side atoms,
        built incrementally by :func:`solve_unification_slots` — identical to
        what ``restricted_mgu(counterparts, side_atoms, ȳ)`` would return.
        """
        if self._maps_universal_into_existential(theta, universal, existential):
            return None
        new_rest = theta.apply_atoms(rest_atoms)
        if any(
            var in existential for atom in new_rest for var in atom.variables()
        ):
            return None
        new_head_extra = theta.apply_atom(full.head[0])
        if self.settings.use_lookahead and tgd_result_is_dead_end(
            new_head_extra, existential, self.sigma_body_predicates
        ):
            return None
        return theta, new_rest, new_head_extra

    @staticmethod
    def _is_premise_variant(
        theta: Substitution,
        new_head_extra: Atom,
        buckets: Dict[Predicate, Bucket],
        existential: frozenset,
        universal: frozenset,
    ) -> bool:
        """θ renames τ (fixing ȳ) and ``θ(H')`` is already an atom of ``θ(η ∧ A1..An)``.

        The caller has checked that τ' has no rest atoms and τ repeats no
        atom, so the result would be a variant of τ (see the module docstring).
        """
        if not any(
            theta.apply_atom(atom) == new_head_extra
            for atom in buckets.get(new_head_extra.predicate, _NO_BUCKET)[0]
        ):
            return False
        images = set()
        for var in universal:
            image = theta.get(var, var)
            if not isinstance(image, Variable) or image in existential or image in images:
                return False
            images.add(image)
        return True


def _variables_of(atoms: Iterable[Atom]) -> FrozenSet[Variable]:
    return frozenset().union(*(atom.variable_set() for atom in atoms))
