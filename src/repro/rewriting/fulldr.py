"""The FullDR algorithm (Appendix E): deriving Datalog rules directly.

FullDR manipulates GTGDs but only ever *derives* full TGDs.  It has two
variants:

* (COMPOSE) combines two full TGDs ``τ = β → A`` and ``τ' = A' ∧ β' → H'``
  under any substitution ``θ`` with ``θ(A) = θ(A')`` whose range is drawn from
  a fixed pool of ``hwidth(Σ) + |consts(Σ)|`` variables plus the constants of
  the premises, deriving ``θ(β) ∧ θ(β') → θ(H')``;
* (PROPAGATE) combines a non-full TGD ``τ = β → ∃ȳ (η ∧ A1 ∧ ... ∧ An)``
  with a full TGD ``τ' = A'1 ∧ ... ∧ A'n ∧ β' → H'`` under any such bounded
  substitution that unifies the ``Ai`` with the ``A'i`` without leaking
  existential variables into ``θ(β')`` or ``θ(H')``, again deriving
  ``θ(β) ∧ θ(β') → θ(H')``.

As Example E.3 illustrates, enumerating every bounded substitution rather
than a most general unifier makes FullDR far more expensive than the other
algorithms; the paper reports exactly that finding (FullDR timed out on 173
ontologies and is therefore not discussed in the main body).  The
enumeration here is routed through the shared constraint-propagating solver
(:mod:`repro.unification.solver`): the unification equalities of a premise
pair collapse the variable classes first, and only the satisfying bounded
substitutions are materialized — the *set* of derived TGDs is unchanged, but
the cartesian search over every body variable is gone, which is what lets
the FullDR comparison (``benchmarks/bench_fulldr.py``) finish Example E.3
within its timeout.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..indexing.unification_index import TGDUnificationIndex
from ..logic.atoms import Atom
from ..logic.rules import Rule, datalog_tgd_to_rule
from ..logic.substitution import Substitution
from ..logic.terms import Constant, Variable
from ..logic.tgd import TGD, head_normalize, program_constants
from ..unification.solver import solve_bounded, solve_bounded_pairings
from .base import InferenceRule, RewritingSettings
from .registry import AlgorithmCapabilities, register_algorithm


@register_algorithm(
    "fulldr",
    capabilities=AlgorithmCapabilities(
        clause_kind="tgd",
        supports_lookahead=True,
        blowup_class="double-exponential",
        description="Bounded-substitution enumeration deriving full TGDs (Appendix E)",
    ),
)
class FullDR(InferenceRule[TGD]):
    """Appendix E plugged into the saturation engine."""

    name = "FullDR"

    def __init__(self, settings: Optional[RewritingSettings] = None) -> None:
        super().__init__(settings)
        self._index = TGDUnificationIndex()
        self._variable_pool: Tuple[Variable, ...] = ()
        self._sigma_constants: Tuple[Constant, ...] = ()
        #: cap on the *satisfying* substitutions enumerated per premise pair
        #: (the blow-up that Example E.3 describes); raising it makes the
        #: algorithm more faithful and slower
        self.max_substitutions_per_pair = 500_000

    # ------------------------------------------------------------------
    # InferenceRule hooks
    # ------------------------------------------------------------------
    def prepare(self, sigma: Sequence[TGD]) -> None:
        super().prepare(sigma)
        pool_size = self.sigma_head_width + self.sigma_constant_count
        pool_size = max(pool_size, 1)
        self._variable_pool = tuple(
            Variable(f"w{index}") for index in range(pool_size)
        )
        self._sigma_constants = tuple(program_constants(sigma))

    def initial_clauses(self, sigma: Sequence[TGD]) -> Tuple[TGD, ...]:
        return head_normalize(sigma)

    def register(self, clause: TGD) -> None:
        self._index.add(clause)

    def unregister(self, clause: TGD) -> None:
        self._index.remove(clause)

    def extract_datalog(self, worked_off: Iterable[TGD]) -> Tuple[Rule, ...]:
        return tuple(
            datalog_tgd_to_rule(tgd) for tgd in worked_off if tgd.is_datalog_rule
        )

    def infer(self, clause: TGD, worked_off: Set[TGD]) -> Iterable[TGD]:
        results: List[TGD] = []
        if clause.is_full:
            # COMPOSE with clause as either premise
            for partner in self._partners_full(clause):
                if partner in worked_off:
                    results.extend(self._compose(clause, partner))
                    if partner != clause:
                        results.extend(self._compose(partner, clause))
            # PROPAGATE with clause as the full premise
            for partner in self._index.non_full_partners_for(clause):
                if partner in worked_off:
                    results.extend(self._propagate(partner, clause))
        else:
            for partner in self._index.full_partners_for(clause):
                if partner in worked_off:
                    results.extend(self._propagate(clause, partner))
        return results

    # ------------------------------------------------------------------
    # candidate retrieval
    # ------------------------------------------------------------------
    def _partners_full(self, clause: TGD) -> Tuple[TGD, ...]:
        seen: Set[TGD] = set()
        ordered: List[TGD] = []
        for atom in clause.head + clause.body:
            for candidate in itertools.chain(
                self._index.with_body_predicate(atom.predicate),
                self._index.with_head_predicate(atom.predicate),
            ):
                if candidate.is_full and candidate not in seen:
                    seen.add(candidate)
                    ordered.append(candidate)
        return tuple(ordered)

    # ------------------------------------------------------------------
    # (COMPOSE)
    # ------------------------------------------------------------------
    def _compose(self, left: TGD, right: TGD) -> List[TGD]:
        """COMPOSE: unify the single head atom of ``left`` with a body atom of ``right``."""
        if not (left.is_datalog_rule and right.is_full):
            return []
        right = right.rename_apart("c")
        head_atom = left.head[0]
        results: List[TGD] = []
        seen: Set[TGD] = set()
        variables = tuple(
            sorted(left.variables() | right.variables(), key=lambda v: v.name)
        )
        premise_constants = tuple(set(left.constants()) | set(right.constants()))
        range_terms = self._variable_pool + premise_constants
        for body_atom in right.body:
            if body_atom.predicate != head_atom.predicate:
                continue
            # the solver propagates θ(head_atom) = θ(body_atom) through its
            # variable classes and enumerates only the satisfying bounded
            # substitutions — never the cartesian product over the variables
            solutions = solve_bounded(
                variables, range_terms, equalities=((head_atom, body_atom),)
            )
            for theta in itertools.islice(
                solutions, self.max_substitutions_per_pair
            ):
                remaining = tuple(a for a in right.body if a is not body_atom)
                new_body = _dedupe(
                    theta.apply_atoms(left.body) + theta.apply_atoms(remaining)
                )
                new_head = theta.apply_atoms(right.head)
                derived = TGD(new_body, new_head)
                if derived not in seen:
                    seen.add(derived)
                    results.append(derived)
        return results

    # ------------------------------------------------------------------
    # (PROPAGATE)
    # ------------------------------------------------------------------
    def _propagate(self, non_full: TGD, full: TGD) -> List[TGD]:
        """PROPAGATE: unify head atoms of the non-full TGD with body atoms of the full one."""
        if not full.is_full:
            return []
        full = full.rename_apart("p")
        existential = non_full.existential_variables
        results: List[TGD] = []
        seen: Set[TGD] = set()
        variables = tuple(
            sorted(
                (non_full.universal_variables | full.universal_variables),
                key=lambda v: v.name,
            )
        )
        premise_constants = tuple(
            set(non_full.constants()) | set(full.constants())
        )
        existential_range = tuple(sorted(existential, key=lambda v: v.name))
        range_terms = self._variable_pool + existential_range + premise_constants
        full_body = tuple(full.body)
        # the solver enumerates every nonempty matching of body atoms to
        # same-predicate head atoms, propagating the induced equalities as
        # each pairing is chosen (the existential variables sit outside the
        # solve domain, so an equality against one pins the partner class)
        pairings = solve_bounded_pairings(
            full_body, non_full.head, variables, range_terms
        )
        for selection, theta in itertools.islice(
            pairings, self.max_substitutions_per_pair
        ):
            if self._universal_into_existential(theta, non_full, existential):
                continue
            selected = {id(body_atom) for body_atom, _ in selection}
            remaining = tuple(
                atom for atom in full_body if id(atom) not in selected
            )
            remaining_image = theta.apply_atoms(remaining)
            head_image = theta.apply_atom(full.head[0])
            if _mentions(remaining_image, existential) or _mentions(
                (head_image,), existential
            ):
                continue
            new_body = _dedupe(
                theta.apply_atoms(non_full.body) + remaining_image
            )
            derived = TGD(new_body, (head_image,))
            if derived not in seen:
                seen.add(derived)
                results.append(derived)
        return results

    @staticmethod
    def _universal_into_existential(
        theta: Substitution, non_full: TGD, existential: frozenset
    ) -> bool:
        for var in non_full.universal_variables:
            image = theta.get(var)
            if isinstance(image, Variable) and image in existential:
                return True
        return False


def _mentions(atoms: Tuple[Atom, ...], variables: frozenset) -> bool:
    return any(var in variables for atom in atoms for var in atom.variables())


def _dedupe(atoms: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
    seen = {}
    for atom in atoms:
        if atom not in seen:
            seen[atom] = None
    return tuple(seen)
