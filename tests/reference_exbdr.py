"""The ExbDR kernel before memoization, kept as an executable reference.

:class:`ReferenceExbDR` carries the plain ``_combine`` of Definition 5.5:
one guard unification, side-atom split, counterpart search and slot-solver
run per premise pair, no tables, and every unifier solution built into a
clause, premise variants of the non-full premise included.  Partner
retrieval, indexing and Datalog extraction are inherited from
:class:`repro.rewriting.exbdr.ExbDR`, so a saturation with either class
visits the same premise pairs in the same order.  Tests compare the two
kernels' retained clause sets and their work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.logic.atoms import Atom, Predicate
from repro.logic.substitution import Substitution
from repro.logic.terms import Variable
from repro.logic.tgd import TGD
from repro.rewriting.exbdr import ExbDR
from repro.rewriting.lookahead import tgd_result_is_dead_end
from repro.unification.mgu import restricted_mgu
from repro.unification.solver import solve_unification_slots


class ReferenceExbDR(ExbDR):
    """ExbDR with the unmemoized kernel (see the module docstring)."""

    name = "ExbDR (reference kernel)"

    def __init__(self, settings=None) -> None:
        super().__init__(settings)
        self._reference_buckets: Dict[
            Tuple[Atom, ...], Dict[Predicate, Tuple[Atom, ...]]
        ] = {}

    def _head_bucket(self, head: Tuple[Atom, ...]) -> Dict[Predicate, Tuple[Atom, ...]]:
        buckets = self._reference_buckets.get(head)
        if buckets is None:
            grouped: Dict[Predicate, List[Atom]] = {}
            for atom in head:
                grouped.setdefault(atom.predicate, []).append(atom)
            buckets = {
                predicate: tuple(atoms) for predicate, atoms in grouped.items()
            }
            self._reference_buckets[head] = buckets
        return buckets

    def _combine(self, non_full: TGD, full: TGD) -> List[TGD]:
        """All ExbDR consequences of the ordered pair (non-full τ, full τ')."""
        full = full.rename_apart("r")
        existential = non_full.existential_variables
        universal = non_full.universal_variables
        head_buckets = self._head_bucket(non_full.head)
        results: List[TGD] = []
        seen: Set[TGD] = set()
        for guard in full.guards():
            for head_guard in head_buckets.get(guard.predicate, ()):
                sigma = restricted_mgu((head_guard,), (guard,), existential)
                if sigma is None:
                    continue
                if self._maps_universal_into_existential(sigma, universal, existential):
                    continue
                side_atoms = self._side_atoms(full.body, sigma, existential)
                if guard not in side_atoms:
                    # Proposition 5.7 guarantees the guard participates; if the
                    # unification did not touch an existential variable the
                    # pair cannot yield an inference.
                    continue
                rest_atoms = tuple(
                    atom for atom in full.body if atom not in set(side_atoms)
                )
                candidate_lists = [
                    self._counterparts(
                        atom,
                        head_buckets.get(atom.predicate, ()),
                        sigma,
                        existential,
                    )
                    for atom in side_atoms
                ]
                if any(not candidates for candidates in candidate_lists):
                    continue
                combination_count = 1
                for candidates in candidate_lists:
                    combination_count *= len(candidates)
                if combination_count > self.max_combinations:
                    candidate_lists = [candidates[:4] for candidates in candidate_lists]
                # slot-by-slot selection under one incrementally extended
                # X-unifier with forward checking, instead of a cartesian
                # product with one full MGU attempt per combination; the
                # solver yields in product order, so `seen`/`results` are
                # populated exactly as before
                for _combination, theta in solve_unification_slots(
                    side_atoms, candidate_lists, existential
                ):
                    derived = self._derive(
                        non_full,
                        full,
                        theta,
                        rest_atoms,
                        existential,
                        universal,
                    )
                    if derived is not None and derived not in seen:
                        seen.add(derived)
                        results.append(derived)
        return results

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
    ) -> List[Atom]:
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
        return candidates

    def _derive(
        self,
        non_full: TGD,
        full: TGD,
        theta: Substitution,
        rest_atoms: Tuple[Atom, ...],
        existential: frozenset,
        universal: frozenset,
    ) -> Optional[TGD]:
        """Attempt one ExbDR inference for a fixed matching of side atoms.

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
        new_body = _dedupe(theta.apply_atoms(non_full.body) + new_rest)
        new_head = _dedupe(theta.apply_atoms(non_full.head) + (new_head_extra,))
        return TGD(new_body, new_head)


def _dedupe(atoms: Tuple[Atom, ...]) -> Tuple[Atom, ...]:
    seen = {}
    for atom in atoms:
        if atom not in seen:
            seen[atom] = None
    return tuple(seen)
