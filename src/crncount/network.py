"""Reaction network data model: species, complexes, reactions, kinetics.

A network is an ordered species list plus an ordered reaction list.  All
types are immutable after construction, so they can be shared freely
between threads.  A network never contains a flow reaction (``0 -> A`` or
``A -> 0``): the analysis adds an inflow and an outflow for every species
(``FlowAugmentation``), so ``Reaction`` rejects that shape.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

MAX_STOICH_COEFF = 2**31 - 1

CONSUMPTIVELY_INCREASING = "consumptively-increasing"
STRICTLY_MONOTONE = "strictly-monotone"


class NetworkError(ValueError):
    """Structural violation in a reaction network."""


@dataclass(frozen=True)
class Species:
    name: str
    index: int


@dataclass(frozen=True)
class Complex:
    """Sparse nonnegative-integer combination of species.

    ``coeffs`` maps species index to a coefficient >= 1; zero entries are
    never stored.  The empty tuple is the zero complex ``0``.
    """

    coeffs: Tuple[Tuple[int, int], ...]

    @staticmethod
    def from_dict(d: Dict[int, int]) -> "Complex":
        for idx, c in d.items():
            if c <= 0:
                raise NetworkError(f"stoichiometric coefficient must be >= 1, got {c}")
            if c > MAX_STOICH_COEFF:
                raise NetworkError(f"stoichiometric coefficient {c} exceeds 32-bit range")
        return Complex(tuple(sorted(d.items())))

    def get(self, index: int) -> int:
        for idx, c in self.coeffs:
            if idx == index:
                return c
        return 0

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(idx for idx, _ in self.coeffs)

    @property
    def is_empty(self) -> bool:
        return not self.coeffs

    def as_vector(self, n: int) -> Tuple[int, ...]:
        v = [0] * n
        for idx, c in self.coeffs:
            v[idx] = c
        return tuple(v)

    def format(self, names: Sequence[str]) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for idx, c in self.coeffs:
            parts.append(names[idx] if c == 1 else f"{c}{names[idx]}")
        return "+".join(parts)


@dataclass(frozen=True)
class MassAction:
    """Mass-action kinetics: rate = k * prod(c_i^y_i) over the source y.

    ``value`` is the numeric rate constant, or None when the constant is
    kept symbolic (the symbol is derived from the reaction label).
    """

    value: Optional[float] = None

    def __post_init__(self):
        if self.value is not None and not self.value > 0:
            raise NetworkError(f"mass-action rate constant must be > 0, got {self.value}")


@dataclass(frozen=True)
class GeneralMonotone:
    """Monotone rate law known only through the signs of its partials.

    ``partial_signs`` maps each dependency (species index) to +1, -1, or 0
    when the strict sign exists but is not known.  ``evaluator``, when
    present, maps a concentration vector to ``(rate, partials)`` with
    ``partials`` a length-n array; it must return rate 0 whenever some
    source species has zero concentration.
    """

    partial_signs: Tuple[Tuple[int, int], ...]
    evaluator: Optional[Callable] = field(default=None, compare=False)

    @staticmethod
    def from_signs(signs: Dict[int, int]) -> "GeneralMonotone":
        return GeneralMonotone(tuple(sorted(signs.items())))

    @property
    def dependencies(self) -> Tuple[int, ...]:
        return tuple(idx for idx, _ in self.partial_signs)

    def sign_of(self, index: int) -> int:
        for idx, s in self.partial_signs:
            if idx == index:
                return s
        raise KeyError(index)

    def monotonicity_class(self, source: Complex) -> str:
        if self.dependencies == source.support and all(s == +1 for _, s in self.partial_signs):
            return CONSUMPTIVELY_INCREASING
        return STRICTLY_MONOTONE


@dataclass(frozen=True)
class Reaction:
    source: Complex
    target: Complex
    kinetics: object  # MassAction | GeneralMonotone
    label: str

    def __post_init__(self):
        if self.source == self.target:
            raise NetworkError(f"reaction of form y -> y is not allowed: {self.label}")
        terms = self.source.coeffs + self.target.coeffs
        if (self.source.is_empty or self.target.is_empty) and len(terms) == 1 and terms[0][1] == 1:
            raise NetworkError(f"networks must not contain flow reactions ({self.label}); flows are added by the analysis")

    def reaction_vector(self, n: int) -> Tuple[int, ...]:
        v = [0] * n
        for idx, c in self.source.coeffs:
            v[idx] -= c
        for idx, c in self.target.coeffs:
            v[idx] += c
        return tuple(v)


def make_reaction(source: Complex, target: Complex, kinetics, names: Sequence[str]) -> Reaction:
    label = f"{source.format(names)}->{target.format(names)}"
    return Reaction(source, target, kinetics, label)


@dataclass(frozen=True)
class ReactionNetwork:
    species: Tuple[Species, ...]
    reactions: Tuple[Reaction, ...]

    def __post_init__(self):
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise NetworkError("species names must be unique")
        for i, sp in enumerate(self.species):
            if sp.index != i:
                raise NetworkError("species indices must be contiguous 0..n-1")
        if not self.reactions:
            raise NetworkError("network has no reactions")
        covered = set()
        for r in self.reactions:
            covered.update(r.source.support)
            covered.update(r.target.support)
        missing = [names[i] for i in range(len(names)) if i not in covered]
        if missing:
            raise NetworkError(f"species appear in no complex: {', '.join(missing)}")
        seen = set()
        for r in self.reactions:
            key = (r.source, r.target)
            if key in seen:
                raise NetworkError(f"duplicate reaction {r.label}")
            seen.add(key)

    @property
    def n(self) -> int:
        return len(self.species)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.species)

    def species_index(self, name: str) -> int:
        for s in self.species:
            if s.name == name:
                return s.index
        raise KeyError(f"unknown species {name!r}")

    def network_hash(self) -> str:
        from .dsl import serialize_network

        return hashlib.sha256(serialize_network(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class FlowAugmentation:
    """Constant inflow vector c_in and diagonal outflow matrix entries."""

    inflow: Tuple[float, ...]
    outflow: Tuple[float, ...]

    def __post_init__(self):
        if len(self.inflow) != len(self.outflow):
            raise NetworkError("inflow and outflow vectors must have equal length")
        for what, rates in (("inflow", self.inflow), ("outflow", self.outflow)):
            if not all(math.isfinite(v) and v > 0 for v in rates):
                raise NetworkError(f"{what} rates must be finite and > 0, got {', '.join(map(str, rates))}")

    @staticmethod
    def uniform(n: int, inflow: float = 1.0, outflow: float = 1.0) -> "FlowAugmentation":
        return FlowAugmentation((float(inflow),) * n, (float(outflow),) * n)


def reaction_vectors(net: ReactionNetwork) -> List[Tuple[int, ...]]:
    """Net stoichiometric change (target - source) of every reaction."""
    return [r.reaction_vector(net.n) for r in net.reactions]


def stoichiometric_rank(net: ReactionNetwork) -> int:
    """Exact rank over the rationals of the span of the reaction vectors."""
    return _rational_rank(reaction_vectors(net))


def _rational_rank(rows: Iterable[Sequence[int]]) -> int:
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while rank < len(mat) and col < ncols:
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


def with_general_kinetics(net: ReactionNetwork, signs: Optional[Dict[str, Dict[str, int]]] = None) -> ReactionNetwork:
    """Replace every reaction's kinetics by a general monotone law.

    By default each reaction becomes consumptively increasing: it depends
    exactly on its source species, with strictly positive partials.
    ``signs`` may override per reaction label, mapping species name to
    +1, -1, or 0 (sign exists but unknown).
    """
    new_reactions = []
    for r in net.reactions:
        sign_map = {idx: +1 for idx in r.source.support}
        if signs and r.label in signs:
            sign_map = {net.species_index(nm): s for nm, s in signs[r.label].items()}
        if not sign_map and not r.source.is_empty:
            raise NetworkError(f"general kinetics for {r.label} has empty dependency set")
        new_reactions.append(Reaction(r.source, r.target, GeneralMonotone.from_signs(sign_map), r.label))
    return ReactionNetwork(net.species, tuple(new_reactions))
