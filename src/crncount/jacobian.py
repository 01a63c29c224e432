"""Symbolic species-formation rates, Jacobians, and determinant sign censuses.

The census classifies every term of an expanded Jacobian determinant by
its pointwise sign on the open positive orthant.  Terms whose sign equals
-(-1)^n oppose the degree of the pure-flow system and are "anomalous";
for each one we derive a sufficient parameter inequality (a dominance
condition) under which a negative partner term absorbs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .network import GeneralMonotone, MassAction, NetworkError, ReactionNetwork
from .polynomial import (
    CONCENTRATION,
    Monomial,
    Polynomial,
    concentration,
    differentiate,
    kinetic_partial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_format,
    mono_gcd,
    mono_mul,
    mono_restrict,
    mono_sign,
    rate_constant,
)

UNIT_OUTFLOW = "unit"
SYMBOLIC_OUTFLOW = "symbolic"


@dataclass(frozen=True)
class SymbolicRate:
    """Symbolic right-hand side of the concentration ODE system."""

    network: ReactionNetwork
    entries: Tuple[Polynomial, ...]


def build_mass_action_rate(net: ReactionNetwork) -> SymbolicRate:
    """Species formation rate of a mass-action network, one polynomial per species.

    Every rate constant stays the symbol k[label], numeric or not, so that
    polynomial coefficients stay integer.
    """
    names = net.names
    entries = [Polynomial.zero() for _ in range(net.n)]
    for r in net.reactions:
        if not isinstance(r.kinetics, MassAction):
            raise NetworkError(f"reaction {r.label} does not have mass-action kinetics")
        mono = ((rate_constant(r.label), 1),)
        for idx, e in r.source.coeffs:
            mono = mono_mul(mono, ((concentration(idx, names[idx]), e),))
        rate = Polynomial.term(1, mono)
        vec = r.reaction_vector(net.n)
        for j, coeff in enumerate(vec):
            if coeff:
                entries[j] = entries[j] + rate * coeff
    return SymbolicRate(net, tuple(entries))


def symbolic_jacobian(rate: SymbolicRate) -> List[List[Polynomial]]:
    """Jacobian matrix of a symbolic rate: rows are equations, columns concentrations."""
    net = rate.network
    names = net.names
    return [
        [differentiate(rate.entries[j], concentration(i, names[i])) for i in range(net.n)]
        for j in range(net.n)
    ]


def build_general_jacobian(net: ReactionNetwork, outflow: str = UNIT_OUTFLOW) -> List[List[Polynomial]]:
    """Jacobian under general monotone kinetics, in kinetic-partial symbols.

    Entry (j, i) sums (target - source)_j times the partial symbol of each
    reaction depending on species i, minus the outflow diagonal of
    ``_subtract_outflows``.
    """
    names = net.names
    n = net.n
    J = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for r in net.reactions:
        kin = r.kinetics
        if not isinstance(kin, GeneralMonotone):
            raise NetworkError(f"reaction {r.label} does not have general monotone kinetics")
        if not kin.dependencies and not r.source.is_empty:
            raise NetworkError(f"reaction {r.label} has an empty dependency set")
        vec = r.reaction_vector(n)
        for i in kin.dependencies:
            partial = kinetic_partial(r.label, i, names[i], kin.sign_of(i))
            for j, coeff in enumerate(vec):
                if coeff:
                    J[j][i] = J[j][i] + Polynomial.term(coeff, ((partial, 1),))
    _subtract_outflows(J, net, outflow)
    return J


def augmented_mass_action_jacobian(net: ReactionNetwork, outflow: str = UNIT_OUTFLOW) -> List[List[Polynomial]]:
    """Jacobian of the mass-action system augmented with inflows and outflows.

    Inflows are constants and never reach the Jacobian; outflows subtract
    the diagonal (1 per species by default, symbols with "symbolic").
    """
    J = symbolic_jacobian(build_mass_action_rate(net))
    _subtract_outflows(J, net, outflow)
    return J


def _subtract_outflows(J: List[List[Polynomial]], net: ReactionNetwork, outflow: str) -> None:
    """Subtract each species' outflow constant from the Jacobian diagonal:
    1 with ``outflow="unit"``, the symbol k[X->0] with ``outflow="symbolic"``."""
    if outflow not in (UNIT_OUTFLOW, SYMBOLIC_OUTFLOW):
        raise ValueError(f"unknown outflow mode {outflow!r}")
    for j, name in enumerate(net.names):
        factor = () if outflow == UNIT_OUTFLOW else ((rate_constant(f"{name}->0"), 1),)
        J[j][j] = J[j][j] - Polynomial.term(1, factor)


@dataclass(frozen=True)
class AnomalousTerm:
    """One determinant term whose definite sign opposes (-1)^n."""

    monomial: Monomial
    coefficient: int
    concentration_part: Monomial

    def render(self) -> str:
        return f"{self.coefficient}*{mono_format(self.monomial)}" if self.monomial else str(self.coefficient)


@dataclass
class SignSummary:
    """Term-by-term sign accounting of a determinant expansion."""

    n: int
    reference_sign: int
    total_terms: int
    coefficient_histogram: Dict[int, int]
    anomalous_terms: List[AnomalousTerm]
    unknown_sign_terms: int

    @property
    def anomalous_count(self) -> int:
        return len(self.anomalous_terms)

    @property
    def certified_one_signed(self) -> bool:
        """True when every term has the reference sign (no anomalous, no unknown)."""
        return not self.anomalous_terms and self.unknown_sign_terms == 0


def sign_census(det: Polynomial, n: int) -> SignSummary:
    """Classify every term of a Jacobian determinant expansion by sign.

    The reference sign is (-1)^n, the degree of the pure-flow system;
    a term is anomalous when its definite pointwise sign is the opposite.
    Terms containing an unknown-sign partial are counted separately,
    never silently resolved.
    """
    reference = -1 if n % 2 else 1
    histogram: Dict[int, int] = {}
    anomalous: List[AnomalousTerm] = []
    unknown = 0
    for m, c in det.terms.items():
        ms = mono_sign(m)
        if ms == 0:
            unknown += 1
            continue
        histogram[c] = histogram.get(c, 0) + 1
        sign = ms * (1 if c > 0 else -1)
        if sign == -reference:
            anomalous.append(AnomalousTerm(m, c, mono_restrict(m, CONCENTRATION)))
    anomalous.sort(key=lambda t: t.monomial)
    return SignSummary(
        n=n,
        reference_sign=reference,
        total_terms=len(det.terms),
        coefficient_histogram=histogram,
        anomalous_terms=anomalous,
        unknown_sign_terms=unknown,
    )


@dataclass
class DominanceCondition:
    """Sufficient parameter inequality absorbing one anomalous term.

    Matched partners carry the reference sign and share the anomalous
    term's concentration monomial, so whenever the inequality holds the
    group's combined coefficient keeps the reference sign on the whole
    positive orthant.  In the sharp form (``quotient``/``bound`` set) any
    one of ``inequality`` and ``alternatives`` suffices on its own.
    Groups with distinct concentration monomials are disjoint, so the
    primary inequalities of one census are jointly sufficient for a
    one-signed determinant.
    """

    anomalous: AnomalousTerm
    covered: bool
    inequality: Optional[str] = None
    quotient: Optional[Monomial] = None
    bound: Optional[Fraction] = None
    alternatives: List[str] = field(default_factory=list)
    lhs_terms: List[Tuple[int, Monomial]] = field(default_factory=list)
    rhs_terms: List[Tuple[int, Monomial]] = field(default_factory=list)

    def all_inequalities(self) -> List[str]:
        return ([self.inequality] if self.inequality else []) + self.alternatives

    def holds_at(self, values) -> bool:
        """Evaluate the inequality at numeric indeterminate values.

        Usable for mass-action censuses, where the cancelled quotients
        contain only rate constants.  Uncovered terms never hold.
        """
        return self.holds_on({x: (v, v) for x, v in values.items()})

    def holds_on(self, intervals) -> bool:
        """Check the inequality over boxes of indeterminate values.

        ``intervals`` maps each indeterminate to (lo, hi) with 0 < lo <=
        hi.  Monomials are monotone in every positive factor, so the left
        side is evaluated at the upper endpoints and the right side at
        the lower ones.  Exact for the sharp form; conservative (never a
        false positive) when a symbol appears on both sides of a group
        inequality.
        """
        if not self.covered:
            return False
        hi = {x: pair[1] for x, pair in intervals.items()}
        lo = {x: pair[0] for x, pair in intervals.items()}
        if self.quotient is not None:
            return _mono_value(self.quotient, hi) <= float(self.bound)
        lhs = sum(c * _mono_value(m, hi) for c, m in self.lhs_terms)
        rhs = sum(c * _mono_value(m, lo) for c, m in self.rhs_terms)
        return lhs <= rhs

    def __str__(self) -> str:
        return self.inequality if self.covered else f"uncovered: {self.anomalous.render()}"


def dominance_conditions(det: Polynomial, census: SignSummary) -> List[DominanceCondition]:
    """Derive one dominance condition per anomalous term of the expansion.

    Terms sharing one concentration monomial form a group; the emitted
    inequality makes the group's combined coefficient non-anomalous.
    When the group holds a single anomalous term and a partner of the
    reference sign divides it with a single-indeterminate quotient, the
    condition takes the sharp form ``k <= bound`` (further such partners
    become alternatives, each sufficient on its own).  Otherwise the
    group's rate factors are compared after cancelling their common
    monomial factor.  Groups are disjoint by construction, so the primary
    inequalities together certify one-signedness of the determinant.
    """
    reference = census.reference_sign
    partners_by_conc: Dict[Monomial, List[Tuple[Monomial, int]]] = {}
    for m, c in det.terms.items():
        ms = mono_sign(m)
        if ms != 0 and ms * (1 if c > 0 else -1) == reference:
            partners_by_conc.setdefault(mono_restrict(m, CONCENTRATION), []).append((m, c))
    anomalous_by_conc: Dict[Monomial, List[AnomalousTerm]] = {}
    for term in census.anomalous_terms:
        anomalous_by_conc.setdefault(term.concentration_part, []).append(term)

    conditions = []
    for term in census.anomalous_terms:
        partners = partners_by_conc.get(term.concentration_part, [])
        co_anomalous = anomalous_by_conc[term.concentration_part]
        if not partners:
            conditions.append(DominanceCondition(term, False))
            continue
        single = sorted(
            (
                (mono_div(term.monomial, m), m, c)
                for m, c in partners
                if mono_divides(m, term.monomial) and len(mono_div(term.monomial, m)) == 1
            ),
            key=lambda qmc: (mono_degree(qmc[0]), qmc[0]),
        )
        if len(co_anomalous) == 1 and single:
            quotient, _, c2 = single[0]
            bound = Fraction(abs(c2), abs(term.coefficient))
            alternatives = [
                _quotient_inequality(q, Fraction(abs(c), abs(term.coefficient))) for q, _, c in single[1:]
            ]
            conditions.append(
                DominanceCondition(term, True, _quotient_inequality(quotient, bound), quotient, bound, alternatives)
            )
        else:
            # Whole-group comparison; with several anomalous terms in the
            # group they all land on the left-hand side.
            involved = [(t.monomial, abs(t.coefficient)) for t in co_anomalous] + partners
            g = involved[0][0]
            for m2, _ in involved[1:]:
                g = mono_gcd(g, m2)
            lhs_terms = [(abs(t.coefficient), mono_div(t.monomial, g)) for t in co_anomalous]
            rhs_terms = [(abs(c2), mono_div(m2, g)) for m2, c2 in sorted(partners)]
            lhs = " + ".join(f"{c}*{mono_format(m)}" for c, m in lhs_terms)
            rhs = " + ".join(f"{c}*{mono_format(m)}" for c, m in rhs_terms)
            conditions.append(
                DominanceCondition(term, True, f"{lhs} <= {rhs}", lhs_terms=lhs_terms, rhs_terms=rhs_terms)
            )
    return conditions


def _quotient_inequality(quotient: Monomial, bound: Fraction) -> str:
    return f"{mono_format(quotient)} <= {_render_fraction(bound)}"


def _mono_value(m: Monomial, values) -> float:
    v = 1.0
    for x, e in m:
        v *= values[x] ** e
    return v


def _render_fraction(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def census_report(net: ReactionNetwork, census: SignSummary, conditions: Sequence[DominanceCondition]) -> dict:
    """JSON-ready census report."""
    return {
        "network_hash": net.network_hash(),
        "n": census.n,
        "reference_sign": census.reference_sign,
        "uniqueness_certified": census.certified_one_signed,
        "total_terms": census.total_terms,
        "histogram": {str(k): v for k, v in sorted(census.coefficient_histogram.items())},
        "anomalous": [
            {
                "term": t.render(),
                "concentration_monomial": mono_format(t.concentration_part),
            }
            for t in census.anomalous_terms
        ],
        "dominance_conditions": [
            {"inequality": c.inequality, "covered": c.covered} for c in conditions
        ],
        "unknown_sign_terms": census.unknown_sign_terms,
    }
