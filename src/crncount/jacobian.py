"""Symbolic species-formation rates, Jacobians, and determinant sign censuses.

The Jacobian builders fill every entry's term map in closed form, the
outflow diagonal included.  The census classifies every term of the
expanded determinant by its pointwise sign on the open positive orthant.
Terms whose sign equals -(-1)^n oppose the degree of the pure-flow system
and are "anomalous"; for each one we derive a sufficient parameter
inequality (a dominance condition) under which a reference-sign partner
term absorbs it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .network import GeneralMonotone, MassAction, NetworkError, ReactionNetwork
from .polynomial import (
    DEFAULT_MAX_DETERMINANT_DIM,
    DeterminantSizeError,
    Indeterminate,
    Monomial,
    Polynomial,
    concentration,
    determinant_expand,
    differentiate,
    kinetic_partial,
    mono_degree,
    mono_div,
    mono_format,
    mono_gcd,
    mono_mul,
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
    polynomial coefficients stay integer.  With ``symbolic_jacobian`` it
    remains the polynomial-arithmetic route to the Jacobian; the census
    fills it from the closed form (``augmented_mass_action_jacobian``).
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

    Entry (j, i) is filled in closed form: each reaction r depending on
    species i contributes the term v_rj * K[r;i], with v_r = target -
    source, so no polynomial arithmetic runs.
    """
    names = net.names
    partials = []
    for r in net.reactions:
        kin = r.kinetics
        if not isinstance(kin, GeneralMonotone):
            raise NetworkError(f"reaction {r.label} does not have general monotone kinetics")
        if not kin.dependencies and not r.source.is_empty:
            raise NetworkError(f"reaction {r.label} has an empty dependency set")
        partials.append([(i, 1, ((kinetic_partial(r.label, i, names[i], sign), 1),)) for i, sign in kin.partial_signs])
    return _fill_jacobian(net, partials, outflow)


def augmented_mass_action_jacobian(net: ReactionNetwork, outflow: str = UNIT_OUTFLOW) -> List[List[Polynomial]]:
    """Jacobian of the mass-action system augmented with inflows and outflows.

    Entry (j, i) is filled in closed form: reaction r with source y_r and
    vector v_r contributes v_rj * y_ri * k_r * c^(y_r - e_i), so no
    polynomial arithmetic runs.  Every term of an entry has its own rate
    constant, so no two of them merge.  Inflows are constants and never
    reach the Jacobian.  ``symbolic_jacobian`` of ``build_mass_action_rate``
    remains the polynomial-arithmetic route to the same matrix.
    """
    conc = [concentration(i, name) for i, name in enumerate(net.names)]
    partials = []
    for r in net.reactions:
        if not isinstance(r.kinetics, MassAction):
            raise NetworkError(f"reaction {r.label} does not have mass-action kinetics")
        k = ((rate_constant(r.label), 1),)
        source = r.source.coeffs
        partials.append([(i, y, tuple((conc[s], e - (s == i)) for s, e in source if s != i or e > 1) + k) for i, y in source])
    return _fill_jacobian(net, partials, outflow)


def _fill_jacobian(net: ReactionNetwork, partials: List[List[Tuple[int, int, Monomial]]], outflow: str) -> List[List[Polynomial]]:
    """The Jacobian in which partial (i, y, monomial) of ``partials[r]`` puts
    v_rj * y * monomial into entry (j, i), less each species' outflow on the
    diagonal: 1 (unit) or ``outflow_constant(X)`` (symbolic), subtracted in
    the term map, so a reaction term with that monomial merges with it."""
    if outflow not in (UNIT_OUTFLOW, SYMBOLIC_OUTFLOW):
        raise ValueError(f"unknown outflow mode {outflow!r}")
    n = net.n
    J: List[List[Dict[Monomial, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for r, terms in zip(net.reactions, partials):
        changes = [(j, v) for j, v in enumerate(r.reaction_vector(n)) if v]
        for i, y, mono in terms:
            for j, v in changes:
                J[j][i][mono] = v * y
    for j, name in enumerate(net.names):
        entry = J[j][j]
        factor = () if outflow == UNIT_OUTFLOW else ((outflow_constant(name), 1),)
        entry[factor] = entry.get(factor, 0) - 1
    return [[Polynomial(entry) for entry in row] for row in J]


def outflow_constant(name: str) -> Indeterminate:
    """The symbol k[X->0] of species X's outflow constant."""
    return rate_constant(f"{name}->0")


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
    never silently resolved.  The coefficient histogram lists its
    coefficients in ascending order, whatever order the expansion gives
    its terms.  The sign rule is written here only: each packed term is
    tested against the unknown-sign and parity masks.
    """
    reference = -1 if n % 2 else 1
    packed = det.packed
    coefficients = packed.coefficients
    unknown_mask, parity, concentration_mask = packed.unknown_mask, packed.parity_mask, packed.concentration_mask
    known = {m: c for m, c in coefficients.items() if not m & unknown_mask} if unknown_mask else coefficients
    # A term is anomalous when an odd number of c < 0, an odd parity
    # exponent sum and reference = -1 hold.
    flip = reference < 0
    if parity:
        anomalous = [(m, c) for m, c in known.items() if (c < 0) ^ flip ^ ((m & parity).bit_count() & 1)]
    else:
        anomalous = [(m, c) for m, c in known.items() if (c < 0) != flip]
    terms = [AnomalousTerm(packed.decode(m), c, packed.decode(m & concentration_mask)) for m, c in anomalous]
    terms.sort(key=lambda t: t.monomial)
    return SignSummary(
        n=n,
        reference_sign=reference,
        total_terms=len(coefficients),
        coefficient_histogram=dict(sorted(Counter(known.values()).items())),
        anomalous_terms=terms,
        unknown_sign_terms=len(coefficients) - len(known),
    )


@dataclass
class DominanceCondition:
    """Sufficient parameter inequality absorbing one anomalous term.

    Matched partners carry the reference sign and share the anomalous
    term's concentration monomial, so whenever the inequality holds the
    group's combined coefficient keeps the reference sign on the whole
    positive orthant.  In the sharp form (``quotient``/``bound`` set) any
    one of ``inequality`` and ``alternatives`` suffices on its own.
    ``holds_at`` and ``holds_on`` test only the primary inequality: they
    may miss a parameter set that only an alternative covers, but they
    never give a false certificate.
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
    monomial factor.  Each group's inequality is derived once; every
    anomalous term of the group gets its own condition, holding its own
    copies of the term lists.  Groups are disjoint by construction, so
    the primary inequalities together certify one-signedness of the
    determinant.  A group's partners are its known-sign terms that
    ``census`` does not list as anomalous.
    """
    if not census.anomalous_terms:
        return []
    packed = det.packed
    unknown_mask, concentration_mask = packed.unknown_mask, packed.concentration_mask
    codes = [packed.encode(t.monomial) for t in census.anomalous_terms]
    keys = [code & concentration_mask for code in codes]
    anomalous_by_key: Dict[int, List[AnomalousTerm]] = {}
    for key, term in zip(keys, census.anomalous_terms):
        anomalous_by_key.setdefault(key, []).append(term)
    # Partners stay packed: the sharp form decodes only the quotients it
    # reports, and the group form decodes its partners once.
    anomalous = set(codes)
    partners_by_key: Dict[int, List[Tuple[int, int]]] = {key: [] for key in anomalous_by_key}
    group_of = partners_by_key.get
    for m, c in packed.coefficients.items():
        partners = group_of(m & concentration_mask)
        if partners is not None and not m & unknown_mask and m not in anomalous:
            partners.append((m, c))
    single_quotient, decode = packed.single_quotient, packed.decode

    conditions = []
    groups: Dict[int, tuple] = {}  # key -> _group_inequality of the group, derived once
    for code, key, term in zip(codes, keys, census.anomalous_terms):
        partners = partners_by_key[key]
        if not partners:
            conditions.append(DominanceCondition(term, False))
            continue
        co_anomalous = anomalous_by_key[key]
        if len(co_anomalous) == 1:
            single = sorted(
                ((decode(q), c) for p, c in partners if (q := single_quotient(code, p))),
                key=lambda qc: (mono_degree(qc[0]), qc[0]),
            )
            if single:
                quotient, c2 = single[0]
                bound = Fraction(abs(c2), abs(term.coefficient))
                alternatives = [
                    _quotient_inequality(q, Fraction(abs(c), abs(term.coefficient))) for q, c in single[1:]
                ]
                conditions.append(
                    DominanceCondition(term, True, _quotient_inequality(quotient, bound), quotient, bound, alternatives)
                )
                continue
        if key not in groups:
            groups[key] = _group_inequality(co_anomalous, [(decode(m), c) for m, c in partners])
        inequality, lhs_terms, rhs_terms = groups[key]
        conditions.append(
            DominanceCondition(term, True, inequality, lhs_terms=list(lhs_terms), rhs_terms=list(rhs_terms))
        )
    return conditions


def _group_inequality(
    co_anomalous: List[AnomalousTerm], partners: List[Tuple[Monomial, int]]
) -> Tuple[str, List[Tuple[int, Monomial]], List[Tuple[int, Monomial]]]:
    """Whole-group comparison (inequality, lhs_terms, rhs_terms): every
    anomalous term of the group on the left, every partner on the right,
    each divided by the gcd of all of them."""
    involved = [t.monomial for t in co_anomalous] + [m for m, _ in partners]
    g = involved[0]
    for m in involved[1:]:
        if not g:
            break
        g = mono_gcd(g, m)
    lhs_terms = [(abs(t.coefficient), mono_div(t.monomial, g) if g else t.monomial) for t in co_anomalous]
    rhs_terms = [(abs(c), mono_div(m, g) if g else m) for m, c in sorted(partners)]
    lhs = " + ".join(f"{c}*{mono_format(m)}" for c, m in lhs_terms)
    rhs = " + ".join(f"{c}*{mono_format(m)}" for c, m in rhs_terms)
    return f"{lhs} <= {rhs}", lhs_terms, rhs_terms


def _quotient_inequality(quotient: Monomial, bound: Fraction) -> str:
    return f"{mono_format(quotient)} <= {bound}"


def _mono_value(m: Monomial, values) -> float:
    v = 1.0
    for x, e in m:
        v *= values[x] ** e
    return v


def census_report(net: ReactionNetwork, census: SignSummary, conditions: Sequence[DominanceCondition]) -> dict:
    """JSON-ready census report."""
    return {
        "network_hash": net.network_hash(),
        "n": census.n,
        "reference_sign": census.reference_sign,
        "uniqueness_certified": census.certified_one_signed,
        "total_terms": census.total_terms,
        "histogram": {str(k): v for k, v in census.coefficient_histogram.items()},
        "anomalous": [
            {
                "term": t.render(),
                "concentration_monomial": mono_format(t.concentration_part),
            }
            for t in census.anomalous_terms
        ],
        "dominance_conditions": [
            {"inequality": c.inequality, "covered": c.covered, "alternatives": c.alternatives}
            for c in conditions
        ],
        "unknown_sign_terms": census.unknown_sign_terms,
    }


def census_of(net: ReactionNetwork, J, max_dim: int = DEFAULT_MAX_DETERMINANT_DIM) -> Tuple[SignSummary, list, dict]:
    """Expand det J and census its signs: (census, dominance conditions, JSON
    report).  Raises ``DeterminantSizeError`` when J is larger than ``max_dim``."""
    det = determinant_expand(J, max_dim=max_dim)
    census = sign_census(det, net.n)
    conditions = dominance_conditions(det, census)
    return census, conditions, census_report(net, census, conditions)


def certify(
    net: ReactionNetwork, rates=None, flows=None, max_dim: int = DEFAULT_MAX_DETERMINANT_DIM
) -> Tuple[Optional[dict], bool]:
    """(census report, verdict): is det J of the mass-action network one-signed?

    Without rates and flows: for every rate and outflow, by the symbolic-outflow
    census.  With them (``rates`` binds the rate constants no ``k=`` fixes, as
    ``ReactionNetwork.rate_constants`` resolves them, raising its NetworkError
    on a missing or invalid one): at those values, by the unit census when
    every outflow is 1 (it folds terms whose outflow monomials differ), else
    the symbolic one; where no term has unknown sign, dominance conditions
    that hold at the values also certify, recorded as
    ``conditions_hold_at_parameters``.  (None, False) over ``max_dim``.
    Known limit: ``crn count`` follows the rates lambda*k, 0 < lambda <= 1, but
    the conditions are tested at k only; a group condition whose sides differ
    in degree may fail on that path (a sharp ``k <= bound`` cannot).
    """
    if (rates is None) != (flows is None):
        raise ValueError("certify takes rates and flows together")
    ks = None if rates is None else net.rate_constants(rates)
    outflow = UNIT_OUTFLOW if rates is not None and all(lam == 1.0 for lam in flows.outflow) else SYMBOLIC_OUTFLOW
    try:
        census, conditions, report = census_of(net, augmented_mass_action_jacobian(net, outflow=outflow), max_dim)
    except DeterminantSizeError:
        return None, False
    certified = census.certified_one_signed
    if rates is not None and not certified and conditions and census.unknown_sign_terms == 0:
        values = {rate_constant(r.label): k for r, k in zip(net.reactions, ks)}
        values.update({outflow_constant(name): lam for name, lam in zip(net.names, flows.outflow)})
        certified = all(c.holds_at(values) for c in conditions)
        report["conditions_hold_at_parameters"] = certified
    return report, certified
