"""The sign census on tuple monomials: the oracle for the packed census,
and the Jacobians built by polynomial arithmetic: the oracle for the
closed-form builders.

``reference_sign_census`` and ``reference_dominance_conditions`` classify
every term of ``det.terms`` one (indeterminate, exponent) pair at a time,
as ``jacobian.sign_census`` and ``jacobian.dominance_conditions`` did
before they read packed exponent vectors.  Tests require both forms to
give equal summaries and conditions.  ``dp_level_masks`` counts the
states of ``determinant_expand``'s subset DP from the nonzero pattern.
``reference_mass_action_jacobian`` differentiates the polynomial rate, and
``reference_general_jacobian`` sums one polynomial term at a time, as
``augmented_mass_action_jacobian`` and ``build_general_jacobian`` did before
they filled each entry from its closed form; both then subtract the outflow
diagonal by polynomial subtraction (``subtract_outflows``), where the
builders subtract it inside their entries' term maps.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from crncount.dsl import parse_network
from crncount.jacobian import (
    AnomalousTerm,
    DominanceCondition,
    SignSummary,
    SYMBOLIC_OUTFLOW,
    UNIT_OUTFLOW,
    _quotient_inequality,
    build_mass_action_rate,
    outflow_constant,
    symbolic_jacobian,
)
from crncount.network import GeneralMonotone, NetworkError
from crncount.polynomial import (
    CONCENTRATION,
    SIGN_UNKNOWN,
    Monomial,
    Polynomial,
    kinetic_partial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_format,
    mono_gcd,
)


def ring(n: int):
    """Table-1 ring family on n = 2p - 1 species: S_i+S_{i+1} <-> X_i, S_p <-> 2S_1."""
    pairs = (n + 1) // 2
    lines = [f"S{i}+S{i + 1} <-> X{i}" for i in range(1, pairs)] + [f"S{pairs} <-> 2S1"]
    return parse_network("\n".join(lines))


def subtract_outflows(J: List[List[Polynomial]], net, outflow: str) -> None:
    """Subtract each species' outflow constant from the Jacobian diagonal:
    1 with ``outflow="unit"``, ``outflow_constant(X)`` with ``outflow="symbolic"``."""
    if outflow not in (UNIT_OUTFLOW, SYMBOLIC_OUTFLOW):
        raise ValueError(f"unknown outflow mode {outflow!r}")
    for j, name in enumerate(net.names):
        factor = () if outflow == UNIT_OUTFLOW else ((outflow_constant(name), 1),)
        J[j][j] = J[j][j] - Polynomial.term(1, factor)


def reference_mass_action_jacobian(net, outflow: str):
    """The augmented mass-action Jacobian by differentiating the polynomial rate."""
    J = symbolic_jacobian(build_mass_action_rate(net))
    subtract_outflows(J, net, outflow)
    return J


def reference_general_jacobian(net, outflow: str):
    """The general-kinetics Jacobian as a sum of one-term polynomials."""
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
    subtract_outflows(J, net, outflow)
    return J


def dp_level_masks(supports: List[int], order: List[int]) -> List[int]:
    """How many column masks each level of determinant_expand's subset DP holds.

    ``supports`` gives each row's nonzero columns as a bit mask.  Level k
    holds every mask that the first k rows of ``order`` can fill, one
    nonzero column per row, and that contains each column no later row
    touches.  The pattern alone decides this; a minor that cancels to zero
    only removes a mask, so the kernel's levels are never larger.
    """
    full = (1 << len(supports)) - 1
    level = {0}
    sizes = []
    for k, i in enumerate(order):
        later = 0
        for r in order[k + 1 :]:
            later |= supports[r]
        need = full & ~later
        bits = [1 << j for j in range(len(supports)) if supports[i] >> j & 1]
        level = {mask | bit for mask in level for bit in bits if not mask & bit and (mask | bit) & need == need}
        sizes.append(len(level))
    return sizes


def mono_restrict(m: Monomial, kind: int) -> Monomial:
    return tuple((x, e) for x, e in m if x.kind == kind)


def mono_sign(m: Monomial) -> int:
    """Pointwise sign of the monomial on its declared domain, 0 if unknown."""
    sign = 1
    for x, e in m:
        if x.sign == SIGN_UNKNOWN:
            return SIGN_UNKNOWN
        if x.sign < 0 and e % 2:
            sign = -sign
    return sign


def reference_sign_census(det: Polynomial, n: int) -> SignSummary:
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


def reference_partners(det: Polynomial, reference: int) -> Dict[Monomial, List[Tuple[Monomial, int]]]:
    """Every term of the reference sign, grouped by its concentration monomial."""
    partners_by_conc: Dict[Monomial, List[Tuple[Monomial, int]]] = {}
    for m, c in det.terms.items():
        ms = mono_sign(m)
        if ms != 0 and ms * (1 if c > 0 else -1) == reference:
            partners_by_conc.setdefault(mono_restrict(m, CONCENTRATION), []).append((m, c))
    return partners_by_conc


def reference_dominance_conditions(det: Polynomial, census: SignSummary) -> List[DominanceCondition]:
    partners_by_conc = reference_partners(det, census.reference_sign)
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


def random_network_text(rng, general: bool = False) -> str:
    """DSL text of a seeded random network on up to 5 species, 2-6 lines.

    Complexes hold up to two species with coefficients 1-3, or none (``0``);
    about one reaction in four is catalytic (a species on both sides, as in
    ``A+B -> A+C``) and about one line in three is reversible.  With
    ``general``, about half the irreversible lines declare general kinetics
    with drawn dependencies and signs (+, - or ?).  Flow reactions,
    ``y -> y`` and repeated reactions are never drawn.
    """
    names = [f"S{i}" for i in range(rng.randint(2, 5))]

    def draw_complex():
        return {name: rng.randint(1, 3) for name in rng.sample(names, rng.randint(0, 2))}

    def text(cplx):
        return "+".join(f"{c if c > 1 else ''}{name}" for name, c in sorted(cplx.items())) or "0"

    seen, lines, present = set(), [], set()
    for _ in range(rng.randint(2, 6)):
        while True:
            source, target = draw_complex(), draw_complex()
            if source and rng.random() < 0.25:
                shared = rng.choice(sorted(source))
                target[shared] = source[shared]  # a catalyst
            pair = (text(source), text(target))
            one_side = source or target
            flow = not (source and target) and list(one_side.values()) == [1]
            if source != target and not flow and pair not in seen:
                break
        reversible = rng.random() < 0.3 and pair[::-1] not in seen
        seen.update((pair, pair[::-1]) if reversible else (pair,))
        lines.append((pair, reversible))
        present.update(source, target)
    present = sorted(present)
    out = []
    for (source, target), reversible in lines:
        line = f"{source} {'<->' if reversible else '->'} {target}"
        if general and not reversible and rng.random() < 0.5:
            deps = rng.sample(present, rng.randint(1, len(present)))
            line += f" ; kinetics=general deps={','.join(deps)} signs={','.join(rng.choice('+-?') + d for d in deps)}"
        out.append(line)
    return "\n".join(out) + "\n"
