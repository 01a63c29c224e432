"""Conserved mass vectors by exact rational computation.

A network is conservative when some strictly positive vector m is
orthogonal to every reaction vector.  Feasibility is decided by a small
exact simplex over Fractions (positivity encoded as m_i >= 1, which is
scale-free on the nullspace cone), so borderline networks are never
mislabelled by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .network import NetworkError, ReactionNetwork


class MassVerdict(str, Enum):
    CONSERVED = "conserved"
    DISSIPATING = "dissipating"
    NEITHER = "neither"


@dataclass(frozen=True)
class MassVector:
    """Strictly positive rational vector orthogonal to all reaction vectors."""

    entries: Tuple[Fraction, ...]

    def __post_init__(self):
        if any(not e > 0 for e in self.entries):
            raise ValueError("mass vector entries must be strictly positive")

    def as_floats(self) -> Tuple[float, ...]:
        return tuple(float(e) for e in self.entries)

    def render(self) -> List[str]:
        return [str(e.numerator) if e.denominator == 1 else f"{e.numerator}/{e.denominator}" for e in self.entries]


def conserved_mass_vector(net: ReactionNetwork) -> Optional[MassVector]:
    """Find some m > 0 with m orthogonal to every reaction vector, or None.

    Positivity is sought as m >= 1 via an exact simplex minimising sum(m);
    the result is scaled to integer entries with gcd 1 when possible.
    """
    vectors = [r.reaction_vector(net.n) for r in net.reactions]
    # m = 1 + x with x >= 0:  sum_j v_j x_j = -sum_j v_j  for each reaction.
    rows = [[Fraction(v) for v in vec] for vec in vectors]
    rhs = [-sum(row) for row in rows]
    objective = [Fraction(1)] * net.n
    solution = _simplex_min(objective, rows, rhs)
    if solution is None:
        return None
    m = [Fraction(1) + x for x in solution]
    return MassVector(tuple(_normalize(m)))


def check_mass_vector(net: ReactionNetwork, m: Sequence) -> MassVerdict:
    """Classify a candidate vector against the network's reactions.

    Conserved: every dot product with a reaction vector is exactly 0 and
    all entries are positive.  Dissipating: all dot products <= 0 with at
    least one < 0 (so m * g(c) <= 0 for any nonnegative-rate kinetics).
    Anything else, including nonpositive entries, is Neither.

    Raises:
        NetworkError: on a length mismatch.
    """
    if len(m) != net.n:
        raise NetworkError(f"candidate has length {len(m)}, expected {net.n}")
    mv = [Fraction(x) for x in m]
    if any(not x > 0 for x in mv):
        return MassVerdict.NEITHER
    dots = [sum(a * b for a, b in zip(mv, r.reaction_vector(net.n))) for r in net.reactions]
    if all(d == 0 for d in dots):
        return MassVerdict.CONSERVED
    if all(d <= 0 for d in dots):
        return MassVerdict.DISSIPATING
    return MassVerdict.NEITHER


def conservation_report(net: ReactionNetwork, candidate: Optional[Sequence] = None) -> dict:
    """JSON-ready conservation report, optionally checking a candidate vector."""
    m = conserved_mass_vector(net)
    report = {
        "conservative": m is not None,
        "mass_vector": m.render() if m is not None else None,
    }
    if candidate is not None:
        report["verdict_for_candidate"] = check_mass_vector(net, candidate).value
    return report


def _normalize(m: List[Fraction]) -> List[Fraction]:
    lcm = 1
    for x in m:
        lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in m]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return [Fraction(v) for v in ints]


def _simplex_min(c: List[Fraction], rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """Minimise c.x subject to rows.x = rhs, x >= 0, exactly over Fractions.

    Two-phase dense tableau simplex with Bland's rule (no cycling).
    Returns an optimal x, or None when infeasible.  Intended for the tiny
    systems that arise here (tens of variables at most).
    """
    n = len(c)
    # Make rhs nonnegative, then add one artificial variable per row.
    A = [list(row) for row in rows]
    b = list(rhs)
    for i in range(len(A)):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    m = len(A)
    tableau = [A[i] + [Fraction(1) if j == i else Fraction(0) for j in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]

    def pivot(row: int, col: int):
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for r in range(len(tableau)):
            if r != row and tableau[r][col] != 0:
                f = tableau[r][col]
                tableau[r] = [a - f * p for a, p in zip(tableau[r], tableau[row])]
        basis[row] = col

    def solve_phase(cost: List[Fraction]) -> Fraction:
        width = len(tableau[0]) - 1
        while True:
            y = [cost[basis[r]] for r in range(len(tableau))]
            entering = None
            for j in range(width):
                if cost[j] - sum(y[r] * tableau[r][j] for r in range(len(tableau))) < 0:
                    entering = j
                    break
            if entering is None:
                return sum(y[r] * tableau[r][width] for r in range(len(tableau)))
            ratios = [
                (tableau[r][width] / tableau[r][entering], basis[r], r)
                for r in range(len(tableau))
                if tableau[r][entering] > 0
            ]
            if not ratios:
                raise ArithmeticError("unbounded linear program")
            _, _, row = min(ratios)
            pivot(row, entering)

    if solve_phase([Fraction(0)] * n + [Fraction(1)] * m) != 0:
        return None
    # Drive leftover artificial variables out of the basis; rows where that
    # is impossible are redundant constraints and can be dropped.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                pivot(r, col)
    keep = [r for r in range(len(tableau)) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    solve_phase(list(c))
    x = [Fraction(0)] * n
    for r in range(len(tableau)):
        x[basis[r]] = tableau[r][n]
    return x
