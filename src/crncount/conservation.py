"""Conserved mass vectors by exact rational computation.

A network is conservative when some strictly positive vector m is
orthogonal to every reaction vector.  Feasibility is decided by a small
exact simplex on an integer tableau (positivity encoded as m_i >= 1, which
is scale-free on the nullspace cone), so borderline networks are never
mislabelled by floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
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
        return [str(e) for e in self.entries]


def conserved_mass_vector(net: ReactionNetwork) -> Optional[MassVector]:
    """Find some m > 0 with m orthogonal to every reaction vector, or None.

    Positivity is sought as m >= 1 via an exact simplex minimising sum(m);
    the result is scaled to integer entries with gcd 1 when possible.
    """
    rows = [r.reaction_vector(net.n) for r in net.reactions]
    # m = 1 + x with x >= 0:  sum_j v_j x_j = -sum_j v_j  for each reaction.
    solution = _simplex_min(rows, [-sum(row) for row in rows])
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
    # Scaling by the positive lcm of the denominators keeps every sign.
    lcm = math.lcm(*(x.denominator for x in mv))
    ints = [x.numerator * (lcm // x.denominator) for x in mv]
    if any(not x > 0 for x in ints):
        return MassVerdict.NEITHER
    dots = [sum(a * b for a, b in zip(ints, r.reaction_vector(net.n))) for r in net.reactions]
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
    lcm = math.lcm(*(x.denominator for x in m))
    ints = [int(x * lcm) for x in m]
    g = math.gcd(*ints)
    return [Fraction(v // g) for v in ints]


def _simplex_min(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[List[Fraction]]:
    """Minimise sum(x) subject to rows.x = rhs, x >= 0, exactly, for integer rows.

    Two-phase dense tableau simplex with Bland's rule (no cycling), kept
    integer-preserving (Edmonds; Bareiss): the tableau is T/D with integer
    T and D > 0 the last pivot, which is +-det of the current basis, so every
    update divides exactly.  The last tableau row holds D times the reduced
    costs (its last entry is minus D times the objective value) and is
    pivoted with the constraint rows.  Returns an optimal x, or None when
    infeasible.  Intended for the tiny systems that arise here (tens of
    variables at most).
    """
    n, m = len(rows[0]), len(rows)
    # Make rhs nonnegative, then add one artificial variable per row.
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        s = -1 if b < 0 else 1
        tableau.append([s * v for v in row] + [int(j == i) for j in range(m)] + [s * b])
    basis = list(range(n, n + m))
    D = 1

    def price(cost: List[int]):
        # Every basic variable costs 1 in both phases (the artificials, then
        # every x_j), so the reduced costs are cost minus every row; D*B^-1
        # is the integer adjugate of the basis, so D times them is integral.
        tableau.append([c * D - sum(col) for c, col in zip(cost, zip(*tableau))])

    def pivot(row: int, col: int):
        nonlocal D
        prow = tableau[row]
        p = prow[col]
        # The pivot row is already p times its new value; a row with 0 in
        # the pivot column only rescales from D to p.
        for r, other in enumerate(tableau):
            f = other[col]
            if r == row or (f == 0 and p == D):
                continue
            tableau[r] = [(p * a - f * q) // D for a, q in zip(other, prow)] if f else [p * a // D for a in other]
        D = p
        if p < 0:
            D = -p
            for r, other in enumerate(tableau):
                tableau[r] = [-a for a in other]
        basis[row] = col

    def solve_phase():
        while True:
            cost = tableau[-1]
            entering = next((j for j in range(len(cost) - 1) if cost[j] < 0), None)
            if entering is None:
                return
            # zip(basis, tableau) stops before the cost row.  Both objectives
            # are bounded below by 0, so some row qualifies.  D cancels from
            # the ratios, compared exactly by cross-multiplying positive
            # denominators; a ratio tie goes to the smallest basic index.
            best = None
            for r, (b, row) in enumerate(zip(basis, tableau)):
                a = row[entering]
                if a > 0 and (best is None or (row[-1] * best[1], b) < (best[0] * a, best[2])):
                    best = (row[-1], a, b, r)
            pivot(best[3], entering)

    price([0] * n + [1] * m + [0])
    solve_phase()
    if tableau.pop()[-1] != 0:
        return None
    # Drive leftover artificial variables out of the basis; rows where that
    # is impossible are redundant constraints and can be dropped.
    for r in range(m):
        if basis[r] >= n:
            col = next((j for j in range(n) if tableau[r][j] != 0), None)
            if col is not None:
                pivot(r, col)
    keep = [r for r in range(m) if basis[r] < n]
    tableau = [tableau[r][:n] + [tableau[r][-1]] for r in keep]
    basis = [basis[r] for r in keep]
    price([1] * n + [0])
    solve_phase()
    x = [Fraction(0)] * n
    for b, row in zip(basis, tableau):
        x[b] = Fraction(row[-1], D)
    return x
