"""The simplex that re-prices every column: the oracle for the conservation layer.

``reference_simplex_min`` and ``reference_normalize`` are
``conservation._simplex_min`` and ``conservation._normalize`` as they were
before the simplex carried its reduced costs in the tableau: each step
recomputes every column's reduced cost from the basis costs, over exact
Fractions.  The integer tableau uses the same pivoting rule, so tests
require the two forms to return the identical x, or both None.

``reference_check_mass_vector`` is ``conservation.check_mass_vector`` as it
was before it scaled the candidate to integers: Fraction dot products with
every reaction vector.  Tests require the same verdict from both.
"""

from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence

from crncount.conservation import MassVerdict
from crncount.network import NetworkError, ReactionNetwork


def reference_check_mass_vector(net: ReactionNetwork, m: Sequence) -> MassVerdict:
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


def reference_normalize(m: List[Fraction]) -> List[Fraction]:
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


def reference_simplex_min(c: List[Fraction], rows: List[List[Fraction]], rhs: List[Fraction]) -> Optional[List[Fraction]]:
    """Minimise c.x subject to rows.x = rhs, x >= 0, exactly over Fractions.

    Two-phase dense tableau simplex with Bland's rule (no cycling).
    Returns an optimal x, or None when infeasible.
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
