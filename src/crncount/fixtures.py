"""Built-in fixtures: the benchmark networks as DSL text, plus the two
rational-kinetics cascade models with hand-coded analytic Jacobians.

The cascade models have non-polynomial right-hand sides, so they are
provided directly as NumericSystems rather than through the symbolic
pipeline.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from .dsl import parse_network
from .network import ReactionNetwork
from .numeric import BoxDomain, NumericSystem

NETWORK_FIXTURES: Dict[str, str] = {
    # Three reversible pairs on two species.
    "network-5.1": "2A1 <-> A1+A2\nA1+A2 <-> 2A2\n2A2 <-> 2A1\n",
    # Irreversible benchmark with one anomalous determinant term.
    "example-6.1": "A+B -> P\nB+C -> Q\nC -> 2A\n",
    "table1-i": "A+B <-> P\nB+C <-> Q\nC <-> 2A\n",
    "table1-ii": "A+B <-> P\nB+C <-> Q\nC+D <-> R\nD <-> 2A\n",
    "table1-iii": "A+B <-> P\nB+C <-> Q\nC+D <-> R\nD+E <-> S\nE <-> 2A\n",
    "table1-iv": "A+B <-> P\nB+C <-> Q\nC <-> A\n",
    "table1-v": "A+B <-> F\nA+C <-> G\nC+D <-> B\nC+E <-> D\n",
    "table1-vi": "A+B <-> 2A\n",
    "table1-vii": "2A+B <-> 3A\n",
    "table1-viii": "A+2B <-> 3A\n",
    # Enzyme networks with competitive inhibition / two substrates.
    "ctf06-4": "S+E <-> ES\nES -> E+P\nI+E <-> EI\nI+ES <-> ESI\nESI <-> EI+S\n",
    "ctf06-6": "S1+E <-> ES1\nS2+E <-> ES2\nS2+ES1 <-> ES1S2\nES1S2 <-> S1+ES2\nES1S2 -> E+P\n",
}

# The numeric fixtures, each with its parameter names in the order its
# constructor takes them.
NUMERIC_FIXTURES = {
    "mapk-thron": ("p1", "p2", "p3", "p4", "p5", "p6", "c0"),
    "mapk-cube": ("a1", "a2", "a3", "b1", "b2", "b3", "d1", "d2", "d3", "e1", "e2", "e3", "mu", "k"),
}


def fixture_names() -> Tuple[str, ...]:
    return tuple(NETWORK_FIXTURES) + tuple(NUMERIC_FIXTURES)


def fixture_network(name: str) -> ReactionNetwork:
    if name not in NETWORK_FIXTURES:
        raise KeyError(f"unknown network fixture {name!r} (have: {', '.join(fixture_names())})")
    return parse_network(NETWORK_FIXTURES[name])


def _check_parameters(names: Sequence[str], values: Sequence[float]) -> None:
    """Reject a parameter that is not finite and > 0: the one-signed
    determinant of the cascades holds only for strictly positive ones."""
    for name, value in zip(names, values):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"parameter {name} must be finite and > 0, got {value}")


def thron_cascade(p: Sequence[float], c0: float) -> NumericSystem:
    """Three-stage cascade with a saturating input and output stage:

        dc1/dt = p1*c0/(p2 + c3) - p3*c1
        dc2/dt = p3*c1 - p4*c2
        dc3/dt = p4*c2 - p5*c3/(p6 + c3)

    For p = (1,..,1) the unique positive equilibrium is
    (c0/(1+c0), c0/(1+c0), c0).  The Jacobian has the cyclic-feedback
    form whose determinant is -(a1*a2*a3 + b1*b2*b3) < 0 for any strictly
    positive parameters, independent of the concentration.
    """
    p1, p2, p3, p4, p5, p6 = (float(x) for x in p)
    c0 = float(c0)
    _check_parameters(NUMERIC_FIXTURES["mapk-thron"], (p1, p2, p3, p4, p5, p6, c0))

    def f(c: np.ndarray) -> np.ndarray:
        c1, c2, c3 = c[..., 0], c[..., 1], c[..., 2]
        return np.stack([p1 * c0 / (p2 + c3) - p3 * c1, p3 * c1 - p4 * c2, p4 * c2 - p5 * c3 / (p6 + c3)], axis=-1)

    def jac(c: np.ndarray) -> np.ndarray:
        c3 = c[..., 2]
        J = np.zeros(c.shape + (3,))
        J[..., 0, 0], J[..., 0, 2] = -p3, -p1 * c0 / (p2 + c3) ** 2
        J[..., 1, 0], J[..., 1, 1] = p3, -p4
        J[..., 2, 1], J[..., 2, 2] = p4, -p5 * p6 / (p6 + c3) ** 2
        return J

    return NumericSystem(3, f, jac, provenance="mapk-thron")


def thron_box(delta: float = 0.25) -> BoxDomain:
    """Box (0, 1/delta^4)^3 in which ``crn count`` counts the cascade's equilibria."""
    if not 0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    hi = (1.0 / delta) ** 4
    return BoxDomain([0.0, 0.0, 0.0], [hi, hi, hi])


def mapk_cube(
    a: Sequence[float],
    b: Sequence[float],
    d: Sequence[float],
    e: Sequence[float],
    mu: float,
    k: float,
) -> NumericSystem:
    """Activation cascade with inhibitory feedback on the open unit cube:

        dc1/dt = -b1*c1/(c1+a1) + d1*(1-c1)/(e1+(1-c1)) * mu/(1+k*c3)
        dc2/dt = -b2*c2/(c2+a2) + d2*(1-c2)/(e2+(1-c2)) * c1
        dc3/dt = -b3*c3/(c3+a3) + d3*(1-c3)/(e3+(1-c3)) * c2

    c_j is the active fraction of protein j, 1-c_j the inactive one.
    For any strictly positive parameters the Jacobian has the cyclic
    feedback form, so its determinant is strictly negative on the cube.
    """
    a, b, d, e = (np.array([float(x) for x in v]) for v in (a, b, d, e))
    mu = float(mu)
    k = float(k)
    _check_parameters(NUMERIC_FIXTURES["mapk-cube"], [*a, *b, *d, *e, mu, k])

    def drive(c: np.ndarray) -> np.ndarray:
        return d * (1.0 - c) / (e + (1.0 - c))

    def inputs(c: np.ndarray) -> np.ndarray:
        return np.stack([mu / (1.0 + k * c[..., 2]), c[..., 0], c[..., 1]], axis=-1)

    def f(c: np.ndarray) -> np.ndarray:
        return -b * c / (c + a) + drive(c) * inputs(c)

    def jac(c: np.ndarray) -> np.ndarray:
        J = np.zeros(c.shape + (3,))
        J[..., [0, 1, 2], [0, 1, 2]] = -b * a / (c + a) ** 2 - d * e / (e + (1.0 - c)) ** 2 * inputs(c)
        dr = drive(c)
        J[..., 0, 2] = dr[..., 0] * mu * (-k) / (1.0 + k * c[..., 2]) ** 2
        J[..., 1, 0], J[..., 2, 1] = dr[..., 1], dr[..., 2]
        return J

    return NumericSystem(3, f, jac, provenance="mapk-cube")


def unit_cube() -> BoxDomain:
    return BoxDomain([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
