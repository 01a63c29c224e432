"""Independent references the benchmark checks crncount's outputs against.

Nothing here imports crncount: the networks are parsed by a small reader
of their own, vector fields and Jacobians are written out from the
stoichiometry, determinants are taken by exact Fraction elimination, and
the equilibria of example 6.1 come from a closed-form cubic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

# The networks of the paper's examples and Table 1, as reaction lines.
PAPER_NETWORKS: Dict[str, str] = {
    "network-5.1": "2A1 <-> A1+A2\nA1+A2 <-> 2A2\n2A2 <-> 2A1\n",
    "example-6.1": "A+B -> P\nB+C -> Q\nC -> 2A\n",
    "table1-i": "A+B <-> P\nB+C <-> Q\nC <-> 2A\n",
    "table1-ii": "A+B <-> P\nB+C <-> Q\nC+D <-> R\nD <-> 2A\n",
    "table1-iii": "A+B <-> P\nB+C <-> Q\nC+D <-> R\nD+E <-> S\nE <-> 2A\n",
    "table1-iv": "A+B <-> P\nB+C <-> Q\nC <-> A\n",
    "table1-v": "A+B <-> F\nA+C <-> G\nC+D <-> B\nC+E <-> D\n",
    "table1-vi": "A+B <-> 2A\n",
    "table1-vii": "2A+B <-> 3A\n",
    "table1-viii": "A+2B <-> 3A\n",
    "ctf06-4": "S+E <-> ES\nES -> E+P\nI+E <-> EI\nI+ES <-> ESI\nESI <-> EI+S\n",
    "ctf06-6": "S1+E <-> ES1\nS2+E <-> ES2\nS2+ES1 <-> ES1S2\nES1S2 <-> S1+ES2\nES1S2 -> E+P\n",
}

# Pinned values from the paper.
TABLE1_ANOMALOUS = dict(zip(
    ("table1-i", "table1-ii", "table1-iii", "table1-iv", "table1-v", "table1-vi", "table1-vii", "table1-viii"),
    (1, 0, 1, 0, 1, 1, 1, 1),
))
ENZYME_ANOMALOUS = {"ctf06-4": 1, "ctf06-6": 2}
PUBLISHED_MASS_VECTORS = {
    "example-6.1": {"A": 1, "B": 1, "C": 2, "P": 2, "Q": 3},
    "table1-ii": {"A": 1, "B": 1, "C": 1, "D": 2, "P": 2, "Q": 2, "R": 3},
    "table1-v": {"A": 1, "B": 3, "C": 1, "D": 2, "E": 1, "F": 4, "G": 2},
}


def ring_network(pairs: int) -> str:
    """Table-1 ring family: S_i+S_{i+1} <-> X_i, S_p <-> 2S_1 (n = 2p - 1 species)."""
    lines = [f"S{i}+S{i + 1} <-> X{i}" for i in range(1, pairs)] + [f"S{pairs} <-> 2S1"]
    return "\n".join(lines) + "\n"


class Network:
    """Mass-action network read from reaction lines.

    Species are numbered in order of first appearance and reactions are
    labelled ``source->target`` with species in index order, the naming
    crncount's reports use.
    """

    def __init__(self, text: str):
        self.names: List[str] = []
        self.reactions: List[Tuple[str, Dict[int, int], Dict[int, int]]] = []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            arrow = "<->" if "<->" in line else "->"
            lhs, rhs = line.split(arrow)
            source, target = self._complex(lhs), self._complex(rhs)
            self._add(source, target)
            if arrow == "<->":
                self._add(target, source)

    @property
    def n(self) -> int:
        return len(self.names)

    def _complex(self, text: str) -> Dict[int, int]:
        text = text.strip()
        out: Dict[int, int] = {}
        if text == "0":
            return out
        for term in text.split("+"):
            term = term.strip()
            digits = len(term) - len(term.lstrip("0123456789"))
            coeff = int(term[:digits]) if digits else 1
            name = term[digits:]
            if name not in self.names:
                self.names.append(name)
            idx = self.names.index(name)
            out[idx] = out.get(idx, 0) + coeff
        return out

    def _add(self, source: Dict[int, int], target: Dict[int, int]):
        label = f"{self.format(source)}->{self.format(target)}"
        self.reactions.append((label, source, target))

    def format(self, cplx: Dict[int, int]) -> str:
        if not cplx:
            return "0"
        return "+".join(self.names[i] if c == 1 else f"{c}{self.names[i]}" for i, c in sorted(cplx.items()))

    @property
    def labels(self) -> List[str]:
        return [label for label, _, _ in self.reactions]

    def vectors(self) -> List[List[int]]:
        return [[t.get(i, 0) - s.get(i, 0) for i in range(self.n)] for _, s, t in self.reactions]

    def is_conserved(self, m: Sequence) -> bool:
        return all(x > 0 for x in m) and all(sum(a * b for a, b in zip(m, v)) == 0 for v in self.vectors())

    # -- mass action with inflow c_in and outflow diag(lam) ------------------

    def _rates(self, c: np.ndarray, k: Dict[str, float]) -> np.ndarray:
        return np.array([k[label] * np.prod([c[i] ** e for i, e in s.items()]) for label, s, _ in self.reactions])

    def field(self, c, k, inflow, outflow) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        f = np.asarray(inflow, dtype=float) - np.asarray(outflow, dtype=float) * c
        return f + self._rates(c, k) @ np.array(self.vectors(), dtype=float)

    def jacobian(self, c, k, outflow) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        J = -np.diag(np.asarray(outflow, dtype=float))
        for rate, (_, s, _), v in zip(self._rates(c, k), self.reactions, self.vectors()):
            for i, e in s.items():
                J[:, i] += np.array(v) * rate * e / c[i]
        return J

    # -- exact symbolic Jacobians at rational points -------------------------

    def symbol_keys(self, kinetics: str, outflow: str) -> List[tuple]:
        """Keys of every symbol the augmented Jacobian depends on."""
        keys = [("c", i) for i in range(self.n)]
        if kinetics == "mass-action":
            keys += [("k", label) for label in self.labels]
        else:
            keys += [("K", label, i) for label, s, _ in self.reactions for i in sorted(s)]
        if outflow == "symbolic":
            keys += [("k", f"{name}->0") for name in self.names]
        return keys

    def exact_jacobian(self, values: Dict[tuple, Fraction], kinetics: str, outflow: str) -> List[List[Fraction]]:
        """Jacobian of c_in - lam*c + sum_r rate_r * v_r at exact symbol values.

        Mass action: d rate_r / d c_i = k_r * s_ri * c^s / c_i.  General
        monotone kinetics: d rate_r / d c_i is the symbol K[r;i] for every
        source species i.  The outflow diagonal is 1 or the symbol k[X->0].
        """
        n = self.n
        J = [[Fraction(0)] * n for _ in range(n)]
        for (label, s, _), v in zip(self.reactions, self.vectors()):
            for i, e in s.items():
                if kinetics == "mass-action":
                    d = values[("k", label)] * e * values[("c", i)] ** (e - 1)
                    for l, el in s.items():
                        if l != i:
                            d *= values[("c", l)] ** el
                else:
                    d = values[("K", label, i)]
                for j in range(n):
                    if v[j]:
                        J[j][i] += v[j] * d
        for j, name in enumerate(self.names):
            J[j][j] -= 1 if outflow == "unit" else values[("k", f"{name}->0")]
        return J


def exact_determinant(matrix: List[List[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination over the rationals."""
    a = [list(row) for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


# -- example 6.1: A+B -> P (k1), B+C -> Q (k2), C -> 2A (k3), species A,B,P,C,Q


def example61_equilibria(k: Dict[str, float], inflow: Sequence[float], outflow: Sequence[float]) -> List[np.ndarray]:
    """Every positive equilibrium of the flow-augmented example 6.1.

    C = c_in/(lam_C + k3 + k2 B) and A = (b_in - lam_B B - k2 B C)/(k1 B)
    reduce the steady state to a cubic in B; each positive root with A > 0
    gives one equilibrium (P and Q follow linearly).
    """
    k1, k2, k3 = k["A+B->P"], k["B+C->Q"], k["C->2A"]
    a_in, b_in, p_in, c_in, q_in = (float(x) for x in inflow)
    la, lb, lp, lc, lq = (float(x) for x in outflow)
    P = np.polynomial.Polynomial
    B = P([0.0, 1.0])
    D = P([lc + k3, k2])
    cubic = k1 * B * (a_in * D + 2 * k3 * c_in) - (la + k1 * B) * ((b_in - lb * B) * D - k2 * B * c_in)
    out = []
    for root in cubic.roots():
        if abs(root.imag) > 1e-9 * max(1.0, abs(root.real)) or root.real <= 0:
            continue
        b = root.real
        c = c_in / (lc + k3 + k2 * b)
        a = (b_in - lb * b - k2 * b * c) / (k1 * b)
        if a > 0:
            out.append(np.array([a, b, (p_in + k1 * a * b) / lp, c, (q_in + k2 * b * c) / lq]))
    return out


# -- the rational cascade models, written out from the paper's equations


def thron_field(c, p, c0) -> np.ndarray:
    p1, p2, p3, p4, p5, p6 = p
    return np.array([
        p1 * c0 / (p2 + c[2]) - p3 * c[0],
        p3 * c[0] - p4 * c[1],
        p4 * c[1] - p5 * c[2] / (p6 + c[2]),
    ])


def cube_field(c, a, b, d, e, mu, k) -> np.ndarray:
    inputs = (mu / (1.0 + k * c[2]), c[0], c[1])
    return np.array([
        -b[j] * c[j] / (c[j] + a[j]) + d[j] * (1.0 - c[j]) / (e[j] + 1.0 - c[j]) * inputs[j] for j in range(3)
    ])
