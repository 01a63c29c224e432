"""Numeric equilibrium finding: multistart Newton, homotopy continuation,
degree estimation, bounded domains, and sampled boundary audits.

Network-derived systems are mass-action, hence polynomial; general
monotone kinetics enter the sign census only.  A network is compiled once
into a ``MassActionField``, whose rates are products of gathered factors
(c_A*c_A for a source 2A).  Every system has one evaluation,
``NumericSystem.evaluate``: it gives f and, for the rows that need it, J
from the same rates, so the Newton kernel evaluates each line-search trial
once and the homotopy each corrector iterate once.

The audits check by sampling that f has no zeros on a domain boundary.
They serve custom systems.  ``crn count`` samples nothing: it states a
proof, from the network's structure or for each cascade, and the audits
are that proof's test oracle.

All searches are deterministic given their seed: start points come from a
scrambled Halton sequence (``_halton``, the same points as scipy's
``qmc.Halton(d, scramble=True, seed=seed)``), runs are merged in
lexicographic order, and no wall-clock or scheduling state enters any
report.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conservation import MassVector, conserved_mass_vector
from .network import FlowAugmentation, MassAction, NetworkError, ReactionNetwork


class PathTrackingError(RuntimeError):
    """Homotopy path tracking failed; carries the last good lambda."""

    def __init__(self, message: str, last_lambda: float):
        super().__init__(f"{message} (last good lambda = {last_lambda:.6g})")
        self.last_lambda = last_lambda


class UniqueEquilibriumError(RuntimeError):
    """A certified one-signed system did not yield exactly one equilibrium."""


@dataclass
class NumericSystem:
    """Evaluatable dynamical system on the open positive orthant.

    ``f`` is the full right-hand side and ``jac`` its Jacobian (valid on
    the open orthant).  Both evaluate a whole stack of points at once:
    ``f`` maps an array of shape (..., n) to (..., n) and ``jac`` maps it
    to (..., n, n), each point on its own, so a single point (n,) gives
    (n,) and (n, n).  Systems built from flow-augmented networks also
    carry the decomposition f(c) = c_in - outflow*c + g(c), with ``g``
    under the same contract, which the homotopy and ``boundary_audit``
    need and check for on entry; standalone fixtures may leave the flow
    fields as None, and then ``f_lambda``/``evaluate_lambda`` must not be
    called.  ``g_magnitude``, where given, maps c to the term-wise
    magnitudes of g, |V|^T (k * c^Y) for a network, and makes the homotopy
    corrector's tolerance scale-aware.  Evaluators must be pure.

    ``evaluate(c)`` is the one evaluation the Newton kernels call.  It
    returns (f(c), jacobian), where ``jacobian(rows)`` is jac(c[rows])
    (all of c by default), taken from the same evaluation; so a kernel
    forms J only for the rows that need it, such as the trial points a
    line search accepts.  With ``terms=True`` it also returns g(c) and
    g_magnitude(c) (None without ``g_magnitude``).  A network system's
    ``evaluator`` is its compiled ``MassActionField``, which computes the
    rates once for all of them; without one, the evaluation is built from
    ``f``, ``jac``, ``g`` and ``g_magnitude``.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    c_in: Optional[np.ndarray] = None
    outflow: Optional[np.ndarray] = None
    provenance: str = "custom"
    g_magnitude: Optional[Callable[[np.ndarray], np.ndarray]] = None
    evaluator: Optional[Callable[..., tuple]] = None

    def evaluate(self, c: np.ndarray, terms: bool = False) -> tuple:
        """(f(c), jacobian), and with ``terms`` also (g(c), g_magnitude(c)),
        from one evaluation at the points c."""
        if self.evaluator is not None:
            return self.evaluator(c, terms)

        def jacobian(rows=slice(None)):
            # A constant Jacobian given as one (n, n) matrix serves a whole stack.
            J, shape = self.jac(c[rows]), np.shape(c[rows]) + (self.n,)
            return J if np.shape(J) == shape else np.broadcast_to(J, shape).copy()

        out = self.f(c), jacobian
        if not terms:
            return out
        return out + (self.g(c), None if self.g_magnitude is None else self.g_magnitude(c))

    def f_lambda(self, c: np.ndarray, lam: float) -> np.ndarray:
        """Homotopy family c_in - outflow*c + lam * g(c)."""
        return self.c_in - self.outflow * c + lam * self.g(c)

    def evaluate_lambda(self, c: np.ndarray, lam: float) -> tuple:
        """f_lambda, its Jacobian J_lambda = lam*(J + diag(outflow)) -
        diag(outflow) and g at c, and the term-wise magnitudes of f_lambda,
        c_in + outflow*c + lam*g_magnitude(c) (None without
        ``g_magnitude``), all from one ``evaluate``."""
        _, jacobian, g, g_mag = self.evaluate(c, terms=True)
        J, D = jacobian(), self._outflow_diag
        magnitudes = None if g_mag is None else self.c_in + self.outflow * c + lam * g_mag
        return self.c_in - self.outflow * c + lam * g, lam * (J + D) - D, g, magnitudes

    @cached_property
    def _outflow_diag(self) -> np.ndarray:
        return np.diag(self.outflow)

    def _require_flows(self):
        if self.g is None or self.c_in is None or self.outflow is None:
            raise ValueError(f"system {self.provenance!r} lacks inflow/outflow structure")


def flow_system(
    flows: FlowAugmentation, g=None, jac_g=None, provenance: str = "flow-only", g_magnitude=None
) -> NumericSystem:
    """The flow-augmented system f(c) = c_in - outflow*c + g(c).

    ``g``, its Jacobian ``jac_g`` and its term-wise magnitudes
    ``g_magnitude`` are the reaction terms, under the evaluator contract of
    NumericSystem; omitted, all three are 0 and f is the pure-flow system
    with equilibrium c_in/outflow.
    """
    c_in = np.array(flows.inflow)
    outflow = np.array(flows.outflow)
    outflow_diag = np.diag(outflow)
    n = len(c_in)
    if g is None:
        g = g_magnitude = lambda c: np.zeros(np.shape(c))
        jac_g = lambda c: np.zeros(np.shape(c) + (n,))

    def f(c: np.ndarray) -> np.ndarray:
        return c_in - outflow * c + g(c)

    def jac(c: np.ndarray) -> np.ndarray:
        return jac_g(c) - outflow_diag

    return NumericSystem(n, f, jac, g=g, c_in=c_in, outflow=outflow, provenance=provenance, g_magnitude=g_magnitude)


class MassActionField:
    """A flow-augmented mass-action network bound to numbers, compiled once
    for evaluation on stacks of points (..., n).

    The record holds the rate constants ``k`` (R,), the source factor
    indices ``factors`` (R, d), the reaction vectors ``V`` (R, n) and
    ``abs_V`` = |V|, ``c_in`` and ``outflow``.  Row r of ``factors`` lists
    the species of reaction r's source, each as often as its coefficient
    and in species order, padded with n, the index of a constant 1; so a
    rate k_r * prod(c^Y_r) is k_r times a product of d gathered factors
    (c_A*c_A for a source 2A), not a power of every species.

    A call computes the rates once and returns f = c_in - outflow*c + g,
    with g = rates @ V, and the Jacobian J = V^T (rate * Y / c) -
    diag(outflow) of any rows, from those rates (the ``evaluate`` contract
    of NumericSystem); with ``terms=True`` it also returns g and its
    term-wise magnitudes rates @ |V|.
    """

    def __init__(self, k: Sequence[float], sources: Sequence[Sequence[int]], vectors, flows: FlowAugmentation):
        self.k = np.array(k, dtype=float)
        self.Y = np.array(sources, dtype=float)
        self.V = np.array(vectors, dtype=float)
        self.abs_V = np.abs(self.V)
        n = self.Y.shape[1]
        rows = [[j for j, e in enumerate(y) for _ in range(e)] for y in sources]
        order = max(1, max(map(len, rows)))
        self.factors = np.array([row + [n] * (order - len(row)) for row in rows])
        self.c_in = np.array(flows.inflow, dtype=float)
        self.outflow = np.array(flows.outflow, dtype=float)
        self._outflow_diag = np.diag(self.outflow)

    def rates(self, c: np.ndarray) -> np.ndarray:
        """k * prod(c^Y) per reaction, shape (..., R)."""
        padded = np.concatenate([c, np.ones(np.shape(c)[:-1] + (1,))], axis=-1)
        product = padded[..., self.factors[:, 0]]
        for column in self.factors.T[1:]:
            product = product * padded[..., column]
        return self.k * product

    def g(self, c: np.ndarray) -> np.ndarray:
        return self.rates(c) @ self.V

    def g_magnitude(self, c: np.ndarray) -> np.ndarray:
        return self.rates(c) @ self.abs_V

    def __call__(self, c: np.ndarray, terms: bool = False) -> tuple:
        rates = self.rates(c)
        g = rates @ self.V

        def jacobian(rows=slice(None)):
            return self.V.T @ (rates[rows][..., :, None] * self.Y / c[rows][..., None, :]) - self._outflow_diag

        f = self.c_in - self.outflow * c + g
        return (f, jacobian, g, rates @ self.abs_V) if terms else (f, jacobian)


def numeric_system_from_network(
    net: ReactionNetwork,
    rate_constants: Optional[Dict[str, float]],
    flows: FlowAugmentation,
) -> NumericSystem:
    """Bind a mass-action network to numbers and augment it with ``flows``.

    Every reaction needs a numeric rate constant, either on the reaction
    itself or in ``rate_constants`` keyed by reaction label.  The network
    is compiled once into a ``MassActionField``, the system's evaluator,
    from which its f, jac, the polynomial reaction terms g(c) =
    (k * prod(c**Y)) @ V, Y the source and V the reaction vectors, and
    their magnitudes (k * prod(c**Y)) @ |V| are all taken.

    Raises:
        NetworkError: on a reaction without mass-action kinetics, or a
            missing rate constant or one that is not finite and > 0.
    """
    rate_constants = rate_constants or {}
    n = net.n
    ks, sources, vectors = [], [], []
    for r in net.reactions:
        if not isinstance(r.kinetics, MassAction):
            raise NetworkError(f"reaction {r.label} does not have mass-action kinetics")
        k = r.kinetics.value if r.kinetics.value is not None else rate_constants.get(r.label)
        if k is None:
            raise NetworkError(f"missing parameter binding for rate constant of {r.label}")
        if not (math.isfinite(k) and k > 0):
            raise NetworkError(f"rate constant of {r.label} must be finite and > 0, got {k}")
        ks.append(float(k))
        sources.append(r.source.as_vector(n))
        vectors.append(r.reaction_vector(n))
    if len(flows.inflow) != n:
        raise NetworkError(f"flow vectors have length {len(flows.inflow)}, expected {n}")
    field = MassActionField(ks, sources, vectors, flows)
    return NumericSystem(
        n, lambda c: field(c)[0], lambda c: field(c)[1](), g=field.g, c_in=field.c_in, outflow=field.outflow,
        provenance="network", g_magnitude=field.g_magnitude, evaluator=field,
    )


# ---------------------------------------------------------------------------
# Bounded domains


class MassDomain:
    """Open bounded region {c > 0 : m . (outflow * c) < M}."""

    def __init__(self, m: Sequence[float], outflow: Sequence[float], bound: float):
        self.m = np.array([float(x) for x in m])
        self.outflow = np.array([float(x) for x in outflow])
        self.bound = float(bound)
        if any(self.m <= 0) or any(self.outflow <= 0) or self.bound <= 0:
            raise ValueError("domain needs positive mass vector, outflows, and bound")
        self.weights = self.m * self.outflow

    @property
    def n(self) -> int:
        return len(self.m)

    def contains(self, c: np.ndarray, closed: bool = False, tol: float = 1e-12):
        """Membership of each point of a (..., n) stack."""
        c = np.asarray(c)
        slack = tol * (1.0 + self.bound)
        if closed:
            return np.all(c >= -slack, axis=-1) & (c @ self.weights <= self.bound + slack)
        return np.all(c > 0, axis=-1) & (c @ self.weights < self.bound)

    def step_fraction(self, x: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Step fraction alpha <= 1, one per row of x, that keeps x + alpha*step
        in the open domain: 0.95 of the way to the nearest coordinate plane
        or outer plane m.(outflow*c) = M that the step would cross."""
        outer = _crossing(self.bound - x @ self.weights, step @ self.weights)
        return _fraction(np.minimum(_crossing(x, -step).min(axis=-1), outer))

    def sample_interior(self, count: int, seed: int) -> np.ndarray:
        X = _simplex_points(self.n, count, seed, on_face=False)
        return X * (self.bound / self.weights)

    def sample_side(self, species: int, count: int, seed: int) -> np.ndarray:
        pts = self.sample_interior(count, seed)
        pts[:, species] = 0.0
        return pts

    def sample_outer(self, count: int, seed: int) -> np.ndarray:
        X = _simplex_points(self.n, count, seed, on_face=True)
        pts = X * (self.bound / self.weights)
        scale = self.bound / (pts @ self.weights)
        return pts * scale[:, None]


class BoxDomain:
    """Open axis-aligned box, e.g. the unit cube of the cascade models."""

    def __init__(self, lo: Sequence[float], hi: Sequence[float]):
        self.lo = np.array([float(x) for x in lo])
        self.hi = np.array([float(x) for x in hi])
        if any(self.lo >= self.hi):
            raise ValueError("box needs lo < hi in every coordinate")

    @property
    def n(self) -> int:
        return len(self.lo)

    def contains(self, c: np.ndarray, closed: bool = False, tol: float = 1e-12):
        """Membership of each point of a (..., n) stack."""
        c = np.asarray(c)
        slack = tol * (1.0 + np.max(np.abs(self.hi)))
        if closed:
            return np.all((c >= self.lo - slack) & (c <= self.hi + slack), axis=-1)
        return np.all((c > self.lo) & (c < self.hi), axis=-1)

    def step_fraction(self, x: np.ndarray, step: np.ndarray) -> np.ndarray:
        """Step fraction alpha <= 1, one per row of x, that keeps x + alpha*step
        in the open box: 0.95 of the way to the nearest face the step would
        cross."""
        return _fraction(np.minimum(_crossing(x - self.lo, -step), _crossing(self.hi - x, step)).min(axis=-1))

    def sample_interior(self, count: int, seed: int) -> np.ndarray:
        u = _halton(self.n, count, seed)
        u = np.clip(u, 1e-9, 1 - 1e-9)
        return self.lo + u * (self.hi - self.lo)

    def sample_face(self, species: int, upper: bool, count: int, seed: int) -> np.ndarray:
        pts = self.sample_interior(count, seed)
        pts[:, species] = self.hi[species] if upper else self.lo[species]
        return pts


def _simplex_points(n: int, count: int, seed: int, on_face: bool) -> np.ndarray:
    """Low-discrepancy points in {x > 0, sum x < 1} (or on sum x = 1)."""
    dim = n if on_face else n + 1
    u = _halton(dim, count, seed)
    e = -np.log1p(-np.clip(u, 1e-12, 1 - 1e-12))
    x = e[:, :n] / e.sum(axis=1, keepdims=True)
    return x


def _halton(d: int, count: int, seed: int) -> np.ndarray:
    """The first ``count`` points of a scrambled d-dimensional Halton sequence.

    Owen's randomized Halton (arXiv:1706.02808): coordinate i is the van der
    Corput radical inverse in the i-th prime b, with digit j of the point
    index passed through its own random permutation of range(b).  The
    permutations, the digit count ceil(54/log2 b) - 1, the digit scales
    b^-(j+1) taken by repeated division, the digit-order summation and the
    column-major (count, d) result all follow scipy's
    ``qmc.Halton(d, scramble=True, seed=seed).random(count)``, whose points
    this returns bit for bit.
    """
    rng = np.random.default_rng(seed)
    points = np.zeros((d, count))
    for row, base in zip(points, _primes(d)):
        digits = math.ceil(54 / math.log2(base)) - 1
        perms = rng.permuted(np.tile(np.arange(base), (digits, 1)), axis=1)
        scales = np.divide.accumulate(np.r_[1.0, np.full(digits, float(base))])[1:]
        terms = perms * scales[:, None]
        index = np.arange(count)
        j = 0
        while index.any():
            index, digit = np.divmod(index, base)
            row += terms[j, digit]
            j += 1
        # Every higher digit is 0: add its terms in digit order, each point
        # on its own, as one sequential accumulate down the stacked terms.
        tail = np.broadcast_to(terms[j:, :1], (digits - j, count))
        row[:] = np.add.accumulate(np.vstack([row, tail]), axis=0)[-1]
    return points.T


def _primes(count: int) -> List[int]:
    primes: List[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def make_domain(m, flows: FlowAugmentation, bound: float) -> MassDomain:
    """Bounded domain for the augmented system; requires a finite bound > m . c_in.

    Raises:
        ValueError: reporting the violated inequality when the bound is
            not strictly larger than m . c_in, or when it is not finite.
    """
    entries = m.as_floats() if isinstance(m, MassVector) else [float(x) for x in m]
    min_bound = float(np.dot(entries, flows.inflow))
    if not bound > min_bound:
        raise ValueError(f"bound M = {bound} must satisfy M > m . c_in = {min_bound}")
    if not math.isfinite(bound):
        raise ValueError(f"bound M = {bound} must be finite")
    return MassDomain(entries, flows.outflow, bound)


def default_domain(m, flows: FlowAugmentation) -> MassDomain:
    """Domain with M = 10 * (m . c_in)."""
    entries = m.as_floats() if isinstance(m, MassVector) else [float(x) for x in m]
    return make_domain(m, flows, 10.0 * float(np.dot(entries, flows.inflow)))


# ---------------------------------------------------------------------------
# Root finding


@dataclass
class NewtonResult:
    point: Optional[np.ndarray]
    residual: float
    converged: bool
    status: str
    iterations: int


NEWTON_MAX_ITER = 100

# The statuses of a Newton run, indexed by the integer codes ``_newton`` keeps.
NEWTON_STATUSES = ("converged", "non-finite", "singular-jacobian", "no-descent", "diverged", "max-iterations")
_CONVERGED, _NON_FINITE, _SINGULAR, _NO_DESCENT, _DIVERGED, _MAX_ITERATIONS = range(len(NEWTON_STATUSES))


def newton_solve(sys: NumericSystem, x0: Sequence[float], tol: float = 1e-10) -> NewtonResult:
    """Damped Newton iteration from the strictly positive start point x0:
    the lockstep kernel ``_newton`` on one row, confined to the open
    positive orthant, with its statuses."""
    points, residuals, statuses, iterations = _newton(sys, [x0], tol)
    converged = statuses[0] == "converged"
    return NewtonResult(points[0] if converged else None, float(residuals[0]), converged, statuses[0], int(iterations[0]))


def _newton(sys: NumericSystem, X, tol: float, domain=None) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton iteration confined to an open domain, run in lockstep
    from every row of the (P, n) start array ``X``.

    The domain is ``domain`` (a MassDomain or BoxDomain, whose
    ``step_fraction`` shortens each step), or the open positive orthant
    when it is None.  Each row steps as it would alone: its step is
    shortened to keep it strictly inside the domain, then halved until its
    residual norm decreases, in one halving loop shared by the rows still
    searching, so every iterate, whatever its final status, lies in the
    open domain.

    ``sys.evaluate`` runs once on the starts and once on each halving
    loop's trial points; J is formed from a trial's evaluation for the
    rows that accept it, and is the one their next step solves with.  The
    rows still iterating are kept compact, and leave with an integer
    status code.

    Returns (points, residuals, statuses, iterations), one entry per row;
    a point is a root only where its status is ``converged``.  The other
    statuses are ``non-finite`` (f overflows at the start),
    ``singular-jacobian``, ``no-descent``, ``diverged`` (a coordinate
    passes 1e14) and ``max-iterations``.

    Raises:
        ValueError: when a start point is not strictly positive.
    """
    X = np.array(X, dtype=float)
    if np.any(X <= 0):
        raise ValueError("start point must be strictly positive")
    step_fraction = _orthant_step if domain is None else domain.step_fraction
    residuals = np.zeros(len(X))
    codes = np.zeros(len(X), dtype=int)
    iterations = np.zeros(len(X), dtype=int)

    with np.errstate(over="ignore", invalid="ignore"):
        F, jacobian = sys.evaluate(X)
        if F.shape != X.shape:
            raise ValueError(f"f of system {sys.provenance!r} maps (P, n) = {X.shape} to {F.shape}, not to (P, n)")
        J = jacobian()
        r = _row_norms(F)
        rows, x = np.arange(len(X)), X.copy()  # the live rows: indices, iterates, f, J and r

        def retire(mask, code, it):
            """End the live rows in ``mask``; returns the mask of the rest."""
            nonlocal rows, x, F, J, r
            ended = rows[mask]
            X[ended], residuals[ended], codes[ended], iterations[ended] = x[mask], r[mask], code, it
            keep = ~mask
            rows, x, F, J, r = rows[keep], x[keep], F[keep], J[keep], r[keep]
            return keep

        finite = np.isfinite(r)
        if np.count_nonzero(finite) < len(x):
            retire(~finite, _NON_FINITE, 0)
        for it in range(1, NEWTON_MAX_ITER + 1):
            done = r <= tol
            if np.count_nonzero(done):
                retire(done, _CONVERGED, it - 1)
            if not rows.size:
                break
            step = _solve_rows(J, -F)
            finite = np.isfinite(step)
            if np.count_nonzero(finite) < finite.size:
                step = step[retire(~finite.all(axis=-1), _SINGULAR, it - 1)]
                if not rows.size:
                    break
            alpha = step_fraction(x, step)
            accepted = np.zeros(len(x), dtype=bool)
            # The rows still searching, with their iterates, steps, step
            # fractions and residual norms gathered once per iteration.
            searching = alpha > 1e-13
            if np.count_nonzero(searching) == len(x):
                pending, x_p, step_p, r_p = np.arange(len(x)), x, step, r
            else:
                pending = np.flatnonzero(searching)
                x_p, step_p, alpha, r_p = x[pending], step[pending], alpha[pending], r[pending]
            while pending.size:
                x_try = x_p + alpha[:, None] * step_p
                f_try, jacobian = sys.evaluate(x_try)
                r_try = _row_norms(f_try)
                better = r_try < r_p  # r is finite, so a NaN or inf r_try fails
                taken = np.count_nonzero(better)
                if taken == len(x):  # every row takes this trial
                    x, F, J, r = x_try, f_try, jacobian(), r_try
                    accepted[:] = True
                    break
                alpha *= 0.5
                keep = alpha > 1e-13
                if taken:
                    take = pending[better]
                    x[take], F[take], J[take], r[take] = x_try[better], f_try[better], jacobian(better), r_try[better]
                    accepted[take] = True
                    keep &= ~better
                if np.count_nonzero(keep) < keep.size:
                    pending, x_p, step_p, alpha, r_p = pending[keep], x_p[keep], step_p[keep], alpha[keep], r_p[keep]
            if np.count_nonzero(accepted) < len(x):
                retire(~accepted, _NO_DESCENT, it)
            far = np.abs(x) > 1e14
            if np.count_nonzero(far):
                retire(far.any(axis=-1), _DIVERGED, it)
        X[rows], residuals[rows], iterations[rows] = x, r, NEWTON_MAX_ITER
        codes[rows] = np.where(r <= tol, _CONVERGED, _MAX_ITERATIONS)
    return X, residuals, np.array(NEWTON_STATUSES, dtype=object)[codes], iterations


def _row_norms(F: np.ndarray) -> np.ndarray:
    """np.linalg.norm(F, axis=-1) of a real stack, the same sums without
    the argument handling: the line search takes one per trial."""
    return np.sqrt(np.add.reduce(F * F, axis=-1))


def _solve_rows(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solution x[i] of J[i] x = rhs[i] for each row, NaN where J[i] is singular.

    A stacked solve raises when any of its matrices is singular; only then
    are the rows solved one at a time.
    """
    try:
        return np.linalg.solve(J, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(rhs.shape, np.nan)
        for i, (A, b) in enumerate(zip(J, rhs)):
            try:
                out[i] = np.linalg.solve(A, b)
            except np.linalg.LinAlgError:
                pass
        return out


def _orthant_step(x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Step fraction alpha <= 1, one per row of x, that keeps x + alpha*step
    strictly positive: 0.95 of the way to the nearest coordinate plane the
    step would cross."""
    return _fraction(_crossing(x, -step).min(axis=-1))


def _crossing(gap: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Step length gap/rate at which a face is reached, inf where the step
    moves along it or away from it (rate <= 0), without dividing there."""
    return np.divide(gap, rate, out=np.full(np.shape(gap), np.inf), where=rate > 0)


def _fraction(distance: np.ndarray) -> np.ndarray:
    """0.95 of the step length to the nearest face, capped at a full step."""
    return np.minimum(1.0, 0.95 * distance)


@dataclass
class Equilibrium:
    """A root: its point, its residual ||f|| and the sign of det J there."""

    point: Tuple[float, ...]
    residual: float
    det_sign: int

    @classmethod
    def at(cls, sys: NumericSystem, point, residual: float) -> "Equilibrium":
        """The root ``point`` of ``sys``, signed by slogdet(sys.jac(point))."""
        c = np.array(point, dtype=float)
        return cls(tuple(c.tolist()), float(residual), int(np.linalg.slogdet(sys.jac(c))[0]))

    def to_dict(self) -> dict:
        return {"c": list(self.point), "residual": self.residual, "det_sign": self.det_sign}


COUNT_TOL = 1e-10
DEDUP_RADIUS = 1e-7


@dataclass
class EquilibriumReport:
    """Deduplicated equilibria found in a domain, and the number of Newton
    starts that ended in each status."""

    equilibria: List[Equilibrium]
    starts: int
    seed: int
    newton_statuses: Dict[str, int]

    @property
    def count(self) -> int:
        return len(self.equilibria)

    @property
    def degree_estimate(self) -> int:
        """Sum of the det signs of the equilibria."""
        return sum(e.det_sign for e in self.equilibria)

    @property
    def converged_runs(self) -> int:
        return self.newton_statuses.get("converged", 0)

    def to_dict(self) -> dict:
        return {
            "equilibria": [e.to_dict() for e in self.equilibria],
            "degree_estimate": self.degree_estimate,
            "starts": self.starts,
            "seed": self.seed,
            "tol": COUNT_TOL,
            "dedup_radius": DEDUP_RADIUS,
            "converged_runs": self.converged_runs,
            "newton_statuses": dict(self.newton_statuses),
        }


def count_equilibria(sys: NumericSystem, domain, starts: int, seed: int) -> EquilibriumReport:
    """Multistart damped Newton census of equilibria inside a domain.

    Start points are Halton points mapped into the domain; Newton runs
    from all of them at once to the residual COUNT_TOL, every iterate kept
    strictly inside the open domain (``domain.step_fraction``), so no start
    can reach a root outside it; converged roots are filtered by
    ``domain.contains`` only as a guard against rounding, merged up to the
    relative DEDUP_RADIUS and reported sorted lexicographically, each with
    the sign of det(jac) there.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    points, residuals, statuses, _ = _newton(sys, domain.sample_interior(starts, seed), COUNT_TOL, domain)
    converged = statuses == "converged"
    points, residuals = points[converged], residuals[converged]
    inside = domain.contains(points)
    roots = sorted(zip(map(tuple, points[inside].tolist()), residuals[inside].tolist()))
    reps: List[Tuple[np.ndarray, float]] = []
    for point, residual in roots:
        p = np.array(point)
        for i, (q, r_old) in enumerate(reps):
            if np.linalg.norm(p - q) <= DEDUP_RADIUS * (1.0 + np.linalg.norm(q)):
                if residual < r_old:
                    reps[i] = (p, residual)
                break
        else:
            reps.append((p, residual))
    equilibria = [Equilibrium.at(sys, p, residual) for p, residual in reps]
    return EquilibriumReport(equilibria, starts, seed, dict(sorted(Counter(statuses.tolist()).items())))


# ---------------------------------------------------------------------------
# Homotopy continuation


@dataclass
class HomotopyPath:
    """Predictor-corrector path of f_lambda from lambda=0 to lambda=1."""

    samples: List[Tuple[float, Tuple[float, ...], float]]
    endpoint: Tuple[float, ...]
    endpoint_residual: float
    steps: int

    def to_dict(self) -> dict:
        return {
            "endpoint": list(self.endpoint),
            "endpoint_residual": self.endpoint_residual,
            "steps": self.steps,
            "stalled": False,
        }


HOMOTOPY_INITIAL_STEP = 0.1
HOMOTOPY_MIN_STEP = 1e-10
HOMOTOPY_MAX_STEPS = 10000
CORRECTOR_TOL = 1e-10
CORRECTOR_REL_TOL = 1e-12
CORRECTOR_MAX_ITER = 8


@np.errstate(over="ignore", invalid="ignore")
def track_homotopy(sys: NumericSystem, domain) -> HomotopyPath:
    """Track the zero of f_lambda = c_in - outflow*c + lambda*g from its
    explicit solution at lambda=0 up to an equilibrium at lambda=1.

    Euler predictor along dc/dlambda, Newton corrector at fixed lambda
    to the scale-aware residual max(CORRECTOR_TOL, CORRECTOR_REL_TOL * s)
    of ``_correct``; the step grows 1.5x after two easy corrections and
    halves on failure.  The system is evaluated (``evaluate_lambda``) once
    at lambda=0 and once per corrector iterate: the predictor's J_lambda
    and g, and the endpoint residual, come from the corrector's evaluation
    at the point it accepted.  An overflow prints no warning
    (``np.errstate``).

    Raises:
        PathTrackingError: when f_lambda or J_lambda is not finite at an
            accepted point ("non-finite"), the step underflows ("path
            tracking stalled"), or an accepted iterate leaves the domain
            closure.
    """
    sys._require_flows()
    c = np.array(sys.c_in) / np.array(sys.outflow)
    lam = 0.0
    fx, jac, g, _ = sys.evaluate_lambda(c, lam)
    h = HOMOTOPY_INITIAL_STEP
    samples = [(0.0, tuple(c), 0.0)]
    easy = 0
    for _ in range(HOMOTOPY_MAX_STEPS):
        if lam >= 1.0:
            break
        if not (np.all(np.isfinite(jac)) and np.all(np.isfinite(g))):
            raise PathTrackingError("non-finite f_lambda or J_lambda", lam)
        h = min(h, 1.0 - lam)
        target = lam + h
        c_pred = c
        try:
            tangent = np.linalg.solve(jac, -g)
            c_pred = np.maximum(c + h * tangent, 1e-300)
        except np.linalg.LinAlgError:
            pass
        ok, c_new, iters, at = _correct(sys, c_pred, target)
        if ok:
            if not domain.contains(c_new, closed=True, tol=1e-9):
                raise PathTrackingError("path left the domain closure", lam)
            c = c_new
            lam = target
            fx, jac, g = at
            samples.append((lam, tuple(c), h))
            easy = easy + 1 if iters <= 3 else 0
            if easy >= 2:
                h *= 1.5
                easy = 0
        else:
            easy = 0
            h *= 0.5
            if h < HOMOTOPY_MIN_STEP:
                raise PathTrackingError("path tracking stalled", lam)
    else:
        raise PathTrackingError("step budget exhausted", lam)
    # The last accepted target is exactly 1.0: lam + (1.0 - lam) rounds to 1.
    return HomotopyPath(samples, tuple(c), float(np.linalg.norm(fx)), len(samples) - 1)


def _correct(sys: NumericSystem, x0: np.ndarray, lam: float):
    """At most CORRECTOR_MAX_ITER Newton steps on f_lambda at fixed lambda
    from x0, kept strictly positive: (accepted, point, iterations, at),
    where ``at`` is (f_lambda, J_lambda, g) at an accepted point, else None.

    Accepts at ||f_lambda|| <= max(CORRECTOR_TOL, CORRECTOR_REL_TOL * s),
    a backward error against the term-wise magnitudes s of f_lambda, taken
    once, from the evaluation at the predicted point x0.  A system without
    ``g_magnitude`` has the absolute test alone.  Each iterate is
    evaluated once.
    """
    x = np.array(x0)
    if np.any(x <= 0):
        return False, x, 0, None
    tol = None
    for it in range(1, CORRECTOR_MAX_ITER + 2):
        fx, jx, gx, magnitudes = sys.evaluate_lambda(x, lam)
        if tol is None:
            scale = None if magnitudes is None else float(np.linalg.norm(magnitudes))
            if scale is not None and not math.isfinite(scale):
                return False, x, 0, None
            tol = CORRECTOR_TOL if scale is None else max(CORRECTOR_TOL, CORRECTOR_REL_TOL * scale)
        if float(np.linalg.norm(fx)) <= tol:
            return True, x, it - 1, (fx, jx, gx)
        if it > CORRECTOR_MAX_ITER:
            return False, x, CORRECTOR_MAX_ITER, None
        try:
            step = np.linalg.solve(jx, -fx)
        except np.linalg.LinAlgError:
            return False, x, it, None
        x = x + _orthant_step(x, step) * step
        if not np.all(np.isfinite(x)):
            return False, x, it, None


MATCH_RADIUS = 1e-6


def match_endpoint(report: EquilibriumReport, endpoint: Sequence[float]) -> Optional[int]:
    """Index of the report equilibrium within the relative MATCH_RADIUS of
    the homotopy endpoint, if any."""
    e = np.asarray(endpoint)
    for i, eq in enumerate(report.equilibria):
        p = np.array(eq.point)
        if np.linalg.norm(e - p) <= MATCH_RADIUS * (1.0 + np.linalg.norm(p)):
            return i
    return None


# ---------------------------------------------------------------------------
# Boundary audits


@dataclass
class BoundaryAudit:
    """Sampled check that a system has no zeros on a domain boundary.

    Each boundary face has a margin that is positive wherever the face is
    free of zeros; every sampled point where it is not is a violation
    ``{face, lambda, c, margin}``.  Sampling is a cross-check and
    diagnostic, not a proof.
    """

    violations: List[dict]
    samples: int

    @property
    def clean(self) -> bool:
        return not self.violations


LAMBDA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
BOX_ZERO_TOL = 1e-9


def boundary_audit(sys: NumericSystem, domain: MassDomain, samples: int = 1000, seed: int = 0) -> BoundaryAudit:
    """Audit f_lambda at each lambda of LAMBDA_GRID on a mass-bounded domain:
    side ``c[j]=0`` has margin f_lambda_j, and the ``outer`` face
    m.(outflow*c) = M has margin -m.f_lambda.

    The check for custom systems.  For a flow-augmented mass-action
    network with a conserved or dissipating m, ``crn count`` certifies
    the boundary from structure instead, and this audit is the test
    oracle of that argument.
    """
    sys._require_flows()
    n = sys.n
    per_side = max(1, samples // (2 * n))
    faces = [(f"c[{j}]=0", domain.sample_side(j, per_side, seed + j + 1), lambda fc, j=j: fc[..., j]) for j in range(n)]
    faces.append(("outer", domain.sample_outer(max(1, samples // 2), seed), lambda fc: -(fc @ domain.m)))
    return _audit(faces, sys.f_lambda, LAMBDA_GRID)


def box_audit(sys: NumericSystem, box: BoxDomain, samples: int = 600, seed: int = 0) -> BoundaryAudit:
    """Audit f itself (recorded as lambda = 1) on the faces of a box.

    A lower face ``c[j]=lo`` has margin min(f_j, max|f| - BOX_ZERO_TOL),
    so f_j must point inward and f must not vanish; an upper face
    ``c[j]=hi`` has margin max|f| - BOX_ZERO_TOL.
    """
    n = sys.n
    per_face = max(1, samples // (2 * n))
    faces = []
    for j in range(n):
        lower = box.sample_face(j, False, per_face, seed + 2 * j + 1)
        upper = box.sample_face(j, True, per_face, seed + 2 * j + 2)
        faces.append((f"c[{j}]=lo", lower, lambda fc, j=j: np.minimum(fc[..., j], np.max(np.abs(fc), axis=-1) - BOX_ZERO_TOL)))
        faces.append((f"c[{j}]=hi", upper, lambda fc: np.max(np.abs(fc), axis=-1) - BOX_ZERO_TOL))
    return _audit(faces, lambda c, lam: sys.f(c), (1.0,))


def _audit(faces, evaluate: Callable, lambdas: Sequence[float]) -> BoundaryAudit:
    """Evaluate each (name, points, margin) face's whole point array at each
    lambda; a margin that is not > 0 is a violation.  Violations are listed
    face by face, in (point, lambda) order."""
    violations = []
    for face, points, margin in faces:
        margins = np.stack([margin(evaluate(points, lam)) for lam in lambdas], axis=-1)
        for i, l in np.argwhere(~(margins > 0)).tolist():
            violations.append({"face": face, "lambda": lambdas[l], "c": list(points[i]), "margin": float(margins[i, l])})
    return BoundaryAudit(violations, sum(len(points) for _, points, _ in faces))


# ---------------------------------------------------------------------------
# Multistationarity search


@dataclass
class MultistationarityWitness:
    parameters: dict
    report: EquilibriumReport
    trial: int


def search_multistationarity(
    net: ReactionNetwork,
    flows: FlowAugmentation,
    sampler: Callable[[np.random.Generator], dict],
    budget: int,
    seed: int,
    starts: int = 60,
) -> Optional[MultistationarityWitness]:
    """Randomised search for parameters with two or more equilibria.

    Skipped immediately (returns None) when the symbolic-outflow sign
    census certifies a one-signed determinant, since multiple zeros are
    then impossible for every rate and outflow the sampler may draw.
    ``sampler`` maps an RNG to {"k": {label: value}, "inflow"?: vector,
    "outflow"?: vector}.  Each trial counts in ``default_domain(m, flows)``
    of the conserved mass vector m.  A candidate counts as a witness only
    when its degree estimate still equals (-1)^n, so an even number of
    found roots (a missed root) is retried at four times the start count
    and otherwise rejected.
    """
    from .jacobian import augmented_mass_action_jacobian, sign_census
    from .polynomial import determinant_expand, DeterminantSizeError

    try:
        det = determinant_expand(augmented_mass_action_jacobian(net, outflow="symbolic"))
        census = sign_census(det, net.n)
        if census.certified_one_signed:
            return None
    except DeterminantSizeError:
        pass  # too large to census; search anyway
    m = conserved_mass_vector(net)
    if m is None:
        raise NetworkError("network is not conservative; supply a dissipating mass vector domain manually")
    reference = -1 if net.n % 2 else 1
    rng = np.random.default_rng(seed)
    for trial in range(budget):
        params = sampler(rng)
        trial_flows = FlowAugmentation(
            tuple(params.get("inflow", flows.inflow)),
            tuple(params.get("outflow", flows.outflow)),
        )
        sys = numeric_system_from_network(net, params.get("k", {}), trial_flows)
        domain = default_domain(m, trial_flows)
        report = count_equilibria(sys, domain, starts, seed=seed + trial + 1)
        if report.count >= 2 and report.degree_estimate != reference:
            report = count_equilibria(sys, domain, 4 * starts, seed=seed + trial + 1)
        if report.count >= 2 and report.degree_estimate == reference:
            return MultistationarityWitness(params, report, trial)
    return None
