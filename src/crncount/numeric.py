"""Numeric equilibrium finding: multistart Newton, homotopy continuation,
degree estimation, bounded domains, and sampled boundary audits.

The audits check by sampling that f has no zeros on a domain boundary.
They serve custom systems and the box cascades; for network-derived
systems, where ``crn count`` states this from the network's structure,
they are its test oracle.

All searches are deterministic given their seed: start points come from a
scrambled Halton sequence (``_halton``, the same points as scipy's
``qmc.Halton(d, scramble=True, seed=seed)``), runs are merged in
lexicographic order, and no wall-clock or scheduling state enters any
report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .conservation import MassVector, conserved_mass_vector
from .network import FlowAugmentation, GeneralMonotone, MassAction, NetworkError, ReactionNetwork


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
    the open orthant).  Systems built from flow-augmented networks also
    carry the decomposition f(c) = c_in - outflow*c + g(c), which the
    homotopy and ``boundary_audit`` need and check for on entry;
    standalone fixtures may leave the flow fields as None, and then
    ``f_lambda``/``jac_lambda`` must not be called.  Evaluators must be
    pure.
    """

    n: int
    f: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    c_in: Optional[np.ndarray] = None
    outflow: Optional[np.ndarray] = None
    provenance: str = "custom"

    @property
    def has_flow_structure(self) -> bool:
        return self.g is not None and self.c_in is not None and self.outflow is not None

    def f_lambda(self, c: np.ndarray, lam: float) -> np.ndarray:
        """Homotopy family c_in - outflow*c + lam * g(c)."""
        return self.c_in - self.outflow * c + lam * self.g(c)

    def jac_lambda(self, c: np.ndarray, lam: float) -> np.ndarray:
        return lam * (self.jac(c) + np.diag(self.outflow)) - np.diag(self.outflow)

    def _require_flows(self):
        if not self.has_flow_structure:
            raise ValueError(f"system {self.provenance!r} lacks inflow/outflow structure")


def flow_system(flows: FlowAugmentation, g=None, jac_g=None, provenance: str = "flow-only") -> NumericSystem:
    """The flow-augmented system f(c) = c_in - outflow*c + g(c).

    ``g`` and its Jacobian ``jac_g`` are the reaction terms; omitted, both
    are 0 and f is the pure-flow system with equilibrium c_in/outflow.
    """
    c_in = np.array(flows.inflow)
    outflow = np.array(flows.outflow)
    n = len(c_in)
    if g is None:
        g = lambda c: np.zeros(n)
        jac_g = lambda c: np.zeros((n, n))

    def f(c: np.ndarray) -> np.ndarray:
        return c_in - outflow * c + g(c)

    def jac(c: np.ndarray) -> np.ndarray:
        return jac_g(c) - np.diag(outflow)

    return NumericSystem(n, f, jac, g=g, c_in=c_in, outflow=outflow, provenance=provenance)


def numeric_system_from_network(
    net: ReactionNetwork,
    rate_constants: Optional[Dict[str, float]],
    flows: FlowAugmentation,
) -> NumericSystem:
    """Bind a network to numbers and augment it with ``flows``.

    Every mass-action reaction needs a numeric rate constant, either on
    the reaction itself or in ``rate_constants`` keyed by reaction label.
    General monotone reactions must carry a numeric evaluator returning
    ``(rate, partials)``.  The system is ``flow_system(flows, g, jac_g)``
    with g the network's reaction terms.

    Raises:
        NetworkError: on a missing rate constant or one that is not finite
            and > 0, or a general reaction without an evaluator.
    """
    rate_constants = rate_constants or {}
    n = net.n
    mass_rows = []
    general = []
    for r in net.reactions:
        vec = np.array(r.reaction_vector(n), dtype=float)
        if isinstance(r.kinetics, MassAction):
            k = r.kinetics.value if r.kinetics.value is not None else rate_constants.get(r.label)
            if k is None:
                raise NetworkError(f"missing parameter binding for rate constant of {r.label}")
            if not (math.isfinite(k) and k > 0):
                raise NetworkError(f"rate constant of {r.label} must be finite and > 0, got {k}")
            y = np.array(r.source.as_vector(n), dtype=float)
            mass_rows.append((float(k), y, vec))
        elif isinstance(r.kinetics, GeneralMonotone):
            if r.kinetics.evaluator is None:
                raise NetworkError(f"general kinetics reaction {r.label} has no numeric evaluator")
            general.append((r.kinetics.evaluator, vec))
        else:
            raise NetworkError(f"unsupported kinetics on {r.label}")

    if mass_rows:
        kvec = np.array([row[0] for row in mass_rows])
        Y = np.array([row[1] for row in mass_rows])
        V = np.array([row[2] for row in mass_rows])
    else:
        kvec = np.zeros(0)
        Y = np.zeros((0, n))
        V = np.zeros((0, n))

    def g(c: np.ndarray) -> np.ndarray:
        out = np.zeros(n)
        if len(kvec):
            rates = kvec * np.prod(np.power(c, Y), axis=1)
            out += rates @ V
        for evaluator, vec in general:
            rate, _ = evaluator(c)
            out += rate * vec
        return out

    def jac_g(c: np.ndarray) -> np.ndarray:
        J = np.zeros((n, n))
        if len(kvec):
            rates = kvec * np.prod(np.power(c, Y), axis=1)
            J += V.T @ (rates[:, None] * Y / c[None, :])
        for evaluator, vec in general:
            _, partials = evaluator(c)
            J += np.outer(vec, np.asarray(partials))
        return J

    if len(flows.inflow) != n:
        raise NetworkError(f"flow vectors have length {len(flows.inflow)}, expected {n}")
    return flow_system(flows, g, jac_g, provenance=f"network:{net.network_hash()}")


def finite_difference_jacobian(f: Callable, c: np.ndarray, scale: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian with step scale*(1+|c_i|) per coordinate."""
    n = len(c)
    J = np.zeros((n, n))
    for i in range(n):
        h = scale * (1.0 + abs(c[i]))
        up = c.copy()
        dn = c.copy()
        up[i] += h
        dn[i] -= h
        J[:, i] = (f(up) - f(dn)) / (2 * h)
    return J


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

    def contains(self, c: np.ndarray, closed: bool = False, tol: float = 1e-12) -> bool:
        c = np.asarray(c)
        slack = tol * (1.0 + self.bound)
        if closed:
            return bool(np.all(c >= -slack) and self.weights @ c <= self.bound + slack)
        return bool(np.all(c > 0) and self.weights @ c < self.bound)

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

    def contains(self, c: np.ndarray, closed: bool = False, tol: float = 1e-12) -> bool:
        c = np.asarray(c)
        slack = tol * (1.0 + np.max(np.abs(self.hi)))
        if closed:
            return bool(np.all(c >= self.lo - slack) and np.all(c <= self.hi + slack))
        return bool(np.all(c > self.lo) and np.all(c < self.hi))

    def boundary_distance(self, c: np.ndarray) -> float:
        c = np.asarray(c)
        return float(min(np.min(c - self.lo), np.min(self.hi - c)))

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
        for term in terms[j:, 0].tolist():  # every higher digit is 0
            row += term
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


def default_domain(m, flows: FlowAugmentation, mult: float = 10.0) -> MassDomain:
    """Domain with M = mult * (m . c_in); any mult > 1 yields a valid region."""
    entries = m.as_floats() if isinstance(m, MassVector) else [float(x) for x in m]
    return make_domain(m, flows, mult * float(np.dot(entries, flows.inflow)))


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


def newton_solve(sys: NumericSystem, x0: Sequence[float], tol: float = 1e-10) -> NewtonResult:
    """Damped Newton iteration confined to the open positive orthant.

    Steps are shortened to keep every coordinate strictly positive, then
    halved until the residual norm decreases.  Statuses: ``converged``,
    ``singular-jacobian``, ``no-descent``, ``diverged``, ``max-iterations``.
    """
    x = np.array(x0, dtype=float)
    if np.any(x <= 0):
        raise ValueError("start point must be strictly positive")
    fx = sys.f(x)
    r = float(np.linalg.norm(fx))
    for it in range(1, NEWTON_MAX_ITER + 1):
        if r <= tol:
            return NewtonResult(x, r, True, "converged", it - 1)
        try:
            step = np.linalg.solve(sys.jac(x), -fx)
        except np.linalg.LinAlgError:
            return NewtonResult(None, r, False, "singular-jacobian", it - 1)
        if not np.all(np.isfinite(step)):
            return NewtonResult(None, r, False, "singular-jacobian", it - 1)
        alpha = _orthant_step(x, step)
        accepted = False
        while alpha > 1e-13:
            x_new = x + alpha * step
            f_new = sys.f(x_new)
            r_new = float(np.linalg.norm(f_new))
            if np.isfinite(r_new) and r_new < r:
                x, fx, r = x_new, f_new, r_new
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return NewtonResult(None, r, False, "no-descent", it)
        if np.any(np.abs(x) > 1e14):
            return NewtonResult(None, r, False, "diverged", it)
    if r <= tol:
        return NewtonResult(x, r, True, "converged", NEWTON_MAX_ITER)
    return NewtonResult(None, r, False, "max-iterations", NEWTON_MAX_ITER)


def _orthant_step(x: np.ndarray, step: np.ndarray) -> float:
    """Step fraction alpha <= 1 that keeps x + alpha*step strictly positive:
    0.95 of the way to the nearest coordinate plane the step would cross."""
    negative = step < 0
    if not np.any(negative):
        return 1.0
    return min(1.0, 0.95 * float(np.min(x[negative] / -step[negative])))


@dataclass
class Equilibrium:
    point: Tuple[float, ...]
    residual: float
    det_sign: int


COUNT_TOL = 1e-10
DEDUP_RADIUS = 1e-7


@dataclass
class EquilibriumReport:
    """Deduplicated equilibria found in a domain, with a degree estimate."""

    equilibria: List[Equilibrium]
    degree_estimate: int
    starts: int
    seed: int
    converged_runs: int

    @property
    def count(self) -> int:
        return len(self.equilibria)

    def to_dict(self) -> dict:
        return {
            "equilibria": [
                {"c": list(e.point), "residual": e.residual, "det_sign": e.det_sign}
                for e in self.equilibria
            ],
            "degree_estimate": self.degree_estimate,
            "starts": self.starts,
            "seed": self.seed,
            "tol": COUNT_TOL,
            "dedup_radius": DEDUP_RADIUS,
            "converged_runs": self.converged_runs,
        }


def count_equilibria(sys: NumericSystem, domain, starts: int, seed: int, expect_unique: bool = False) -> EquilibriumReport:
    """Multistart damped Newton census of equilibria inside a domain.

    Start points are Halton points mapped into the domain; Newton runs to
    the residual COUNT_TOL; converged roots outside the open domain are
    discarded; survivors are merged up to the relative DEDUP_RADIUS and
    reported sorted lexicographically, with the sign of det(jac) at each
    root and their sum as the degree estimate.

    With ``expect_unique=True`` (census certified a one-signed
    determinant) a count other than one raises UniqueEquilibriumError.
    """
    if starts < 1:
        raise ValueError("starts must be >= 1")
    x0s = domain.sample_interior(starts, seed)
    roots = []
    converged = 0
    for x0 in x0s:
        res = newton_solve(sys, x0, tol=COUNT_TOL)
        if res.converged:
            converged += 1
            if domain.contains(res.point):
                roots.append((tuple(res.point), res.residual))
    roots.sort()
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
    equilibria = []
    for p, residual in reps:
        sign, _ = np.linalg.slogdet(sys.jac(p))
        equilibria.append(Equilibrium(tuple(p), residual, int(sign)))
    degree = sum(e.det_sign for e in equilibria)
    report = EquilibriumReport(equilibria, degree, starts, seed, converged)
    if expect_unique and report.count != 1:
        raise UniqueEquilibriumError(
            f"one-signed determinant guarantees a unique equilibrium, found {report.count}"
        )
    return report


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


def track_homotopy(sys: NumericSystem, domain) -> HomotopyPath:
    """Track the zero of f_lambda = c_in - outflow*c + lambda*g from its
    explicit solution at lambda=0 up to an equilibrium at lambda=1.

    Euler predictor along dc/dlambda, Newton corrector at fixed lambda;
    the step grows 1.5x after two easy corrections and halves on failure.

    Raises:
        PathTrackingError: when the step underflows ("path tracking
            stalled") or an accepted iterate leaves the domain closure.
    """
    sys._require_flows()
    c = np.array(sys.c_in) / np.array(sys.outflow)
    lam = 0.0
    h = HOMOTOPY_INITIAL_STEP
    samples = [(0.0, tuple(c), 0.0)]
    easy = 0
    for _ in range(HOMOTOPY_MAX_STEPS):
        if lam >= 1.0:
            break
        h = min(h, 1.0 - lam)
        target = lam + h
        c_pred = c
        try:
            tangent = np.linalg.solve(sys.jac_lambda(c, lam), -sys.g(c))
            c_pred = np.maximum(c + h * tangent, 1e-300)
        except np.linalg.LinAlgError:
            pass
        ok, c_new, iters = _correct(sys, c_pred, target)
        if ok:
            if not domain.contains(c_new, closed=True, tol=1e-9):
                raise PathTrackingError("path left the domain closure", lam)
            c = c_new
            lam = target
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
    residual = float(np.linalg.norm(sys.f_lambda(c, 1.0)))
    return HomotopyPath(samples, tuple(c), residual, len(samples) - 1)


def _correct(sys: NumericSystem, x0: np.ndarray, lam: float, max_iter: int = 8):
    x = np.array(x0)
    if np.any(x <= 0):
        return False, x, 0
    for it in range(1, max_iter + 1):
        fx = sys.f_lambda(x, lam)
        r = float(np.linalg.norm(fx))
        if r <= CORRECTOR_TOL:
            return True, x, it - 1
        try:
            step = np.linalg.solve(sys.jac_lambda(x, lam), -fx)
        except np.linalg.LinAlgError:
            return False, x, it
        x = x + _orthant_step(x, step) * step
        if not np.all(np.isfinite(x)):
            return False, x, it
    fx = sys.f_lambda(x, lam)
    return float(np.linalg.norm(fx)) <= CORRECTOR_TOL, x, max_iter


def match_endpoint(report: EquilibriumReport, endpoint: Sequence[float], radius: float = 1e-6) -> Optional[int]:
    """Index of the report equilibrium matching the homotopy endpoint, if any."""
    e = np.asarray(endpoint)
    for i, eq in enumerate(report.equilibria):
        p = np.array(eq.point)
        if np.linalg.norm(e - p) <= radius * (1.0 + np.linalg.norm(p)):
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
    faces = [(f"c[{j}]=0", domain.sample_side(j, per_side, seed + j + 1), lambda fc, j=j: fc[j]) for j in range(n)]
    faces.append(("outer", domain.sample_outer(max(1, samples // 2), seed), lambda fc: -(domain.m @ fc)))
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
        faces.append((f"c[{j}]=lo", lower, lambda fc, j=j: min(fc[j], np.max(np.abs(fc)) - BOX_ZERO_TOL)))
        faces.append((f"c[{j}]=hi", upper, lambda fc: np.max(np.abs(fc)) - BOX_ZERO_TOL))
    return _audit(faces, lambda c, lam: sys.f(c), (1.0,))


def _audit(faces, evaluate: Callable, lambdas: Sequence[float]) -> BoundaryAudit:
    """Evaluate every sampled point of every (name, points, margin) face at
    each lambda; a margin that is not > 0 is a violation."""
    violations = []
    for face, points, margin in faces:
        for c in points:
            for lam in lambdas:
                value = float(margin(evaluate(c, lam)))
                if not value > 0:
                    violations.append({"face": face, "lambda": lam, "c": list(c), "margin": value})
    return BoundaryAudit(violations, sum(len(points) for _, points, _ in faces))


def sample_determinant_signs(sys: NumericSystem, domain, samples: int = 2000, seed: int = 0) -> Dict[int, int]:
    """Histogram of sign(det jac) over sampled interior points.

    Numeric stand-in for sign conditions that hold only on the bounded
    domain rather than the whole orthant: a single nonzero sign over many
    samples is evidence (not proof) that the determinant is one-signed
    there, so the equilibrium count matches |degree|.
    """
    counts: Dict[int, int] = {}
    for c in domain.sample_interior(samples, seed):
        sign, _ = np.linalg.slogdet(sys.jac(c))
        counts[int(sign)] = counts.get(int(sign), 0) + 1
    return counts


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
    domain_mult: float = 10.0,
) -> Optional[MultistationarityWitness]:
    """Randomised search for parameters with two or more equilibria.

    Skipped immediately (returns None) when the symbolic-outflow sign
    census certifies a one-signed determinant, since multiple zeros are
    then impossible for every rate and outflow the sampler may draw.
    ``sampler`` maps an RNG to {"k": {label: value}, "inflow"?: vector,
    "outflow"?: vector}.  A candidate counts as a witness only when its
    degree estimate still equals (-1)^n, so an even number of found roots
    (a missed root) is retried at four times the start count and
    otherwise rejected.
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
        domain = default_domain(m, trial_flows, domain_mult)
        report = count_equilibria(sys, domain, starts, seed=seed + trial + 1)
        if report.count >= 2 and report.degree_estimate != reference:
            report = count_equilibria(sys, domain, 4 * starts, seed=seed + trial + 1)
        if report.count >= 2 and report.degree_estimate == reference:
            return MultistationarityWitness(params, report, trial)
    return None
