"""The fixed-ramp homotopy tracker and the per-root merge loop: the oracles
for ``numeric.track_homotopy`` and ``numeric.count_equilibria``.

``reference_track_homotopy`` starts at the step 0.1, grows it 1.5x after two
corrections of at most three Newton steps and halves it on failure, and its
corrector runs CORRECTOR_MAX_ITER Newton steps whether or not they
contract, as ``track_homotopy`` and ``_correct`` did before the adaptive
step rule.  Tests require both trackers to reach lambda = 1 or both to
stall, at endpoints that agree to a relative tolerance.

``reference_merge_roots`` merges converged roots as ``count_equilibria`` did
before it walked the rows of the converged array: a fresh array per root
and two norms against every representative.  Tests require equal points
and residuals.

``reference_step_fraction`` is the step rule of the positive orthant, a
``MassDomain`` and a ``BoxDomain`` as each computed it before the domains
shared one rule over their faces (A, b): the crossings of the coordinate
planes and of the outer plane or the box's faces, each taken on its own.
Tests require the same bits.

``reference_contains`` is the membership test of a ``MassDomain`` and a
``BoxDomain`` as each wrote it before the domains shared one rule over
their faces: coordinate bounds and the outer plane compared one by one, the
closed slack CLOSURE_TOL * (1 + M) or CLOSURE_TOL * (1 + max|hi|).  Tests
require the same booleans.
"""

import math
from typing import List, Tuple

import numpy as np

from crncount.numeric import (
    CLOSURE_TOL,
    CORRECTOR_MAX_ITER,
    CORRECTOR_REL_TOL,
    CORRECTOR_TOL,
    DEDUP_RADIUS,
    HOMOTOPY_MAX_STEPS,
    HOMOTOPY_MIN_STEP,
    HomotopyPath,
    MassDomain,
    NumericSystem,
    PathTrackingError,
    _orthant_step,
)

RAMP_INITIAL_STEP = 0.1


@np.errstate(over="ignore", invalid="ignore")
def reference_track_homotopy(sys: NumericSystem, domain) -> HomotopyPath:
    """The fixed-ramp tracker: Euler predictor, ``reference_correct``."""
    sys._require_flows()
    c = np.array(sys.c_in) / np.array(sys.outflow)
    lam = 0.0
    fx, jac, g, _ = sys.evaluate_lambda(c, lam)
    h = RAMP_INITIAL_STEP
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
        ok, c_new, iters, at = reference_correct(sys, c_pred, target)
        if ok:
            if not domain.contains(c_new, closed=True):
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
    return HomotopyPath(samples, tuple(c), float(np.linalg.norm(fx)), len(samples) - 1)


def reference_correct(sys: NumericSystem, x0: np.ndarray, lam: float):
    """CORRECTOR_MAX_ITER Newton steps at fixed lambda, with no test that
    they contract: (accepted, point, iterations, at)."""
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


def reference_merge_roots(points: np.ndarray, residuals: np.ndarray) -> List[Tuple[np.ndarray, float]]:
    """Representatives (point, residual) of converged roots, merged up to the
    relative DEDUP_RADIUS in lexicographic (point, residual) order, a
    lower-residual duplicate replacing its representative."""
    roots = sorted(zip(map(tuple, points.tolist()), residuals.tolist()))
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
    return reps


def _crossing(gap: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Step length gap/rate at which a face is reached, inf where the step
    moves along it or away from it (rate <= 0), without dividing there."""
    return np.divide(gap, rate, out=np.full(np.shape(gap), np.inf), where=rate > 0)


def _fraction(distance: np.ndarray) -> np.ndarray:
    """0.95 of the step length to the nearest face, capped at a full step."""
    return np.minimum(1.0, 0.95 * distance)


def reference_step_fraction(domain, x: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Step fraction alpha <= 1, one per row of x, that keeps x + alpha*step in
    the open positive orthant (``domain`` None), a MassDomain or a BoxDomain."""
    if domain is None:
        return _fraction(_crossing(x, -step).min(axis=-1))
    if isinstance(domain, MassDomain):
        outer = _crossing(domain.bound - x @ domain.weights, step @ domain.weights)
        return _fraction(np.minimum(_crossing(x, -step).min(axis=-1), outer))
    return _fraction(np.minimum(_crossing(x - domain.lo, -step), _crossing(domain.hi - x, step)).min(axis=-1))


def reference_contains(domain, c: np.ndarray, closed: bool = False):
    """Membership of each point of a (..., n) stack in a MassDomain or a BoxDomain."""
    if isinstance(domain, MassDomain):
        if closed:
            slack = CLOSURE_TOL * (1.0 + domain.bound)
            return np.all(c >= -slack, axis=-1) & (c @ domain.weights <= domain.bound + slack)
        return np.all(c > 0, axis=-1) & (c @ domain.weights < domain.bound)
    if closed:
        slack = CLOSURE_TOL * (1.0 + np.max(np.abs(domain.hi)))
        return np.all((c >= domain.lo - slack) & (c <= domain.hi + slack), axis=-1)
    return np.all((c > domain.lo) & (c < domain.hi), axis=-1)
