"""Unified two-parameter (q, s) entropy and entanglement machinery.

All logarithms are natural (nats).  No base is fixed by the defining
formula ``U = [(tr rho^q)^s - 1] / ((1-q) s)`` and nats keep its algebraic
limits exact; note that entanglement of formation is conventionally quoted
in bits, so values from the ``q -> 1`` regime here differ from that
convention by a factor ``ln 2``.

Near the removable singularities of the defining formula the closed limit
expression is evaluated instead of the raw formula: ``q`` within 1e-6 of 1
(von Neumann), ``s`` below 1e-6 (Renyi-q) and ``s`` within 1e-6 of 1
(Tsallis-q).  ``*_raw`` variants evaluate the raw formula with no dispatch,
for checking the limits themselves.

``f_qs`` maps a concurrence value to the unified entanglement of a
Schmidt-rank-2 pure state; ``g_qs`` is the same map on squared concurrence
(``g_qs(x**2) == f_qs(x)``).  The analytic map is valid on a bounded
parameter region; membership is exposed as :func:`in_region_r`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

import numpy as np

from .states import DensityMatrix, PureStateVector, _schmidt_spectrum

Q_ONE_WINDOW = 1e-6
S_ZERO_WINDOW = 1e-6
S_ONE_WINDOW = 1e-6

_DOMAIN_SLACK = 1e-12
_SINGULARITY_WINDOW = 1e-9
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class UEParams:
    """Finite entropy parameters ``q > 0`` and ``s >= 0`` plus derived regime flags."""

    q: float
    s: float

    def __post_init__(self) -> None:
        q, s = float(self.q), float(self.s)
        if not (math.isfinite(q) and q > 0.0):
            raise ValueError(f"q must be positive and finite, got {q}")
        if not (math.isfinite(s) and s >= 0.0):
            raise ValueError(f"s must be non-negative and finite, got {s}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s", s)

    @property
    def regime(self) -> str:
        if abs(self.q - 1.0) < Q_ONE_WINDOW:
            return "q_near_1"
        if self.s < S_ZERO_WINDOW:
            return "s_near_0"
        if abs(self.s - 1.0) < S_ONE_WINDOW:
            return "s_near_1"
        return "generic"

    @property
    def in_region_r(self) -> bool:
        return in_region_r(self)

    @property
    def satisfies_basic_bounds(self) -> bool:
        """The plain validity bounds ``q >= 1``, ``0 <= s <= 1``, ``qs <= 3``."""
        return self.q >= 1.0 and 0.0 <= self.s <= 1.0 and self.q * self.s <= 3.0


def region_lower_q(s: float) -> float:
    """Lower admissible ``q`` at a given ``s`` in [0, 1].

    The defining expression has a removable singularity at ``s = 2/3``; the
    limiting value 3/4 is used inside a 1e-9 window around it.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    den = 2.0 * (2.0 - 3.0 * s)
    if abs(den) < 2.0 * _SINGULARITY_WINDOW:
        return 0.75
    return (math.sqrt(9.0 * s**2 - 24.0 * s + 28.0) - (2.0 + 3.0 * s)) / den


def region_upper_q(s: float) -> float:
    """Upper admissible ``q`` at a given ``s`` in [0, 1]; infinite at ``s = 0``."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must lie in [0, 1], got {s}")
    if s == 0.0:
        return math.inf
    return (5.0 + math.sqrt(13.0)) / (2.0 * s)


def in_region_r(params: Union[UEParams, tuple[float, float]]) -> bool:
    """Whether ``(q, s)`` lies in the validity region of the analytic map."""
    if isinstance(params, UEParams):
        q, s = params.q, params.s
    else:
        q, s = float(params[0]), float(params[1])
    if not 0.0 <= s <= 1.0:
        return False
    return region_lower_q(s) <= q <= region_upper_q(s)


def _clamped_unit(value: float, name: str) -> float:
    v = float(value)
    if not -_DOMAIN_SLACK <= v <= 1.0 + _DOMAIN_SLACK:
        raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return min(max(v, 0.0), 1.0)


def _f_from_u(u: float, params: UEParams) -> float:
    """Entanglement value from ``u = sqrt(1 - C^2)`` via the regime-dispatched formula."""
    lam_hi = (1.0 + u) / 2.0
    lam_lo = (1.0 - u) / 2.0
    regime = params.regime
    if regime == "q_near_1":
        out = 0.0
        for lam in (lam_hi, lam_lo):
            if lam > 0.0:
                out -= lam * math.log(lam)
        return out
    power_sum = lam_hi**params.q + lam_lo**params.q
    if regime == "s_near_0":
        value = math.log(power_sum) / (1.0 - params.q)
    elif regime == "s_near_1":
        value = (power_sum - 1.0) / (1.0 - params.q)
    else:
        value = (power_sum**params.s - 1.0) / ((1.0 - params.q) * params.s)
    return value + 0.0  # an exact zero divided by 1 - q < 0 is -0.0; report it as 0.0


def f_qs(x: float, params: UEParams) -> float:
    """Unified entanglement of a Schmidt-rank-2 pure state with concurrence ``x``."""
    x = _clamped_unit(x, "concurrence")
    return _f_from_u(math.sqrt(max(0.0, 1.0 - x * x)), params)


def g_qs(y: float, params: UEParams) -> float:
    """Same map on squared concurrence: ``g_qs(y) == f_qs(sqrt(y))``."""
    y = _clamped_unit(y, "squared concurrence")
    return _f_from_u(math.sqrt(max(0.0, 1.0 - y)), params)


def f_qs_raw(x: float, q: float, s: float) -> float:
    """Raw formula with no limit-regime dispatch (unstable near q=1 and s=0)."""
    x = _clamped_unit(x, "concurrence")
    u = math.sqrt(max(0.0, 1.0 - x * x))
    power_sum = ((1.0 + u) / 2.0) ** q + ((1.0 - u) / 2.0) ** q
    return (power_sum**s - 1.0) / ((1.0 - q) * s)


def _entropy_rows(lams: np.ndarray, params: UEParams) -> np.ndarray:
    """Unified entropy for each row of a (batch, k) spectrum array."""
    lams = np.clip(np.atleast_2d(lams), 0.0, None)
    regime = params.regime
    if regime == "q_near_1":
        terms = np.where(lams > 0.0, lams * np.log(np.where(lams > 0.0, lams, 1.0)), 0.0)
        return 0.0 - np.sum(terms, axis=1)  # not -sum: a pure spectrum gives 0.0, not -0.0
    power_sum = np.sum(lams**params.q, axis=1)
    if regime == "s_near_0":
        values = np.log(power_sum) / (1.0 - params.q)
    elif regime == "s_near_1":
        values = (power_sum - 1.0) / (1.0 - params.q)
    else:
        values = (power_sum**params.s - 1.0) / ((1.0 - params.q) * params.s)
    return values + 0.0  # as in _f_from_u: no -0.0 for a pure spectrum


def unified_entropy(rho: DensityMatrix, params: UEParams) -> float:
    """Unified (q, s) entropy of a density matrix, in nats."""
    return float(_entropy_rows(rho.spectrum()[None, :], params)[0])


def unified_entropy_raw(rho: DensityMatrix, q: float, s: float) -> float:
    """Raw ``[(tr rho^q)^s - 1]/((1-q) s)`` with no limit-regime dispatch."""
    power_sum = float(np.sum(rho.spectrum() ** q))
    return (power_sum**s - 1.0) / ((1.0 - q) * s)


def ue_pure(psi: PureStateVector, side_a: Iterable[int], params: UEParams) -> float:
    """Unified entanglement of a pure state across the cut ``side_a | rest``."""
    return float(_entropy_rows(_schmidt_spectrum(psi, side_a)[None, :], params)[0])


def ue_gw_reduced(concurrence: float, params: UEParams) -> float:
    """Unified entanglement of a W-class reduction with the given concurrence.

    For W-class reductions the convex-roof value is the analytic map
    evaluated at the concurrence; callers are responsible for staying inside
    the validity region.
    """
    return f_qs(concurrence, params)


_FD_STEP = 1e-5  # central-difference step on the angles
_PROBE_TURN = complex(math.cos(_FD_STEP), math.sin(_FD_STEP))  # exp(i h), h = _FD_STEP
_ARMIJO = 1e-4  # fraction of the predicted decrease a step must realise
_BACKTRACK = 0.5  # step shrink factor when a step falls short
_GAIN_TOL = 1e-12  # an iteration lowering the value by no more than this ends the restart
_STEP_TOL = 1e-10  # a step no longer than this in every coordinate ends the restart


def _probe_values(x: np.ndarray, source: np.ndarray, m: int, params: UEParams) -> np.ndarray:
    """Average member entanglement at each row of ``x`` and at its central-difference probes.

    Row ``b`` of the ``(batch, 2 n + 1)`` result holds the value at ``x[b]``,
    then at ``x[b] + h e_a`` for each of the ``n`` angles ``a``, then at
    ``x[b] - h e_a``, with ``h = _FD_STEP``.  A row of angles holds, for every
    pair ``i < j`` in order, a Givens rotation angle and its phase, followed
    by ``r - 1`` phases on columns ``1..r-1`` of the ``(m, r)`` isometry.
    ``source`` is the ``(r, 4)`` stack of weighted eigenvectors written as
    flattened 2x2 matrices on the effective support, so each member's
    Schmidt spectrum follows from its weight and determinant.

    A probe moves one angle, so its cosines and sines come from the base
    point's by the angle-addition formulas; points sit innermost in every
    array, and rows of the isometry that are still zero are not rotated.
    """
    batch, n = x.shape
    r = source.shape[0]
    n_points = 2 * n + 1
    base = np.cos(x.T) + 1j * np.sin(x.T)  # (angle, batch)
    a = np.arange(n)
    z = np.repeat(base[:, :, None], n_points, axis=2)  # (angle, batch, probe)
    z[a, :, 1 + a] = base * _PROBE_TURN
    z[a, :, 1 + n + a] = base * _PROBE_TURN.conjugate()
    z = z.reshape(n, -1)  # cos + i sin of every angle at every point

    n_rot = m * (m - 1)
    cos_rot = z[0:n_rot:2].real
    sin_phase = z[0:n_rot:2].imag * z[1:n_rot:2]
    minus_conj = -sin_phase.conj()
    # the column phases commute with the row rotations, so they start on the rows
    rows: list[Optional[np.ndarray]] = [None] * m  # None: a row still known to be zero
    for k in range(r):
        rows[k] = np.zeros((r, z.shape[1]), dtype=np.complex128)
        rows[k][k] = 1.0 if k == 0 else z[n_rot + k - 1]
    k = 0
    for i in range(m - 1):
        for j in range(i + 1, m):
            if rows[j] is None:
                rows[i], rows[j] = cos_rot[k] * rows[i], minus_conj[k] * rows[i]
            else:
                rows[i], rows[j] = (
                    cos_rot[k] * rows[i] + sin_phase[k] * rows[j],
                    cos_rot[k] * rows[j] + minus_conj[k] * rows[i],
                )
            k += 1
    members = source.T @ np.stack(rows)  # (m, 4, points), unnormalised
    weights = np.sum(members.real**2 + members.imag**2, axis=1)
    dets = members[:, 0] * members[:, 3] - members[:, 1] * members[:, 2]
    gap = np.sqrt(np.clip(weights**2 - 4.0 * (dets.real**2 + dets.imag**2), 0.0, None))
    live = weights > 1e-14
    w = np.where(live, weights, 1.0)
    lams = np.stack(((w + gap) / (2.0 * w), (w - gap) / (2.0 * w)), axis=-1)
    values = _entropy_rows(lams.reshape(-1, 2), params).reshape(weights.shape)
    return np.sum(np.where(live, weights * values, 0.0), axis=0).reshape(batch, n_points)


def _bfgs_restarts(
    values_and_gradients: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, bool]:
    """Minimise from every row of ``x`` with BFGS and Armijo backtracking.

    ``values_and_gradients`` maps a ``(batch, n)`` array of points to their
    values and gradients.  Each call evaluates one trial point per restart
    still open, whether that restart starts an iteration or halves the step
    of one that fell short, so no restart waits while others backtrack.
    Before its first BFGS update, and after each reset to steepest descent,
    a restart's identity inverse Hessian is scaled by ``s.y / y.y``
    (Shanno-Phua).  A restart stops once its step, after backtracking, is
    at most ``_STEP_TOL`` in every coordinate, or once an accepted step gains
    no more than ``_GAIN_TOL``.  ``x`` is updated in place; returns the final
    values and whether every restart stopped within ``max_iter`` accepted
    iterations.
    """
    n_restarts, n = x.shape
    f, g = values_and_gradients(x)
    inv_hess = np.tile(np.eye(n), (n_restarts, 1, 1))
    unscaled = np.ones(n_restarts, dtype=bool)  # inverse Hessian is still the plain identity
    direction, slope, scale = np.empty_like(x), np.empty(n_restarts), np.ones(n_restarts)
    iterations = np.zeros(n_restarts, dtype=int)
    is_open = np.full(n_restarts, max_iter > 0)
    capped = max_iter <= 0
    new = np.arange(n_restarts)  # restarts that start an iteration with the next trial
    while True:
        if new.size:
            d = -np.einsum("aij,aj->ai", inv_hess[new], g[new])
            sl = np.einsum("ai,ai->a", g[new], d)
            uphill = sl >= 0.0
            if uphill.any():  # stale curvature estimate: restart from steepest descent
                inv_hess[new[uphill]] = np.eye(n)
                unscaled[new[uphill]] = True
                d[uphill] = -g[new[uphill]]
                sl[uphill] = -np.einsum("ai,ai->a", d[uphill], d[uphill])
            direction[new], slope[new], scale[new] = d, sl, 1.0

        trying = np.flatnonzero(is_open)
        step = scale[trying, None] * direction[trying]
        big = np.max(np.abs(step), axis=1) > _STEP_TOL
        if not big.all():
            is_open[trying[~big]] = False
            trying, step = trying[big], step[big]
        if not trying.size:
            return f, not capped
        f_new, g_new = values_and_gradients(x[trying] + step)
        f_old = f[trying]
        # strict decrease too: near the minimum the Armijo margin rounds away
        ok = (f_new <= f_old + _ARMIJO * scale[trying] * slope[trying]) & (f_new < f_old)
        scale[trying[~ok]] *= _BACKTRACK
        new, s, f_new, g_new, f_old = trying[ok], step[ok], f_new[ok], g_new[ok], f_old[ok]
        y = g_new - g[new]
        sy = np.einsum("ai,ai->a", s, y)
        yy = np.einsum("ai,ai->a", y, y)
        # BFGS update of the inverse Hessian where the curvature condition holds
        curved = sy > 1e-8 * np.sqrt(np.einsum("ai,ai->a", s, s) * yy)
        if curved.any():
            upd, s, y, sy, yy = new[curved], s[curved], y[curved], sy[curved], yy[curved]
            h = inv_hess[upd]
            first = unscaled[upd]  # Shanno-Phua: start from the identity times s.y / y.y
            h[first] *= (sy[first] / yy[first])[:, None, None]
            unscaled[upd] = False
            hy = np.einsum("aij,aj->ai", h, y)
            hys = hy[:, :, None] * s[:, None, :]
            inv_hess[upd] = (
                h
                + ((sy + np.einsum("ai,ai->a", y, hy)) / sy**2)[:, None, None]
                * (s[:, :, None] * s[:, None, :])
                - (hys + hys.transpose(0, 2, 1)) / sy[:, None, None]
            )
        x[new] += step[ok]
        f[new], g[new] = f_new, g_new
        iterations[new] += 1
        moving = f_old - f_new > _GAIN_TOL
        at_cap = iterations[new] >= max_iter
        capped |= bool((moving & at_cap).any())
        is_open[new[~moving | at_cap]] = False
        new = new[moving & ~at_cap]


def convex_roof_ue_rank2(
    rho: DensityMatrix,
    params: UEParams,
    decomposition_size: int = 4,
    *,
    restarts: int = 20,
    rng: Optional[Union[int, np.random.Generator]] = None,
    max_sweeps: int = 4000,
) -> float:
    """Numerically minimise the average pure-state unified entanglement.

    Searches over pure-state decompositions of a rank-<=-2 two-subsystem
    density matrix with up to ``decomposition_size`` elements, parametrised
    by Givens angles acting on the eigenvector weights.  Each restart is a
    BFGS quasi-Newton descent with Armijo backtracking on central-difference
    gradients; its identity inverse Hessian is scaled by ``s.y / y.y``
    before its first update and after each reset to steepest descent
    (Shanno-Phua).  Each objective evaluation is one batched call holding
    one trial point, with its probe points, per restart still searching.
    Every restart keeps its own schedule: a restart that halves its step
    shares the call with restarts that start their next iteration, so
    none waits for another.  ``restarts`` restarts start from angles drawn
    uniformly from ``rng`` (seed or generator), so a fixed seed reproduces
    the result, and one more from the eigendecomposition (all angles zero),
    a stationary point on GW two-site reductions.

    A restart stops once the step it would take, after backtracking, is at
    most 1e-10 in every angle, or once an iteration lowers its value by no
    more than 1e-12.  ``max_sweeps`` caps each restart's accepted
    quasi-Newton iterations; a ``RuntimeWarning`` is emitted if any restart
    is still moving there, and the best value reached so far is returned.
    The average entanglement of each candidate decomposition is computed
    from reduced spectra directly, independent of the analytic concurrence
    map this oracle is typically used to check.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if len(rho.dims) != 2:
        raise ValueError(f"need a two-subsystem state, got dims {rho.dims}")
    d1, d2 = rho.dims
    evals, vecs = np.linalg.eigh(rho.entries)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    vecs = vecs[:, order]
    rank = int(np.sum(evals > _RANK_TOL))
    if rank > 2:
        raise ValueError(f"state rank {rank} exceeds 2 (third eigenvalue {evals[2]:.3e})")
    r = max(rank, 1)

    source = (vecs[:, :r] * np.sqrt(evals[:r])[None, :]).T.reshape(r, d1, d2)
    if r == 1:
        spectrum = np.linalg.svd(source[0], compute_uv=False) ** 2
        return float(_entropy_rows(spectrum / np.sum(spectrum), params)[0])

    # every decomposition state must stay inside a 2x2 effective support;
    # rewriting the source in that support's local bases keeps every
    # member's Schmidt spectrum and reduces it to a 2x2 determinant
    left, col_sv, _ = np.linalg.svd(np.hstack(source))
    _, row_sv, right = np.linalg.svd(np.vstack(source))
    if (col_sv[2:] > _RANK_TOL).any() or (row_sv[2:] > _RANK_TOL).any():
        raise ValueError("effective support is not 2x2")
    compact = np.zeros((r, 2, 2), dtype=np.complex128)
    compact[:, : min(d1, 2), : min(d2, 2)] = left[:, :2].conj().T @ source @ right[:2].conj().T
    compact = compact.reshape(r, 4)

    m = int(decomposition_size)
    if m < r:
        raise ValueError(f"decomposition size {m} below state rank {r}")

    n_angles = m * (m - 1) + (r - 1)

    def values_and_gradients(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals = _probe_values(x, compact, m, params)
        grads = (vals[:, 1 : n_angles + 1] - vals[:, n_angles + 1 :]) / (2.0 * _FD_STEP)
        return vals[:, 0], grads

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    starts = np.vstack(
        (np.zeros(n_angles), gen.uniform(0.0, 2.0 * math.pi, size=(restarts, n_angles)))
    )
    values, converged = _bfgs_restarts(values_and_gradients, starts, max_sweeps)
    if not converged:
        warnings.warn(
            "decomposition search hit the sweep cap before reaching step tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.min(values))
