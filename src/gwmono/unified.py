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
from typing import Iterable, Optional, Union

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


def _entropy_slope(lam_lo: np.ndarray, lam_hi: np.ndarray, params: UEParams) -> np.ndarray:
    """``dE/dlam_lo`` of a two-level spectrum ``(lam_hi, lam_lo)``, ``0 < lam_lo <= lam_hi``.

    The derivative of :func:`_entropy_rows` along ``lam_hi = 1 - lam_lo``,
    in the same four regimes.
    """
    if params.regime == "q_near_1":
        return np.log(lam_hi / lam_lo)
    q = params.q
    slope = q * (lam_lo ** (q - 1.0) - lam_hi ** (q - 1.0)) / (1.0 - q)
    if params.regime == "s_near_1":
        return slope
    s = 0.0 if params.regime == "s_near_0" else params.s
    return slope * (lam_lo**q + lam_hi**q) ** (s - 1.0)


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


_ARMIJO = 1e-4  # fraction of the predicted decrease a step must realise
_BACKTRACK = 0.5  # step shrink factor when a step falls short
_BB_MIN, _BB_MAX = 1e-10, 1e10  # Barzilai-Borwein step lengths are clipped to this range
_GRAD_TOL = 1e-11  # a gradient norm at most this times the start value ends the restart
_GAIN_TOL = 1e-15  # an accepted step gaining at most this times the start value ends it too
_STEP_TOL = 1e-10  # a step no longer than this ends the restart
_STALL_CALLS = 50  # the solve ends once the best value has gained at most
_STALL_TOL = 1e-9  # this fraction of itself over the last _STALL_CALLS calls


def _decomposition_values(
    u: np.ndarray, source: np.ndarray, params: UEParams
) -> tuple[np.ndarray, np.ndarray]:
    """Average member entanglement of each isometry in ``u``, with its gradient.

    ``u`` is a ``(batch, m, r)`` stack and ``source`` the ``(r, 4)`` stack of
    weighted eigenvectors written as flattened 2x2 matrices on the effective
    support.  Member ``k`` is ``M_k = sum_j u[k, j] source[j]``, with weight
    ``w = |M_k|^2``, determinant ``D``, ``t = |D|^2`` and ``g = sqrt(w^2 -
    4 t)``; its Schmidt spectrum is ``((w + g) / 2w, 2 t / (w (w + g)))``,
    so the small eigenvalue does not cancel.  Returns the values ``sum_k w_k
    E(lam_k)`` and their Wirtinger gradients ``G`` with respect to
    ``conj(u)``: along a direction ``V`` the value changes at the rate
    ``2 Re <G, V>``.
    """
    members = u @ source
    w = np.sum(members.real**2 + members.imag**2, axis=-1)
    det = members[..., 0] * members[..., 3] - members[..., 1] * members[..., 2]
    t = det.real**2 + det.imag**2
    gap = np.sqrt(np.clip(w**2 - 4.0 * t, 0.0, None))
    live = w > 0.0
    w = np.where(live, w, 1.0)
    lam_hi = (w + gap) / (2.0 * w)
    lam_lo = 2.0 * t / (w * (w + gap))
    spectra = np.stack((lam_hi, lam_lo), axis=-1).reshape(-1, 2)
    entropy = np.where(live, _entropy_rows(spectra, params).reshape(w.shape), 0.0)
    # dF/dt = e / g and dF/dw = E - 2 t dF/dt / w with e = dE/dlam_lo; the
    # t term is taken as 0 where t = 0 or g = 0
    smooth = (t > 0.0) & (gap > 0.0)
    d_t = np.zeros_like(t)
    d_t[smooth] = _entropy_slope(lam_lo[smooth], lam_hi[smooth], params) / gap[smooth]
    d_w = entropy - 2.0 * t * d_t / w
    cofactors = np.stack(
        (members[..., 3], -members[..., 2], -members[..., 1], members[..., 0]), axis=-1
    )
    grads = d_w[..., None] * members + (d_t * det)[..., None] * cofactors.conj()
    return np.sum(w * entropy, axis=-1), grads @ source.conj().T


def _orthonormal(x: np.ndarray) -> np.ndarray:
    """Q factor of each matrix in ``x``, with the phases of R's diagonal moved into Q."""
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _tangent(u: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Project gradients onto the tangent space of the isometries: ``G - U sym(U^H G)``."""
    inner = np.conj(np.swapaxes(u, -1, -2)) @ grads
    return grads - u @ (inner + np.conj(np.swapaxes(inner, -1, -2))) / 2.0


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
    density matrix with up to ``m = decomposition_size`` elements.  A
    decomposition is an isometry ``U`` (``m x r``, ``U^H U = I``) acting on
    the ``r`` weighted eigenvectors; member ``k`` is ``M_k = sum_j U_kj S_j``
    on the 2x2 effective support, and the value is ``sum_k w_k E(lam_k)``
    with ``w_k = |M_k|^2`` and the Schmidt spectrum ``lam_k`` from ``w_k`` and
    ``|det M_k|^2``, computed from reduced spectra directly, independent of
    the analytic concurrence map this oracle is typically used to check.

    The gradient is closed-form (Wirtinger derivatives of ``w_k`` and
    ``|det M_k|^2`` with the slope of the entropy in each regime), projected
    onto the tangent space ``G - U sym(U^H G)``; each step moves against it
    and retracts onto the isometries by QR (Riemannian descent on the
    Stiefel manifold; Wen & Yin, Math. Program. 142, 397 (2013)).  Step
    lengths are Barzilai-Borwein, long and short in turn, clipped to
    [1e-10, 1e10]; a step is accepted when it realises 1e-4 of its predicted
    decrease and lowers the value strictly, and is halved otherwise.  All
    restarts share each batched evaluation, each on its own schedule.
    ``restarts`` restarts start from Haar-random isometries (QR of a complex
    Gaussian drawn from ``rng``, seed or generator, so a fixed seed
    reproduces the result), and one more from the eigendecomposition
    ``U = [I; 0]``, a stationary point on GW two-site reductions.

    The stops are relative to ``scale``, the eigendecomposition's value,
    an upper bound on the roof.  A restart ends once its gradient norm is at
    most 1e-11 ``scale``, once an accepted step gains at most 1e-15
    ``scale``, or once its step is at most 1e-10 long.  The solve ends when
    every restart has, or once the best value has gained at most 1e-9 of
    itself over the last 50 evaluations, which only cuts slow crawls toward
    the non-smooth minima at ``q <= 1/2``.  ``max_sweeps`` caps each
    restart's accepted iterations; a ``RuntimeWarning`` is emitted if any
    restart is still moving there, and the best value reached so far is
    returned.
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

    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    gauss = gen.standard_normal((2, restarts, m, r))
    u = np.concatenate((np.eye(m, r)[None], _orthonormal(gauss[0] + 1j * gauss[1])))
    values, grads = _decomposition_values(u, compact, params)
    grads = _tangent(u, grads)
    norms = np.linalg.norm(grads, axis=(1, 2))
    scale = values[0]
    steps = 1.0 / np.clip(norms, _BB_MIN, _BB_MAX)  # a first step of unit length
    iterations = np.zeros(len(u), dtype=int)
    is_open = (norms > _GRAD_TOL * scale) & (max_sweeps > 0)
    capped = max_sweeps <= 0
    best = [np.min(values)]  # the best value after each evaluation
    while True:
        trying = np.flatnonzero(is_open)
        short = steps[trying] * norms[trying] <= _STEP_TOL
        is_open[trying[short]] = False
        trying = trying[~short]
        if not trying.size:
            break
        trial = _orthonormal(u[trying] - steps[trying, None, None] * grads[trying])
        trial_values, trial_grads = _decomposition_values(trial, compact, params)
        gains = values[trying] - trial_values
        # strict decrease too: near the minimum the Armijo margin rounds away
        ok = (gains >= 2.0 * _ARMIJO * steps[trying] * norms[trying] ** 2) & (gains > 0.0)
        steps[trying[~ok]] *= _BACKTRACK
        new, gains, trial = trying[ok], gains[ok], trial[ok]
        new_grads = _tangent(trial, trial_grads[ok])
        ds, dg = trial - u[new], new_grads - grads[new]
        ss = np.sum(ds.real**2 + ds.imag**2, axis=(1, 2))
        sg = np.maximum(np.abs(np.sum((ds.conj() * dg).real, axis=(1, 2))), 1e-300)
        gg = np.maximum(np.sum(dg.real**2 + dg.imag**2, axis=(1, 2)), 1e-300)
        iterations[new] += 1
        bb = np.where(iterations[new] % 2 == 1, ss / sg, sg / gg)  # long, then short
        steps[new] = np.clip(bb, _BB_MIN, _BB_MAX)
        u[new], values[new], grads[new] = trial, trial_values[ok], new_grads
        norms[new] = np.linalg.norm(new_grads, axis=(1, 2))
        done = (gains <= _GAIN_TOL * scale) | (norms[new] <= _GRAD_TOL * scale)
        at_cap = iterations[new] >= max_sweeps
        capped |= bool((at_cap & ~done).any())
        is_open[new[done | at_cap]] = False
        best.append(np.min(values))
        if len(best) > _STALL_CALLS and best[-1 - _STALL_CALLS] - best[-1] <= _STALL_TOL * best[-1]:
            break
    if capped:
        warnings.warn(
            "decomposition search hit the sweep cap before reaching step tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(np.min(values))
