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


# _f_from_u stays a scalar path beside _entropy_rows: numpy's SIMD pow and log
# differ from the C library's in the last bit (on an AVX-512 Xeon, numpy 2.4.6,
# lam**2.1 in 1,260 and log(lam) in 367 of 20,000 draws), the cancellation in
# power_sum - 1 carries that bit forward (1,235 of 20,000 values differ at
# q = 2.1, s = 1, by up to 7e-10 relative), and the golden outputs of
# reproduce, pre and check come from this path.
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


_ARMIJO = 1e-4  # fraction of the predicted decrease a step must realise
_BACKTRACK = 0.5  # step shrink factor when a step falls short
_BB_MIN, _BB_MAX = 1e-10, 1e10  # Barzilai-Borwein step lengths are clipped to this range
_GRAD_TOL = 1e-11  # a gradient norm at most this times the start value ends the restart
_GAIN_TOL = 1e-15  # an accepted step gaining at most this times the start value ends it too
_STEP_TOL = 1e-10  # a step no longer than this ends the restart
_FLOOR = np.finfo(float).eps  # step * |grad|^2 at most this times the value ends it too
_STALL_CALLS = 50  # the solve ends once the best value has gained at most
_STALL_TOL = 1e-9  # this fraction of itself over the last _STALL_CALLS calls
# the cofactor matrix of a flattened 2x2 matrix (a, b, c, d) is (d, -c, -b, a):
# the matrix reversed, times these signs
_COFACTOR_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])


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

    The entropy ``E`` and its slope ``dE/dlam_lo`` along ``lam_hi = 1 -
    lam_lo`` are evaluated together on the two levels, in the regime of
    ``params`` (the formulas of :func:`unified_entropy`), and share their
    powers or logarithms.
    """
    batch, m, r = u.shape
    members = (u.reshape(-1, r) @ source).reshape(batch, m, 4)
    flat = members.view(np.float64)
    w = np.einsum("bki,bki->bk", flat, flat)
    cofactors = members[..., ::-1] * _COFACTOR_SIGNS
    det = members[..., 0] * cofactors[..., 0] + members[..., 1] * cofactors[..., 1]
    t = det.real**2 + det.imag**2
    gap = np.sqrt(np.maximum(w * w - 4.0 * t, 0.0))
    # a zero member adds nothing to the value or the gradient; any finite
    # spectrum will do for it
    w_safe = np.where(w > 0.0, w, 1.0)
    wide = w_safe + gap
    lam_hi = wide / (2.0 * w_safe)
    two_t = 2.0 * t
    lam_lo = two_t / (w_safe * wide)
    lo_safe = np.where(lam_lo > 0.0, lam_lo, 1.0)
    q = params.q
    regime = params.regime
    if regime == "q_near_1":
        log_hi, log_lo = np.log(lam_hi), np.log(lo_safe)
        entropy = 0.0 - (lam_hi * log_hi + lam_lo * log_lo)
        slope = log_hi - log_lo
    else:
        pow_hi, pow_lo = lam_hi**q, lam_lo**q
        power_sum = pow_hi + pow_lo
        slope = (pow_lo / lo_safe - pow_hi / lam_hi) * (q / (1.0 - q))
        if regime == "s_near_0":
            entropy = np.log(power_sum) / (1.0 - q)
            slope = slope / power_sum
        elif regime == "s_near_1":
            entropy = (power_sum - 1.0) / (1.0 - q)
        else:
            powered = power_sum**params.s
            entropy = (powered - 1.0) / ((1.0 - q) * params.s)
            slope = slope * powered / power_sum
    # dF/dt = e / g and dF/dw = E - 2 t dF/dt / w with e = dE/dlam_lo.  Where
    # t = 0 the slope stays finite and D = 0, so its term drops out; where
    # g = 0 the spectrum is flat, the slope is 0, and dividing by inf says so
    d_t = slope / np.where(gap > 0.0, gap, np.inf)
    d_w = entropy - two_t * d_t / w_safe
    grads = d_w[..., None] * members + (d_t * det)[..., None] * cofactors.conj()
    grads = (grads.reshape(-1, 4) @ source.conj().T).reshape(batch, m, r)
    return (w * entropy).sum(-1), grads


def _re_inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``Re <x_b, y_b>`` for each pair of matrices of two contiguous complex stacks."""
    return np.einsum("bij,bij->b", x.view(np.float64), y.view(np.float64))


def _orthonormal(x: np.ndarray) -> np.ndarray:
    """Q factor of each ``(m, 2)`` matrix in ``x`` whose R has a positive real diagonal.

    Two-column Gram-Schmidt.  The projection runs twice, so the second column
    stays orthogonal to the first to rounding even when a long step has left
    the two nearly parallel.
    """
    first, second = x[..., :1], x[..., 1:]
    first = first / np.sqrt((first.real**2 + first.imag**2).sum(-2, keepdims=True))
    across = first.conj()
    for _ in range(2):
        second = second - first * (across * second).sum(-2, keepdims=True)
    second = second / np.sqrt((second.real**2 + second.imag**2).sum(-2, keepdims=True))
    return np.concatenate((first, second), axis=-1)


def _tangent(u: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Project gradients onto the tangent space of the isometries: ``G - U sym(U^H G)``."""
    inner = u.swapaxes(-1, -2).conj() @ grads
    return grads - u @ (inner + inner.swapaxes(-1, -2).conj()) / 2.0


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
    and retracts onto the isometries by the Q factor of a QR, here
    Gram-Schmidt on the two columns (Riemannian descent on the Stiefel
    manifold; Wen & Yin, Math. Program. 142, 397 (2013)).  Step
    lengths are Barzilai-Borwein, long and short in turn, clipped to
    [1e-10, 1e10]; a step is accepted when it realises 1e-4 of its predicted
    decrease and lowers the value strictly, and is halved otherwise.
    ``restarts`` restarts start from Haar-random isometries (QR of a complex
    Gaussian drawn from ``rng``, seed or generator, so a fixed seed
    reproduces the result), and one more from the eigendecomposition
    ``U = [I; 0]``, a stationary point on GW two-site reductions.

    All open restarts form one batch, each on its own schedule: every
    iteration evaluates one trial per open restart in one kernel call, then
    accepts it or halves the step under one mask over the whole batch.  A
    restart that stops leaves the batch; since accepted steps only lower a
    value, the best value so far is carried as one number, and the arrays
    are compacted only in an iteration where some restart stops.

    The stops are relative to ``scale``, the eigendecomposition's value,
    an upper bound on the roof.  A restart ends once its gradient norm is at
    most 1e-11 ``scale``, once an accepted step gains at most 1e-15
    ``scale``, once its step is at most 1e-10 long, or once ``step |G|^2``
    is at most machine epsilon times its value (the rounding floor).  That
    last stop drops no gain the search could resolve: the decrease the step
    predicts, ``2 step |G|^2``, is then a few rounding units of the value,
    below the rounding error of the value itself, so the strict-decrease
    test can pass only by rounding; and a step is only halved until one is
    accepted, so every later trial predicts less still.  The solve ends
    when every restart has, or once the best value has gained at most 1e-9
    of itself over the last 50 evaluations, which only cuts slow crawls
    toward the non-smooth minima at ``q <= 1/2``.  ``max_sweeps`` caps each
    restart's accepted iterations; a ``RuntimeWarning`` is emitted if any
    restart is still moving there, and the best value reached so far is
    returned.
    """
    if restarts < 1:
        raise ValueError(f"need at least one restart, got {restarts}")
    if len(rho.dims) != 2:
        raise ValueError(f"need a two-subsystem state, got dims {rho.dims}")
    d1, d2 = rho.dims
    evals, vecs = np.linalg.eigh(rho.entries)  # eigenvalues in ascending order
    evals, vecs = np.maximum(evals[::-1], 0.0), vecs[:, ::-1]
    rank = int((evals > _RANK_TOL).sum())
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
    left, col_sv, _ = np.linalg.svd(source.transpose(1, 0, 2).reshape(d1, r * d2))
    _, row_sv, right = np.linalg.svd(source.reshape(r * d1, d2))
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
    norms = np.sqrt(_re_inner(grads, grads))
    scale = values[0]
    steps = 1.0 / np.minimum(np.maximum(norms, _BB_MIN), _BB_MAX)  # a first step of unit length
    iterations = np.zeros(len(u), dtype=int)
    keep = norms > _GRAD_TOL * scale if max_sweeps > 0 else np.zeros(len(u), dtype=bool)
    capped = max_sweeps <= 0
    best = [values.min()]  # the best value after each evaluation
    while True:
        predicted = steps * norms**2  # half the decrease the step predicts
        # at the rounding floor only rounding can pass the strict-decrease test
        keep &= (steps * norms > _STEP_TOL) & (predicted > _FLOOR * np.abs(values))
        if not keep.all():
            if not keep.any():
                break
            u, grads, values, norms = u[keep], grads[keep], values[keep], norms[keep]
            steps, iterations, predicted = steps[keep], iterations[keep], predicted[keep]
        trial = _orthonormal(u - steps[:, None, None] * grads)
        trial_values, trial_grads = _decomposition_values(trial, compact, params)
        gains = values - trial_values
        # strict decrease too: near the minimum the Armijo margin rounds away
        ok = (gains >= 2.0 * _ARMIJO * predicted) & (gains > 0.0)
        trial_grads = _tangent(trial, trial_grads)
        trial_norms = np.sqrt(_re_inner(trial_grads, trial_grads))
        ds, dg = trial - u, trial_grads - grads
        ss, sg, gg = _re_inner(ds, ds), np.abs(_re_inner(ds, dg)), _re_inner(dg, dg)
        iterations += ok
        # long, then short
        bb = np.where(iterations & 1, ss / np.maximum(sg, 1e-300), sg / np.maximum(gg, 1e-300))
        steps *= _BACKTRACK
        np.copyto(steps, np.minimum(np.maximum(bb, _BB_MIN), _BB_MAX), where=ok)
        accepted = ok[:, None, None]
        np.copyto(u, trial, where=accepted)
        np.copyto(grads, trial_grads, where=accepted)
        np.copyto(values, trial_values, where=ok)
        np.copyto(norms, trial_norms, where=ok)
        # only an accepted step can reach the cap, and it stops there
        at_cap = iterations >= max_sweeps
        done = ok & ((gains <= _GAIN_TOL * scale) | (trial_norms <= _GRAD_TOL * scale))
        capped |= bool((at_cap & ~done).any())
        keep = ~(done | at_cap)
        best.append(min(best[-1], values.min()))
        if len(best) > _STALL_CALLS and best[-1 - _STALL_CALLS] - best[-1] <= _STALL_TOL * best[-1]:
            break
    if capped:
        warnings.warn(
            "decomposition search hit the sweep cap before reaching step tolerance",
            RuntimeWarning,
            stacklevel=2,
        )
    return float(best[-1]) + 0.0  # as in _entropy_rows: no -0.0 for a product state
