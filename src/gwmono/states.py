"""State construction and dense reduction for generalized W-class qudit systems.

A generalized W-class (GW) state on ``n`` qudits of local dimension ``d`` is a
normalised superposition of single-site excitations: site ``s`` raised to
level ``i`` (``1 <= i <= d-1``) with amplitude ``coeffs[s-1, i-1]``, every
other site in ``|0>``.  The vacuum-extended (GWV) variant coherently mixes in
the all-zero ket: ``sqrt(p) |W> + sqrt(1-p) |0...0>``.

Sites are numbered 1..n throughout the public API.  Dense vectors use
big-endian site ordering: the flat index of ``|x1 x2 ... xn>`` is
``x1*d^(n-1) + x2*d^(n-2) + ... + xn``.

Everything here is immutable after construction and all operations are pure
functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

#: Largest dense vector `to_state_vector` will materialise.
AMPLITUDE_CAP = 2**24

#: Inputs whose norm deviates by at most this much are silently renormalised.
NORM_WINDOW = 1e-9

_STATE_NORM_TOL = 1e-12
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_TOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GWState:
    """Single-excitation qudit state with amplitude table ``coeffs[site, level-1]``."""

    n: int
    d: int
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 2 or self.d < 2:
            raise ValueError(f"need n >= 2 and d >= 2, got n={self.n}, d={self.d}")
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.n, self.d - 1):
            raise ValueError(
                f"coefficient table must have shape ({self.n}, {self.d - 1}), got {c.shape}"
            )
        norm = float(np.linalg.norm(c))
        if not math.isfinite(norm):
            raise ValueError(f"coefficient norm {norm} is not finite")
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"coefficients are not normalised: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "coeffs", _readonly(c))

    @property
    def site_weights(self) -> np.ndarray:
        """Per-site excitation weight ``x_s**2 = sum_i |a_si|**2`` (length n)."""
        return np.sum(np.abs(self.coeffs) ** 2, axis=1)


@dataclass(frozen=True)
class GWVState:
    """Coherent superposition of a GW state (weight ``sqrt(p)``) and the vacuum."""

    gw: GWState
    vacuum_weight: float  # p in [0, 1]; p = 1 means no vacuum admixture

    def __post_init__(self) -> None:
        p = float(self.vacuum_weight)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
        object.__setattr__(self, "vacuum_weight", p)

    @property
    def n(self) -> int:
        return self.gw.n

    @property
    def d(self) -> int:
        return self.gw.d


@dataclass(frozen=True)
class PureStateVector:
    """Dense normalised state vector over subsystems with dimensions ``dims``."""

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"every local dimension must be >= 2, got {dims}")
        a = np.asarray(self.amps, dtype=np.complex128).ravel()
        if a.size != math.prod(dims):
            raise ValueError(f"amplitude count {a.size} does not match dims {dims}")
        norm = float(np.linalg.norm(a))
        if not math.isfinite(norm):
            raise ValueError(f"vector norm {norm} is not finite")
        if abs(norm - 1.0) > _STATE_NORM_TOL:
            raise ValueError(f"vector is not normalised: |norm - 1| = {abs(norm - 1.0):.3e}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", _readonly(a))

    @property
    def n_sites(self) -> int:
        return len(self.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace PSD matrix over subsystems with dimensions ``dims``."""

    dims: tuple[int, ...]
    entries: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        m = np.asarray(self.entries, dtype=np.complex128)
        dim = math.prod(dims)
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} does not match dims {dims}")
        if not np.isfinite(m).all():
            raise ValueError("matrix entries are not all finite")
        if np.max(np.abs(m - m.conj().T)) > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        if float(np.min(np.linalg.eigvalsh(m))) < -_EIGENVALUE_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", _readonly(m))

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def spectrum(self) -> np.ndarray:
        """Eigenvalues, ascending, clipped at zero."""
        return np.clip(np.linalg.eigvalsh(self.entries), 0.0, None)


@dataclass(frozen=True)
class Partition:
    """Ordered list of non-empty, pairwise-disjoint blocks of site indices (1-based)."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        norm_blocks = []
        seen: set[int] = set()
        for block in self.blocks:
            sites = tuple(sorted(int(s) for s in block))
            if not sites:
                raise ValueError("partition blocks must be non-empty")
            if any(s < 1 for s in sites):
                raise ValueError(f"site indices are 1-based, got {sites}")
            if len(set(sites)) != len(sites) or seen & set(sites):
                raise ValueError("partition blocks must be pairwise disjoint")
            seen.update(sites)
            norm_blocks.append(sites)
        if not norm_blocks:
            raise ValueError("partition needs at least one block")
        object.__setattr__(self, "blocks", tuple(norm_blocks))

    @classmethod
    def singletons(cls, sites: Iterable[int]) -> "Partition":
        return cls(tuple((int(s),) for s in sites))

    @property
    def r(self) -> int:
        return len(self.blocks)

    def covered_sites(self) -> tuple[int, ...]:
        return tuple(sorted(s for block in self.blocks for s in block))

    def split_focus(
        self, focus: int
    ) -> tuple[tuple[int, ...], list[tuple[int, ...]], tuple[int, ...]]:
        """Focus block, the other blocks in order, and the sites of the other blocks.

        ``focus`` is a 0-based block index; the partition needs at least two
        blocks.
        """
        if self.r < 2:
            raise ValueError("need at least two blocks")
        if not 0 <= focus < self.r:
            raise ValueError(f"focus index {focus} out of range for {self.r} blocks")
        others = [b for i, b in enumerate(self.blocks) if i != focus]
        return self.blocks[focus], others, tuple(s for b in others for s in b)


def make_gw_state(
    n: int,
    d: int,
    coeffs: Union[np.ndarray, Sequence[complex], Sequence[Sequence[complex]]],
    *,
    renormalize: bool = False,
) -> GWState:
    """Build a GW state from a site-major coefficient table.

    ``coeffs`` is either an ``(n, d-1)`` table or, for the qubit case
    ``d = 2``, a flat length-``n`` sequence.  Inputs within ``NORM_WINDOW`` of
    unit norm are silently renormalised; larger deviations are rejected
    unless ``renormalize=True`` is passed explicitly.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.ndim == 1 and d == 2:
        c = c.reshape(-1, 1)
    if c.shape != (n, d - 1):
        raise ValueError(f"expected coefficient shape ({n}, {d - 1}), got {c.shape}")
    norm = float(np.linalg.norm(c))
    if not math.isfinite(norm):
        raise ValueError(f"coefficient norm {norm} is not finite")
    if norm == 0.0:
        raise ValueError("coefficient table is the zero vector; not a state")
    if abs(norm - 1.0) > NORM_WINDOW and not renormalize:
        raise ValueError(
            f"coefficient norm {norm!r} deviates from 1 by more than {NORM_WINDOW}; "
            "pass renormalize=True to accept"
        )
    return GWState(n=int(n), d=int(d), coeffs=c / norm)


def make_gwv_state(gw: GWState, p: float) -> GWVState:
    """Superpose ``gw`` (weight ``sqrt(p)``) with the vacuum (weight ``sqrt(1-p)``)."""
    return GWVState(gw=gw, vacuum_weight=p)


def uniform_w_state(n: int, d: int = 2) -> GWState:
    """Uniform W state: every single-excitation amplitude equal to ``1/sqrt(n(d-1))``."""
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    table = np.full((n, d - 1), 1.0 / math.sqrt(n * (d - 1)), dtype=np.complex128)
    return GWState(n=n, d=d, coeffs=table)


def to_state_vector(
    state: Union[GWState, GWVState], *, amplitude_cap: int = AMPLITUDE_CAP
) -> PureStateVector:
    """Materialise the dense amplitude vector of a GW or GWV state."""
    if isinstance(state, GWVState):
        gw, p = state.gw, state.vacuum_weight
    elif isinstance(state, GWState):
        gw, p = state, 1.0
    else:
        raise TypeError(f"expected GWState or GWVState, got {type(state).__name__}")

    size = gw.d**gw.n
    if size > amplitude_cap:
        raise ValueError(
            f"dense vector would need {size} amplitudes, above the cap of {amplitude_cap}"
        )
    amps = np.zeros(size, dtype=np.complex128)
    scale = math.sqrt(p)
    # the flat index of "site s at level i, all others 0" is i * d^(n-s)
    for s in range(gw.n):
        stride = gw.d ** (gw.n - 1 - s)
        for i in range(1, gw.d):
            amps[i * stride] = scale * gw.coeffs[s, i - 1]
    amps[0] = math.sqrt(max(0.0, 1.0 - p))
    return PureStateVector(dims=(gw.d,) * gw.n, amps=amps)


def reduce(psi: PureStateVector, keep: Iterable[int]) -> DensityMatrix:
    """Partial trace of ``|psi><psi|`` onto the sites in ``keep`` (1-based).

    The subsystem order of the result follows the sorted order of ``keep``.
    """
    keep_sorted = sorted({int(k) for k in keep})
    n = psi.n_sites
    if not keep_sorted:
        raise ValueError("keep set must be non-empty")
    if keep_sorted[0] < 1 or keep_sorted[-1] > n:
        raise ValueError(f"keep sites {keep_sorted} out of range 1..{n}")

    mat = _kept_by_traced(psi, [k - 1 for k in keep_sorted])
    rho = mat @ mat.conj().T
    return DensityMatrix(dims=tuple(psi.dims[k - 1] for k in keep_sorted), entries=rho)


def _kept_by_traced(psi: PureStateVector, keep0: Sequence[int]) -> np.ndarray:
    """Amplitudes of ``psi`` as a (kept x traced) matrix.

    ``keep0`` lists the kept sites 0-based; its order is the row order.  The
    traced sites follow in increasing order.
    """
    kept = set(keep0)
    rest0 = [i for i in range(psi.n_sites) if i not in kept]
    return np.transpose(psi.amps.reshape(psi.dims), list(keep0) + rest0).reshape(
        math.prod(psi.dims[i] for i in keep0), -1
    )


def _schmidt_spectrum(psi: PureStateVector, side_a: Iterable[int]) -> np.ndarray:
    """Squared Schmidt coefficients of ``psi`` across the cut ``side_a | rest``.

    ``side_a`` is a proper, non-empty subset of the sites (1-based).
    """
    side = sorted({int(s) for s in side_a})
    n = psi.n_sites
    if not side or len(side) >= n:
        raise ValueError("side A must be a proper non-empty subset of the sites")
    if side[0] < 1 or side[-1] > n:
        raise ValueError(f"sites {side} out of range 1..{n}")
    return np.linalg.svd(_kept_by_traced(psi, [s - 1 for s in side]), compute_uv=False) ** 2


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)``; equals the squared Frobenius norm for Hermitian input."""
    return float(np.sum(np.abs(rho.entries) ** 2))


def load_state_json(source: Union[str, Path, dict]) -> Union[GWState, GWVState]:
    """Load a state from the JSON schema ``{n, d, coeffs: [[re, im], ...], vacuum_weight?}``.

    ``coeffs`` lists the ``n*(d-1)`` amplitudes site-major: site 1 levels
    1..d-1, then site 2, and so on.
    """
    if isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(Path(source).read_text())
    try:
        n = int(payload["n"])
        d = int(payload["d"])
        raw = list(payload["coeffs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    if len(raw) != n * (d - 1):
        raise ValueError(
            f"expected {n * (d - 1)} coefficient entries for n={n}, d={d}, got {len(raw)}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in raw], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"coefficients must be [re, im] pairs: {exc}") from exc
    gw = make_gw_state(n, d, flat.reshape(n, d - 1))
    if "vacuum_weight" in payload and payload["vacuum_weight"] is not None:
        return make_gwv_state(gw, float(payload["vacuum_weight"]))
    return gw
