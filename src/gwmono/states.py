"""State construction and dense reduction for generalized W-class qudit systems.

A generalized W-class (GW) state on ``n`` qudits of local dimension ``d`` is a
normalised superposition of single-site excitations: site ``s`` raised to
level ``i`` (``1 <= i <= d-1``) with amplitude ``coeffs[s-1, i-1]``, every
other site in ``|0>``.  The vacuum-extended (GWV) variant coherently mixes in
the all-zero ket: ``sqrt(p) |W> + sqrt(1-p) |0...0>``.  Both are one type,
:class:`GWState`, whose ``vacuum_weight`` is ``p`` (1 for a GW state).

Sites are numbered 1..n throughout the public API.  Dense vectors use
big-endian site ordering: the flat index of ``|x1 x2 ... xn>`` is
``x1*d^(n-1) + x2*d^(n-2) + ... + xn``.

Everything here is immutable after construction and all operations are pure
functions, so concurrent use needs no locking.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
from dataclasses import dataclass, replace
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


@dataclass(frozen=True, eq=False)
class GWState:
    """Single-excitation qudit state with amplitude table ``coeffs[site, level-1]``.

    ``vacuum_weight`` is the GW weight ``p`` of the GWV state
    ``sqrt(p) |W> + sqrt(1-p) |0...0>``; ``p = 1`` (the default) means no
    vacuum admixture.  States compare and hash by value.
    """

    n: int
    d: int
    coeffs: np.ndarray
    vacuum_weight: float = 1.0

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
        p = float(self.vacuum_weight)
        if not 0.0 <= p <= 1.0:  # also false for nan
            raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
        object.__setattr__(self, "coeffs", _readonly(c))
        object.__setattr__(self, "vacuum_weight", p)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.n == other.n
            and self.d == other.d
            and self.vacuum_weight == other.vacuum_weight
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which __eq__ treats as equal
        return hash((self.n, self.d, self.vacuum_weight, (self.coeffs + 0.0).tobytes()))

    @functools.cached_property
    def site_weights(self) -> np.ndarray:
        """Per-site excitation weight ``x_s**2 = sum_i |a_si|**2`` (length n, read-only)."""
        weights = np.sum(np.abs(self.coeffs) ** 2, axis=1)
        weights.setflags(write=False)
        return weights


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

    @functools.cached_property
    def _w_form(self) -> tuple[tuple[np.ndarray, ...], float]:
        """Per-site single-excitation amplitudes and the vacuum-plus-single-excitation weight.

        Entry ``t`` of the first item holds site ``t`` (0-based) at levels
        1.. with every other site at 0, as a read-only view of ``amps``.  The
        weight sums the vacuum first, then site by site.  ``amps`` is
        read-only, so one evaluation per vector stays valid.
        """
        n = self.n_sites
        tensor = self.amps.reshape(self.dims)
        excitations = tuple(tensor[_excitation_slot(n, t)] for t in range(n))
        weight = sum(
            (float((np.abs(e) ** 2).sum()) for e in excitations),
            abs(complex(self.amps[0])) ** 2,
        )
        return excitations, weight

    @functools.cached_property
    def _block_table(self) -> dict:
        """Per-block data of the concurrence oracle, keyed by the block's sorted 0-based sites.

        ``gwmono.concurrence`` fills it on a block's first use, from
        ``_w_form``, so each block is built once per vector.  Two threads that
        miss at once build equal entries, and either may stay.
        """
        return {}


@dataclass(frozen=True)
class DensityMatrix:
    """Dense Hermitian unit-trace PSD matrix over subsystems with dimensions ``dims``.

    A two-qubit matrix (``dims == (2, 2)``) keeps its ``np.linalg.eigh``
    decomposition, which serves both the PSD test here and
    ``wootters_concurrence``; other shapes test with eigenvalues alone.
    """

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
        if np.abs(m - m.conj().T).max() > _HERMITICITY_TOL:
            raise ValueError("matrix is not Hermitian within tolerance")
        tr = complex(m.trace())
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ValueError(f"trace must be 1, got {tr}")
        entries = _readonly(m)
        if dims == (2, 2):
            evals, vecs = np.linalg.eigh(entries)  # eigenvalues ascending
            evals.setflags(write=False)
            vecs.setflags(write=False)
            object.__setattr__(self, "_eigh", (evals, vecs))
            smallest = float(evals[0])
        else:
            smallest = float(np.min(np.linalg.eigvalsh(m)))
        if smallest < -_EIGENVALUE_TOL:
            raise ValueError("matrix has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", entries)

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


def make_gwv_state(gw: GWState, p: float) -> GWState:
    """Superpose ``gw`` (weight ``sqrt(p)``) with the vacuum (weight ``sqrt(1-p)``)."""
    return replace(gw, vacuum_weight=p)


def uniform_w_state(n: int, d: int = 2) -> GWState:
    """Uniform W state: every single-excitation amplitude equal to ``1/sqrt(n(d-1))``."""
    if n < 2 or d < 2:
        raise ValueError(f"need n >= 2 and d >= 2, got n={n}, d={d}")
    table = np.full((n, d - 1), 1.0 / math.sqrt(n * (d - 1)), dtype=np.complex128)
    return GWState(n=n, d=d, coeffs=table)


def _require_gw(state: GWState) -> None:
    """Raise ``TypeError`` unless ``state`` is a :class:`GWState`."""
    if not isinstance(state, GWState):
        raise TypeError(f"expected GWState, got {type(state).__name__}")


@functools.lru_cache(maxsize=1024)
def _excitation_slot(n_sites: int, site0: int) -> tuple:
    """Index of site ``site0`` (0-based) at levels 1.., all others at 0, in a per-site tensor.

    Memoised: every dense build and W-form reads ``n`` of these.
    """
    return tuple(slice(1, None) if s == site0 else 0 for s in range(n_sites))


def to_state_vector(state: GWState) -> PureStateVector:
    """Materialise the dense amplitude vector of a GW or GWV state.

    Raises ``ValueError`` when the vector would hold more than
    ``AMPLITUDE_CAP`` amplitudes.
    """
    _require_gw(state)
    n, d, p = state.n, state.d, state.vacuum_weight
    if d**n > AMPLITUDE_CAP:  # d**n itself may have too many digits to print
        raise ValueError(
            f"dense vector would need {d}^{n} amplitudes, above the cap of {AMPLITUDE_CAP}"
        )
    amps = np.zeros((d,) * n, dtype=np.complex128)
    scale = math.sqrt(p)
    for s in range(n):
        amps[_excitation_slot(n, s)] = scale * state.coeffs[s]
    amps[(0,) * n] = math.sqrt(max(0.0, 1.0 - p))
    return PureStateVector(dims=(d,) * n, amps=amps)


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


def load_state_json(source: Union[str, Path, dict]) -> GWState:
    """Load a state from the JSON schema ``{n, d, coeffs: [[re, im], ...], vacuum_weight?}``.

    ``coeffs`` lists the ``n*(d-1)`` amplitudes site-major: site 1 levels
    1..d-1, then site 2, and so on.
    """
    if isinstance(source, dict):
        payload = source
    else:
        payload = json.loads(Path(source).read_text())
    try:
        n = operator.index(payload["n"])  # an integer, not a float or a numeric string
        d = operator.index(payload["d"])
        raw = list(payload["coeffs"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state JSON: {exc}") from exc
    if len(raw) != n * (d - 1):
        raise ValueError(
            f"expected {n * (d - 1)} coefficient entries for n={n}, d={d}, got {len(raw)}"
        )
    try:
        pairs = [(_json_number(re, "each part"), _json_number(im, "each part")) for re, im in raw]
        flat = np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"coefficients must be [re, im] pairs: {exc}") from exc
    table = flat.reshape(n, d - 1)
    # a table dumped from a normalised state has a norm within a few ulps of
    # 1; dividing by it would move last bits, so such a table is taken as is
    if abs(float(np.linalg.norm(table)) - 1.0) <= 4 * np.finfo(float).eps:
        gw = GWState(n=n, d=d, coeffs=table)
    else:
        gw = make_gw_state(n, d, table)
    if "vacuum_weight" in payload and payload["vacuum_weight"] is not None:
        return make_gwv_state(gw, _json_number(payload["vacuum_weight"], "vacuum_weight"))
    return gw


def _json_number(value: object, name: str) -> float:
    """``value`` as a float if it is a JSON number; strings and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return float(value)
