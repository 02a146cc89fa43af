"""Concurrence of W-class states: exact pure-state values, a two-qubit
mixed-state evaluation, an effective-two-qubit reduction pipeline, and the
published closed-form pair values for uniform W states.

Two independent routes to a block-pair concurrence coexist on purpose:

* ``gw_block_concurrence_oracle`` runs the actual pipeline (partial trace,
  projection onto the two-dimensional local supports, two-qubit mixed-state
  concurrence) and is the verification oracle used everywhere margins are
  asserted.
* ``printed_pair_concurrence_sq`` evaluates the published closed forms for
  the uniform W state.  These do **not** agree with the oracle (see
  ``pair_source_comparison``); they are kept because the reference tables are
  reproducible only from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .states import (
    DensityMatrix,
    Partition,
    PureStateVector,
    _kept_by_traced,
    _schmidt_spectrum,
)

#: Weight outside the single-excitation-plus-vacuum subspace above which a
#: vector is rejected as not W-class.
GW_FORM_TOL = 1e-10

#: A block whose excitation weight is below this is treated as unentangled.
_ZERO_WEIGHT = 1e-24

# (sigma_y (x) sigma_y) in the {00, 01, 10, 11} product basis.
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


class PairSource(str, Enum):
    """Where a block-pair concurrence comes from."""

    PRINTED = "printed"  # published closed forms for the uniform W state
    ORACLE = "oracle"    # reduction + effective-two-qubit pipeline


class PairKind(str, Enum):
    """Pair labels for a two-level block cut (see :class:`BlockCut`)."""

    TOP = "block1-block2"
    FRONT_FRONT = "front1-front2"
    BACK_FRONT = "back1-front2"
    FRONT_BACK = "front1-back2"
    BACK_BACK = "back1-back2"
    SITE_PAIR = "site-site"


@dataclass(frozen=True)
class BlockCut:
    """Two-level cut of sites 1..n: block 1 = 1..m split at ``a``, block 2 = m+1..n split at ``b``.

    Sub-blocks: front1 = 1..a, back1 = a+1..m, front2 = m+1..b, back2 = b+1..n.
    ``back1`` (``back2``) is empty when ``a = m`` (``b = n``).
    """

    n: int
    m: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if not (1 <= self.a <= self.m < self.b <= self.n):
            raise ValueError(
                f"need 1 <= a <= m < b <= n, got a={self.a}, m={self.m}, b={self.b}, n={self.n}"
            )

    @property
    def front1(self) -> tuple[int, ...]:
        return tuple(range(1, self.a + 1))

    @property
    def back1(self) -> tuple[int, ...]:
        return tuple(range(self.a + 1, self.m + 1))

    @property
    def front2(self) -> tuple[int, ...]:
        return tuple(range(self.m + 1, self.b + 1))

    @property
    def back2(self) -> tuple[int, ...]:
        return tuple(range(self.b + 1, self.n + 1))

    @property
    def block1(self) -> tuple[int, ...]:
        return tuple(range(1, self.m + 1))

    @property
    def block2(self) -> tuple[int, ...]:
        return tuple(range(self.m + 1, self.n + 1))

    def pair_blocks(self) -> dict[PairKind, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Site blocks ``(P, Q)`` of every pair kind; the site pair is sites 1 and ``m+1``."""
        return {
            PairKind.TOP: (self.block1, self.block2),
            PairKind.FRONT_FRONT: (self.front1, self.front2),
            PairKind.BACK_FRONT: (self.back1, self.front2),
            PairKind.FRONT_BACK: (self.front1, self.back2),
            PairKind.BACK_BACK: (self.back1, self.back2),
            PairKind.SITE_PAIR: ((1,), (self.m + 1,)),
        }

    def to_partition(self) -> Partition:
        """Partition of the non-empty sub-blocks, block-1 parts first."""
        blocks = [b for b in (self.front1, self.back1, self.front2, self.back2) if b]
        return Partition(tuple(blocks))


def concurrence_pure(psi: PureStateVector, side_a: Iterable[int]) -> float:
    """Bipartite concurrence ``sqrt(2 (1 - tr rho_A^2))`` of a pure state.

    ``side_a`` is a proper, non-empty subset of the sites (1-based).
    """
    schmidt_sq = _schmidt_spectrum(psi, side_a)
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(schmidt_sq**2))))))


def wootters_concurrence(rho: DensityMatrix) -> float:
    """Two-qubit mixed-state concurrence ``max(0, l1 - l2 - l3 - l4)``.

    The ``l_i`` are the decreasing square roots of the eigenvalues of
    ``rho (Y(x)Y) conj(rho) (Y(x)Y)``.  They are computed here as the singular
    values of the symmetric matrix ``D^(1/2) V^T (Y(x)Y) V D^(1/2)`` built in
    the eigenbasis ``rho = V D V*``; this is algebraically the same set but
    keeps the zero eigenvalues of rank-deficient inputs exactly zero instead
    of polluting them with root-finding noise.
    """
    if rho.dims != (2, 2):
        raise ValueError(f"need a two-qubit state with dims (2, 2), got {rho.dims}")
    evals, vecs = np.linalg.eigh(rho.entries)
    root = np.sqrt(np.clip(evals, 0.0, None))
    sym = (vecs.T @ _SPIN_FLIP @ vecs) * root[:, None] * root[None, :]
    lam = np.linalg.svd(sym, compute_uv=False)  # descending
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _single_excitation_table(psi: PureStateVector) -> tuple[complex, list[np.ndarray]]:
    """Vacuum amplitude and per-site excitation amplitudes of a W-class vector.

    Raises ``ValueError`` when the vector carries weight outside the
    single-excitation-plus-vacuum subspace.
    """
    dims = psi.dims
    n = len(dims)
    strides = np.ones(n, dtype=np.int64)
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]

    vac = complex(psi.amps[0])
    site_amps = []
    weight = abs(vac) ** 2
    for t in range(n):
        amps_t = np.array([psi.amps[l * strides[t]] for l in range(1, dims[t])])
        site_amps.append(amps_t)
        weight += float(np.sum(np.abs(amps_t) ** 2))
    if abs(weight - 1.0) > GW_FORM_TOL:
        raise ValueError(
            "vector carries weight outside the single-excitation-plus-vacuum "
            f"subspace (missing {1.0 - weight:.3e}); not a W-class state"
        )
    return vac, site_amps


def _block_excitation_vector(
    block0: list[int], dims: tuple[int, ...], site_amps: list[np.ndarray]
) -> np.ndarray:
    """Unnormalised single-excitation vector of ``block0`` in its local space."""
    block_dims = [dims[t] for t in block0]
    vec = np.zeros(math.prod(block_dims), dtype=np.complex128)
    stride = 1
    strides = [0] * len(block0)
    for i in range(len(block0) - 1, -1, -1):
        strides[i] = stride
        stride *= block_dims[i]
    for i, t in enumerate(block0):
        for l in range(1, dims[t]):
            vec[l * strides[i]] = site_amps[t][l - 1]
    return vec


def gw_block_concurrence_oracle(
    psi: PureStateVector, block_p: Iterable[int], block_q: Iterable[int]
) -> float:
    """Concurrence of the reduced state of two disjoint blocks of a W-class vector.

    Reduces ``psi`` onto ``block_p + block_q`` (rank <= 2 for W-class input),
    projects onto the effective two-dimensional local supports
    ``span{|0...0>, |single excitation>}`` of each block, and evaluates the
    two-qubit mixed-state concurrence of the embedded state.  The projection
    is verified: any weight outside the four-dimensional effective subspace
    raises.
    """
    p_sites = sorted({int(s) for s in block_p})
    q_sites = sorted({int(s) for s in block_q})
    n = psi.n_sites
    if not p_sites or not q_sites:
        raise ValueError("both blocks must be non-empty")
    if set(p_sites) & set(q_sites):
        raise ValueError("blocks must be disjoint")
    for s in p_sites + q_sites:
        if not 1 <= s <= n:
            raise ValueError(f"site {s} out of range 1..{n}")

    dims = psi.dims
    _, site_amps = _single_excitation_table(psi)

    p0 = [s - 1 for s in p_sites]
    q0 = [s - 1 for s in q_sites]
    e_p = _block_excitation_vector(p0, dims, site_amps)
    e_q = _block_excitation_vector(q0, dims, site_amps)
    x_p = float(np.linalg.norm(e_p))
    x_q = float(np.linalg.norm(e_q))
    if x_p**2 < _ZERO_WEIGHT or x_q**2 < _ZERO_WEIGHT:
        return 0.0  # a block with no excitation weight factors out

    dim_p, dim_q = e_p.size, e_q.size
    vac_p = np.zeros(dim_p, dtype=np.complex128)
    vac_p[0] = 1.0
    vac_q = np.zeros(dim_q, dtype=np.complex128)
    vac_q[0] = 1.0
    basis = np.column_stack(
        [
            np.kron(vac_p, vac_q),
            np.kron(vac_p, e_q / x_q),
            np.kron(e_p / x_p, vac_q),
            np.kron(e_p / x_p, e_q / x_q),
        ]
    )

    mat = _kept_by_traced(psi, p0 + q0)
    # rows of `coords`: components of each traced-out sector inside the
    # effective basis; rho_eff = coords @ coords* is the projected reduction
    coords = basis.conj().T @ mat
    captured = float(np.sum(np.abs(coords) ** 2))
    if 1.0 - captured > GW_FORM_TOL:
        raise ValueError(
            f"effective support is not 2x2: {1.0 - captured:.3e} of the weight "
            "lies outside the projected subspace"
        )
    rho_eff = coords @ coords.conj().T
    rho_eff /= np.trace(rho_eff).real

    spectrum = np.linalg.eigvalsh(rho_eff)
    if spectrum[1] > 1e-10:  # third-largest of four
        raise ValueError("reduced state rank exceeds 2; input is not W-class")
    return wootters_concurrence(DensityMatrix(dims=(2, 2), entries=rho_eff))


def printed_pair_concurrence_sq(cut: BlockCut, pair: PairKind | str) -> float:
    """Published closed-form squared concurrence for a uniform W-state pair.

    The four sub-block pairs evaluate
    ``[sqrt((n-m)^2 + 4*u*v) - (n-m)]^2 / n^2`` with ``u``, ``v`` the
    sub-block sizes; the top cut is ``4 m (n-m) / n^2``; a generic site pair
    is ``[sqrt(4 + (n-2)^2) - (n-2)]^2 / n^2``.
    """
    kind = PairKind(pair)
    n, m = cut.n, cut.m
    if kind is PairKind.TOP:
        return 4.0 * m * (n - m) / n**2
    if kind is PairKind.SITE_PAIR:
        return (math.sqrt(4.0 + (n - 2) ** 2) - (n - 2)) ** 2 / n**2
    block_p, block_q = cut.pair_blocks()[kind]
    z = float(n - m)
    return (math.sqrt(z**2 + 4.0 * (len(block_p) * len(block_q))) - z) ** 2 / n**2


def oracle_pair_concurrence_sq(
    psi: PureStateVector, block_p: Iterable[int], block_q: Iterable[int]
) -> float:
    """Squared pair concurrence through the reduction pipeline; 0 for an empty block."""
    p_sites = tuple(block_p)
    q_sites = tuple(block_q)
    if not p_sites or not q_sites:
        return 0.0
    return gw_block_concurrence_oracle(psi, p_sites, q_sites) ** 2


def pair_decomposition_residual(
    psi: PureStateVector, partition: Partition, focus: int
) -> float:
    """``C^2(P_focus | rest) - sum_k C^2(P_focus, P_k)`` with all terms from the oracle.

    ``focus`` is the 0-based index of the focus block.  For W-class vectors
    the one-versus-rest squared concurrence decomposes exactly into the pair
    terms, so the residual is zero up to round-off.
    """
    focus_block, others, rest = partition.split_focus(focus)
    lhs = gw_block_concurrence_oracle(psi, focus_block, rest) ** 2
    rhs = sum(gw_block_concurrence_oracle(psi, focus_block, b) ** 2 for b in others)
    return float(lhs - rhs)


def pair_source_comparison(cut: BlockCut) -> list[dict]:
    """Printed versus oracle squared pair concurrences for the uniform W state of ``cut.n``.

    Returns one row per pair kind.  The two sources agree on the top cut and
    disagree on every proper pair; both are reported without deciding which
    is intended.
    """
    from .states import to_state_vector, uniform_w_state

    psi = to_state_vector(uniform_w_state(cut.n))
    rows = []
    for kind, (bp, bq) in cut.pair_blocks().items():
        printed = printed_pair_concurrence_sq(cut, kind)
        oracle = oracle_pair_concurrence_sq(psi, bp, bq)
        rows.append(
            {
                "pair": kind.value,
                "printed_c_sq": printed,
                "oracle_c_sq": oracle,
                "abs_diff": abs(printed - oracle),
            }
        )
    return rows
