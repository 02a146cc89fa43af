import math
from typing import Iterable, Sequence

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import gwmono as gm
from gwmono import DensityMatrix, Partition, PureStateVector, gw_block_concurrence_oracle
from gwmono.states import _schmidt_spectrum

# a larger example budget for tests that take theirs from the loaded profile
# (tests/test_cli_contract.py); CI runs that file under it in a step of its own:
#   python -m pytest tests/test_cli_contract.py --hypothesis-profile=cli-contract
settings.register_profile("cli-contract", max_examples=1500)


@pytest.fixture
def example1():
    """Four-qubit worked example: amplitudes (sqrt(.5), .5, .4, .3) on sites 1..4."""
    return gm.make_gw_state(4, 2, [math.sqrt(0.5), 0.5, 0.4, 0.3])


@pytest.fixture
def example1_vec(example1):
    return gm.to_state_vector(example1)


def random_gw_state(rng, n_lo=3, n_hi=8, d_lo=2, d_hi=4):
    n = int(rng.integers(n_lo, n_hi + 1))
    d = int(rng.integers(d_lo, d_hi + 1))
    table = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
    return gm.make_gw_state(n, d, table / np.linalg.norm(table))


def random_partition(rng, n, min_blocks=2, max_blocks=4, subset_ok=True):
    """Random ordered partition of (a subset of) sites 1..n into disjoint blocks."""
    sites = list(rng.permutation(np.arange(1, n + 1)))
    if subset_ok and n > 3 and rng.random() < 0.4:
        sites = sites[:-1]
    m = len(sites)
    r = int(rng.integers(min_blocks, min(max_blocks, m) + 1))
    cuts = sorted(rng.choice(np.arange(1, m), size=r - 1, replace=False))
    blocks, start = [], 0
    for c in list(cuts) + [m]:
        blocks.append(tuple(int(x) for x in sites[start:c]))
        start = c
    return gm.Partition(tuple(blocks))


# amplitude parts are exactly zero often enough to produce zero-weight blocks,
# and otherwise far from the 1e-24 cut-off where the two routes round apart
_part = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
_mixing = st.one_of(st.none(), st.just(0.0), st.floats(1e-3, 1.0))


@st.composite
def gw_states(draw):
    """A GW state (``p`` None) or GWV state with n in 3..7 and d in 2..3."""
    n = draw(st.integers(3, 7))
    d = draw(st.integers(2, 3))
    parts = draw(st.lists(_part, min_size=2 * n * (d - 1), max_size=2 * n * (d - 1)))
    table = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    assume(np.linalg.norm(table) > 0.0)
    gw = gm.make_gw_state(n, d, table.reshape(n, d - 1), renormalize=True)
    p = draw(_mixing)
    return gw if p is None else gm.make_gwv_state(gw, p)


def state_payload(state):
    """``state`` in the JSON schema of ``load_state_json``."""
    return {
        "n": state.n,
        "d": state.d,
        "coeffs": [[c.real, c.imag] for c in state.coeffs.ravel()],
        "vacuum_weight": state.vacuum_weight,
    }


# Reference values that only the tests compare against: the library computes
# none of them on any path of its own.


def purity(rho: DensityMatrix) -> float:
    """``tr(rho^2)``; equals the squared Frobenius norm for Hermitian input."""
    return float(np.sum(np.abs(rho.entries) ** 2))


def concurrence_pure(psi: PureStateVector, side_a: Iterable[int]) -> float:
    """Bipartite concurrence ``sqrt(2 (1 - tr rho_A^2))`` of a pure state.

    ``side_a`` is a proper, non-empty subset of the sites (1-based).
    """
    schmidt_sq = _schmidt_spectrum(psi, side_a)
    return float(math.sqrt(max(0.0, 2.0 * (1.0 - float(np.sum(schmidt_sq**2))))))


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


def chained_lower_bound_folded(
    pair_ues: Sequence[float],
    mus: Sequence[float],
    hs: Sequence[float],
    ps: Sequence[float],
    k: int,
    alpha: float,
) -> float:
    """Same bound built by folding the one-step form; structural identity check."""
    pair = [float(u) for u in pair_ues]
    r = len(pair) + 1
    half = alpha / 2.0
    gammas = [
        (mus[t] + hs[t]) ** half - ps[t] ** (half - 1.0) * hs[t] ** half
        for t in range(r - 2)
    ]
    acc = pair[r - 2] ** alpha
    for t in range(r - 2, k, -1):
        acc = gammas[t - 1] * pair[t - 1] ** alpha + ps[t - 1] ** (half - 1.0) * acc
    for t in range(k, 0, -1):
        acc = ps[t - 1] ** (half - 1.0) * pair[t - 1] ** alpha + gammas[t - 1] * acc
    return acc


def power_difference_gap(x: float, h: float, p: float, m: float) -> float:
    """Gap ``(1+x)^m - p^(m-1) x^m - (1+h)^m + p^(m-1) h^m``; non-negative on its domain.

    Domain: ``x >= h >= 0``, ``m >= 1`` and ``1 <= p <= 1 + 1/x`` (any
    ``p >= 1`` when ``x = 0``).
    """
    if not x >= h >= 0.0:
        raise ValueError(f"need x >= h >= 0, got x={x}, h={h}")
    if m < 1.0:
        raise ValueError(f"need m >= 1, got {m}")
    cap = math.inf if x == 0.0 else 1.0 + 1.0 / x
    if not 1.0 <= p <= cap:
        raise ValueError(f"need 1 <= p <= {cap}, got p={p}")
    return (1.0 + x) ** m - p ** (m - 1.0) * x**m - (1.0 + h) ** m + p ** (m - 1.0) * h**m


def fractional_power_gaps(x: float, y: float, beta: float) -> tuple[float, float]:
    """Both fractional-power gaps for ``x >= y >= 0`` and ``0 <= beta <= 1``.

    Returns ``((x-y)^beta - (x^beta - y^beta), x^beta + y^beta - (x+y)^beta)``;
    each is non-negative on the stated domain.
    """
    if not x >= y >= 0.0:
        raise ValueError(f"need x >= y >= 0, got x={x}, y={y}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"need beta in [0, 1], got {beta}")
    diff_gap = (x - y) ** beta - (x**beta - y**beta)
    sum_gap = x**beta + y**beta - (x + y) ** beta
    return diff_gap, sum_gap
