import math

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import gwmono as gm

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
