"""Property tests pinning the site-weights pair kernel to the dense oracle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gwmono as gm
from conftest import gw_states

PROPERTY = settings(max_examples=150, deadline=None, database=None, derandomize=True)

@st.composite
def states_and_blocks(draw):
    """A state and two random disjoint non-empty blocks of its sites."""
    state = draw(gw_states())
    sites = draw(st.permutations(range(1, state.n + 1)))
    k_p = draw(st.integers(1, state.n - 1))
    k_q = draw(st.integers(1, state.n - k_p))
    return state, tuple(sites[:k_p]), tuple(sites[k_p : k_p + k_q])


@PROPERTY
@given(states_and_blocks())
def test_kernel_matches_oracle(case):
    state, block_p, block_q = case
    kernel = gm.pair_concurrence(state, block_p, block_q)
    oracle = gm.gw_block_concurrence_oracle(gm.to_state_vector(state), block_p, block_q)
    assert abs(kernel - oracle) <= 1e-12


@PROPERTY
@given(gw_states())
def test_pair_matrix_entries_equal_pair_concurrence(state):
    mat = gm.pair_matrix(state)
    assert mat.shape == (state.n, state.n)
    for i in range(1, state.n + 1):
        assert mat[i - 1, i - 1] == 0.0
        for j in range(1, state.n + 1):
            if i != j:
                assert mat[i - 1, j - 1] == gm.pair_concurrence(state, (i,), (j,))


@PROPERTY
@given(states_and_blocks(), st.sampled_from([0.0, 1e-20]))
def test_zero_weight_block_is_zero_on_both_routes(case, scale):
    # a block weight below the 1e-24 cut-off counts as zero, not only an exact 0
    state, block_p, block_q = case
    coeffs = np.array(state.coeffs)
    rows = [s - 1 for s in block_p]
    assume(np.linalg.norm(np.delete(coeffs, rows, axis=0)) > 0.0)
    coeffs[rows] *= scale
    silent = gm.make_gwv_state(
        gm.make_gw_state(state.n, state.d, coeffs, renormalize=True), state.vacuum_weight
    )
    psi = gm.to_state_vector(silent)
    assert gm.pair_concurrence(silent, block_p, block_q) == 0.0
    assert gm.gw_block_concurrence_oracle(psi, block_p, block_q) == 0.0
    assert gm.pair_concurrence(silent, block_q, block_p) == 0.0
    assert gm.gw_block_concurrence_oracle(psi, block_q, block_p) == 0.0
    mat = gm.pair_matrix(silent)
    assert not mat[rows].any() and not mat[:, rows].any()


@PROPERTY
@given(gw_states(), st.data())
def test_bad_blocks_raise_the_same_error_on_both_routes(state, data):
    n = state.n
    site = st.integers(1, n)
    block_p, block_q = data.draw(
        st.one_of(
            st.tuples(st.just(()), st.lists(site, min_size=1)),
            st.tuples(st.lists(site, min_size=1), st.just(())),
            site.flatmap(lambda s: st.tuples(st.just((s,)), st.just((s, s % n + 1)))),
            st.tuples(st.just((1,)), st.sampled_from([(0,), (n + 1,), (-1, 2)])),
        )
    )
    with pytest.raises(ValueError) as kernel_err:
        gm.pair_concurrence(state, block_p, block_q)
    with pytest.raises(ValueError) as oracle_err:
        gm.gw_block_concurrence_oracle(gm.to_state_vector(state), block_p, block_q)
    assert str(kernel_err.value) == str(oracle_err.value)


def test_kernel_rejects_dense_vectors(example1_vec):
    with pytest.raises(TypeError):
        gm.pair_concurrence(example1_vec, (1,), (2,))
    with pytest.raises(TypeError):
        gm.pair_matrix(example1_vec)


def test_kernel_needs_no_dense_vector_far_above_the_cap():
    state = gm.uniform_w_state(2000)
    c = gm.pair_concurrence(state, range(1, 1001), range(1001, 2001))
    assert c == pytest.approx(1.0, abs=1e-12)
    assert gm.pair_matrix(gm.uniform_w_state(30))[0, 1] == pytest.approx(2 / 30, abs=1e-15)
