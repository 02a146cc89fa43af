import math

import numpy as np
import pytest

import gwmono as gm
from gwmono import residual
from gwmono.concurrence import BlockCut
from gwmono.monogamy import HypothesisNotMet
from gwmono.unified import UEParams
from conftest import random_gw_state

P21 = UEParams(2.0, 1.0)


def test_block_residual_reference_anchors():
    [[a1]] = gm.block_residual_table([2.0], [1], n=6, m=4, b=5, source="printed")
    assert a1 == pytest.approx(0.191172, abs=1e-4)
    [[a2, a4]] = gm.block_residual_table([2.0], [2, 4], n=6, m=4, b=6, source="printed")
    assert a2 == pytest.approx(0.183117, abs=1e-4)
    assert a4 == pytest.approx(0.148145, abs=1e-4)


def test_pairwise_residual_reference_anchors():
    [[m1, m3]] = gm.pairwise_residual_table([2.0], [1, 3], n=6, source="printed")
    assert m3 == pytest.approx(0.249914, abs=1e-4)
    assert m1 == pytest.approx(0.077113, abs=1e-4)


def test_pairwise_residual_mirror_symmetry():
    for source in ("printed", "oracle"):
        table = np.array(
            gm.pairwise_residual_table([2.0, 2.4, 3.1], [1, 2, 4, 5], n=6, source=source)
        )
        # columns m = 1, 2 against m = 5, 4
        np.testing.assert_allclose(table[:, :2], table[:, :1:-1], rtol=0, atol=1e-12)


def test_block_residual_equal_split_symmetries():
    # a = 1 and a = 3 give the same sub-block size multiset, as do the
    # (a=4, b=5) and (a=2, b=6) cuts
    for source in ("printed", "oracle"):
        b5 = gm.block_residual_table([2.0, 2.2], [1, 3, 4], n=6, m=4, b=5, source=source)
        b6 = gm.block_residual_table([2.0, 2.2], [2], n=6, m=4, b=6, source=source)
        for (v1, v3, v45), (v26,) in zip(b5, b6):
            assert v1 == pytest.approx(v3, abs=1e-12)
            assert v45 == pytest.approx(v26, abs=1e-12)


def test_residual_region_refusal():
    with pytest.raises(HypothesisNotMet):
        gm.block_residual_table([5.0], [1], n=6, m=4, b=5, source="printed")
    with pytest.raises(HypothesisNotMet):
        gm.pairwise_residual_table([5.0], [2], n=6)


def test_pairwise_residual_range_check():
    with pytest.raises(ValueError):
        gm.pairwise_residual_table([2.0], [6], n=6)
    with pytest.raises(ValueError):
        gm.pairwise_residual_table([2.0], [0], n=6)


def test_residuals_decrease_in_q():
    grid = gm.region_q_grid(1.0, 50)
    for b in (5, 6):
        table = np.array(
            gm.block_residual_table(grid, [1, 2, 3, 4], n=6, m=4, b=b, s=1.0, source="printed")
        )
        assert np.all(np.diff(table, axis=0) < 0.0)
    table = np.array(
        gm.pairwise_residual_table(grid, [1, 2, 3, 4, 5], n=6, s=1.0, source="printed")
    )
    assert np.all(np.diff(table, axis=0) < 0.0)


def test_region_q_grid_bounds():
    grid = gm.region_q_grid(1.0, 50)
    assert grid.size == 50
    assert grid[0] == pytest.approx((5 - math.sqrt(13)) / 2, abs=1e-12)
    assert grid[-1] == pytest.approx((5 + math.sqrt(13)) / 2, abs=1e-12)
    with pytest.raises(ValueError):
        gm.region_q_grid(0.0)


def test_oracle_source_residuals_nonnegative_uniform():
    for n, m, a, b in ((6, 4, 2, 5), (6, 4, 1, 6), (6, 3, 2, 5)):
        table = gm.block_residual_table([1.5, 2.0, 3.0], [a], n=n, m=m, b=b, source="oracle")
        assert min(min(row) for row in table) >= -1e-9


def test_residual_chain_check_uniform_w():
    rep = gm.residual_chain_check(gm.uniform_w_state(6), BlockCut(6, 4, 2, 5), P21)
    assert rep.margin >= -1e-9
    assert rep.params["block_residual"] >= -1e-9
    assert rep.params["pairwise_residual"] >= -1e-9


def test_residual_chain_check_two_sites_collapses():
    rep = gm.residual_chain_check(gm.uniform_w_state(2), BlockCut(2, 1, 1, 2), P21)
    assert abs(rep.params["block_residual"]) < 1e-12
    assert abs(rep.params["refine_gap"]) < 1e-12


def test_residual_chain_check_random_states():
    rng = np.random.default_rng(111)
    for _ in range(25):
        st = random_gw_state(rng, n_lo=4, n_hi=7, d_hi=3)
        n = st.n
        m = int(rng.integers(1, n))
        a = int(rng.integers(1, m + 1))
        b = int(rng.integers(m + 1, n + 1))
        params = UEParams(float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.2, 1.0)))
        rep = gm.residual_chain_check(st, BlockCut(n, m, a, b), params)
        assert rep.margin >= -1e-9
        assert rep.params["pairwise_residual"] >= -1e-9


def test_pairwise_residual_general_matches_uniform_specialisation():
    # the chain check's pairwise residual on a general state, at the uniform W
    # state, equals the uniform-W table cell
    st = gm.uniform_w_state(6)
    [special] = gm.pairwise_residual_table([2.0], [1, 3, 4], n=6, source="oracle")
    for m, cell in zip((1, 3, 4), special):
        rep = gm.residual_chain_check(st, BlockCut(6, m, m, 6), P21)
        assert rep.params["pairwise_residual"] == pytest.approx(cell, abs=1e-12)


def test_oracle_tables_build_the_dense_vector_once(monkeypatch):
    built = []

    def counting(state, **kwargs):
        built.append(state.n)
        return gm.to_state_vector(state, **kwargs)

    monkeypatch.setattr(residual, "to_state_vector", counting)
    gm.block_residual_table([2.0, 2.5], [1, 2, 3, 4], n=6, m=4, b=5, source="oracle")
    assert built == [6]
    built.clear()
    gm.pairwise_residual_table([2.0, 2.5], [1, 2, 3, 4, 5], n=6, source="oracle")
    assert built == [6]
