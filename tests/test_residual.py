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
    val = gm.block_residual(BlockCut(6, 4, 1, 5), P21, source="printed").value
    assert val == pytest.approx(0.191172, abs=1e-4)
    val = gm.block_residual(BlockCut(6, 4, 2, 6), P21, source="printed").value
    assert val == pytest.approx(0.183117, abs=1e-4)
    val = gm.block_residual(BlockCut(6, 4, 4, 6), P21, source="printed").value
    assert val == pytest.approx(0.148145, abs=1e-4)


def test_pairwise_residual_reference_anchors():
    assert gm.pairwise_residual(6, 3, P21, source="printed").value == pytest.approx(
        0.249914, abs=1e-4
    )
    assert gm.pairwise_residual(6, 1, P21, source="printed").value == pytest.approx(
        0.077113, abs=1e-4
    )


def test_pairwise_residual_mirror_symmetry():
    for source in ("printed", "oracle"):
        for q in (2.0, 2.4, 3.1):
            params = UEParams(q, 1.0)
            for m in (1, 2):
                a = gm.pairwise_residual(6, m, params, source=source).value
                b = gm.pairwise_residual(6, 6 - m, params, source=source).value
                assert a == pytest.approx(b, abs=1e-12)


def test_block_residual_equal_split_symmetries():
    # a = 1 and a = 3 give the same sub-block size multiset, as do the
    # (a=4, b=5) and (a=2, b=6) cuts
    for source in ("printed", "oracle"):
        for q in (2.0, 2.2):
            params = UEParams(q, 1.0)
            v1 = gm.block_residual(BlockCut(6, 4, 1, 5), params, source=source).value
            v3 = gm.block_residual(BlockCut(6, 4, 3, 5), params, source=source).value
            assert v1 == pytest.approx(v3, abs=1e-12)
            v45 = gm.block_residual(BlockCut(6, 4, 4, 5), params, source=source).value
            v26 = gm.block_residual(BlockCut(6, 4, 2, 6), params, source=source).value
            assert v45 == pytest.approx(v26, abs=1e-12)


def test_residual_region_refusal():
    with pytest.raises(HypothesisNotMet):
        gm.block_residual(BlockCut(6, 4, 1, 5), UEParams(5.0, 1.0), source="printed")
    with pytest.raises(HypothesisNotMet):
        gm.pairwise_residual(6, 2, UEParams(5.0, 1.0))


def test_pairwise_residual_range_check():
    with pytest.raises(ValueError):
        gm.pairwise_residual(6, 6, P21)
    with pytest.raises(ValueError):
        gm.pairwise_residual(6, 0, P21)


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
    for cut in (BlockCut(6, 4, 2, 5), BlockCut(6, 4, 1, 6), BlockCut(6, 3, 2, 5)):
        for q in (1.5, 2.0, 3.0):
            res = gm.block_residual(cut, UEParams(q, 1.0), source="oracle")
            assert res.value >= -1e-9


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
    st = gm.uniform_w_state(6)
    for m in (1, 3, 4):
        general = gm.pairwise_residual_general(st, m, P21)
        special = gm.pairwise_residual(6, m, P21, source="oracle").value
        assert general == pytest.approx(special, abs=1e-12)


def test_preresult_serialisation():
    res = gm.block_residual(BlockCut(6, 4, 1, 5), P21, source="printed")
    payload = res.to_dict()
    assert payload["kind"] == "block"
    assert payload["source"] == "printed"
    assert payload["q"] == 2.0 and payload["s"] == 1.0
    assert payload["value"] == pytest.approx(res.value)


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


def test_single_residuals_equal_table_cells():
    q_values = [1.5, 2.0, 2.7]
    for source in ("printed", "oracle"):
        for b in (5, 6):
            table = gm.block_residual_table(q_values, [1, 2, 3, 4], n=6, m=4, b=b, source=source)
            for q, row in zip(q_values, table):
                for a, cell in zip([1, 2, 3, 4], row):
                    res = gm.block_residual(BlockCut(6, 4, a, b), UEParams(q, 1.0), source=source)
                    assert res.value == cell
        table = gm.pairwise_residual_table(q_values, [1, 2, 3, 4, 5], n=6, source=source)
        for q, row in zip(q_values, table):
            for m, cell in zip([1, 2, 3, 4, 5], row):
                assert gm.pairwise_residual(6, m, UEParams(q, 1.0), source=source).value == cell
