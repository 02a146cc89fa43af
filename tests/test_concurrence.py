import math

import numpy as np
import pytest

import gwmono as gm
from gwmono.concurrence import BlockCut, PairKind
from conftest import random_gw_state, random_partition

SQRT2 = math.sqrt(2.0)


def bell_vector():
    return gm.PureStateVector((2, 2), np.array([1, 0, 0, 1]) / SQRT2)


def test_concurrence_pure_bell():
    assert gm.concurrence_pure(bell_vector(), (1,)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_pure_top_cut_of_uniform_w():
    vec = gm.to_state_vector(gm.uniform_w_state(6))
    c = gm.concurrence_pure(vec, (1, 2, 3, 4))
    assert c**2 == pytest.approx(8 / 9, abs=1e-12)


def test_concurrence_pure_product_state():
    vec = gm.PureStateVector((2, 2), np.array([1.0, 0, 0, 0]))
    assert gm.concurrence_pure(vec, (1,)) == 0.0


def test_concurrence_pure_invalid_cut():
    with pytest.raises(ValueError):
        gm.concurrence_pure(bell_vector(), (1, 2))
    with pytest.raises(ValueError):
        gm.concurrence_pure(bell_vector(), ())


def test_concurrence_pure_complement_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        vec = gm.to_state_vector(st)
        k = int(rng.integers(1, st.n))
        side = [int(s) for s in rng.choice(np.arange(1, st.n + 1), size=k, replace=False)]
        comp = [i for i in range(1, st.n + 1) if i not in side]
        assert gm.concurrence_pure(vec, side) == pytest.approx(
            gm.concurrence_pure(vec, comp), abs=1e-10
        )


def test_wootters_bell_projector():
    rho = gm.reduce(bell_vector(), (1, 2))
    assert gm.wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)


def test_wootters_maximally_mixed():
    assert gm.wootters_concurrence(gm.DensityMatrix((2, 2), np.eye(4) / 4)) == 0.0


def test_wootters_vacuum_mixture():
    # 0.5|00><00| + 0.5|psi+><psi+|  ->  2 * max(0, 0.25 - 0) = 0.5
    psi_plus = np.array([0, 1, 1, 0]) / SQRT2
    rho = 0.5 * np.outer(psi_plus, psi_plus.conj())
    rho[0, 0] += 0.5
    assert gm.wootters_concurrence(gm.DensityMatrix((2, 2), rho)) == pytest.approx(
        0.5, abs=1e-12
    )


@pytest.mark.parametrize("w", [0.0, 0.2, 1 / 3, 0.6, 0.9, 1.0])
def test_wootters_werner_closed_form(w):
    singlet = np.array([0, 1, -1, 0]) / SQRT2
    rho = w * np.outer(singlet, singlet.conj()) + (1 - w) * np.eye(4) / 4
    expected = max(0.0, (3 * w - 1) / 2)
    assert gm.wootters_concurrence(gm.DensityMatrix((2, 2), rho)) == pytest.approx(
        expected, abs=1e-12
    )


def test_wootters_matches_pure_concurrence():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        vec = gm.PureStateVector((2, 2), amps)
        rho = gm.reduce(vec, (1, 2))
        assert abs(
            gm.wootters_concurrence(rho) - gm.concurrence_pure(vec, (1,))
        ) < 1e-10


def test_wootters_matches_direct_eigenvalue_route():
    # the eigenbasis formulation must agree with the literal product-matrix route
    flip = np.array(
        [[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=float
    )
    rng = np.random.default_rng(17)
    for _ in range(200):
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        ev = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
        lam = np.sort(np.sqrt(np.clip(ev.real, 0.0, None)))[::-1]
        direct = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
        got = gm.wootters_concurrence(gm.DensityMatrix((2, 2), rho))
        assert abs(got - direct) < 1e-8


def test_wootters_dim_check():
    with pytest.raises(ValueError):
        gm.wootters_concurrence(gm.DensityMatrix((4,), np.eye(4) / 4))


def test_oracle_bell_pair():
    vec = gm.to_state_vector(gm.uniform_w_state(2))
    assert gm.gw_block_concurrence_oracle(vec, (1,), (2,)) == pytest.approx(1.0, abs=1e-12)


def test_oracle_three_qubit_uniform_pair():
    vec = gm.to_state_vector(gm.uniform_w_state(3))
    assert gm.gw_block_concurrence_oracle(vec, (1,), (2,)) == pytest.approx(
        2 / 3, abs=1e-12
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_oracle_uniform_w_singleton_pairs(n):
    vec = gm.to_state_vector(gm.uniform_w_state(n))
    assert gm.gw_block_concurrence_oracle(vec, (1,), (2,)) == pytest.approx(
        2 / n, abs=1e-10
    )


def test_oracle_example1_pairs(example1_vec):
    c = gm.gw_block_concurrence_oracle
    assert abs(c(example1_vec, (1,), (2,)) - SQRT2 / 2) < 1e-12
    assert abs(c(example1_vec, (1,), (3,)) - 2 * SQRT2 / 5) < 1e-12
    assert abs(c(example1_vec, (1,), (2, 3)) - math.sqrt(41 / 50)) < 1e-12


def test_oracle_accepts_vacuum_superposition():
    gwv = gm.make_gwv_state(gm.uniform_w_state(3), 0.5)
    vec = gm.to_state_vector(gwv)
    # vacuum weight scales the pair concurrence linearly
    assert gm.gw_block_concurrence_oracle(vec, (1,), (2,)) == pytest.approx(
        0.5 * 2 / 3, abs=1e-12
    )


def test_oracle_rejects_non_w_class():
    vec = gm.PureStateVector((2, 2, 2), np.ones(8) / math.sqrt(8))
    with pytest.raises(ValueError, match="W-class"):
        gm.gw_block_concurrence_oracle(vec, (1,), (2,))


def test_oracle_block_validation(example1_vec):
    with pytest.raises(ValueError, match="disjoint"):
        gm.gw_block_concurrence_oracle(example1_vec, (1, 2), (2, 3))
    with pytest.raises(ValueError, match="non-empty"):
        gm.gw_block_concurrence_oracle(example1_vec, (), (1,))
    with pytest.raises(ValueError, match="range"):
        gm.gw_block_concurrence_oracle(example1_vec, (1,), (9,))


def test_block_cut_geometry():
    cut = BlockCut(6, 4, 2, 5)
    assert cut.front1 == (1, 2) and cut.back1 == (3, 4)
    assert cut.front2 == (5,) and cut.back2 == (6,)
    degenerate = BlockCut(6, 4, 4, 6)
    assert degenerate.back1 == () and degenerate.back2 == ()
    assert degenerate.to_partition().r == 2
    with pytest.raises(ValueError):
        BlockCut(6, 4, 5, 6)
    with pytest.raises(ValueError):
        BlockCut(6, 4, 1, 4)


def test_pair_blocks_sizes_match_printed_closed_form():
    # invert [sqrt(z^2 + 4 u v) - z]^2 / n^2 = c for the size product u v
    sub_pairs = (PairKind.FRONT_FRONT, PairKind.BACK_FRONT, PairKind.FRONT_BACK, PairKind.BACK_BACK)
    for n, m, a, b in ((6, 4, 1, 5), (6, 4, 2, 6), (6, 4, 4, 6), (7, 3, 2, 5), (9, 5, 3, 8)):
        cut = BlockCut(n, m, a, b)
        blocks = cut.pair_blocks()
        assert blocks[PairKind.TOP] == (cut.block1, cut.block2)
        assert blocks[PairKind.SITE_PAIR] == ((1,), (m + 1,))
        for kind in sub_pairs:
            block_p, block_q = blocks[kind]
            z = n - m
            c = gm.printed_pair_concurrence_sq(cut, kind)
            size = ((n * math.sqrt(c) + z) ** 2 - z**2) / 4.0
            assert size == pytest.approx(len(block_p) * len(block_q), abs=1e-9)


def test_printed_pair_values():
    cut = BlockCut(6, 4, 1, 5)
    assert gm.printed_pair_concurrence_sq(cut, PairKind.TOP) == pytest.approx(8 / 9)
    assert gm.printed_pair_concurrence_sq(cut, PairKind.FRONT_FRONT) == pytest.approx(
        (math.sqrt(8) - 2) ** 2 / 36, abs=1e-15
    )
    assert gm.printed_pair_concurrence_sq(cut, PairKind.SITE_PAIR) == pytest.approx(
        (math.sqrt(20) - 4) ** 2 / 36, abs=1e-15
    )
    degenerate = BlockCut(6, 4, 4, 6)
    assert gm.printed_pair_concurrence_sq(degenerate, PairKind.BACK_FRONT) == 0.0
    assert gm.printed_pair_concurrence_sq(degenerate, PairKind.FRONT_BACK) == 0.0


def test_pair_decomposition_residual_three_qubit():
    vec = gm.to_state_vector(gm.uniform_w_state(3))
    part = gm.Partition.singletons((1, 2, 3))
    assert abs(gm.pair_decomposition_residual(vec, part, 0)) < 1e-9


def test_pair_decomposition_residual_block_cut():
    vec = gm.to_state_vector(gm.uniform_w_state(6))
    part = BlockCut(6, 4, 2, 5).to_partition()
    assert abs(gm.pair_decomposition_residual(vec, part, 0)) < 1e-9


def test_pair_decomposition_residual_two_blocks(example1_vec):
    part = gm.Partition(((1,), (2, 3, 4)))
    assert abs(gm.pair_decomposition_residual(example1_vec, part, 0)) < 1e-12


def test_pair_decomposition_residual_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        st = random_gw_state(rng)
        vec = gm.to_state_vector(st)
        part = random_partition(rng, st.n)
        focus = int(rng.integers(0, part.r))
        assert abs(gm.pair_decomposition_residual(vec, part, focus)) < 1e-8


def test_pair_source_comparison_rows():
    rows = gm.pair_source_comparison(BlockCut(6, 4, 1, 5))
    by_pair = {row["pair"]: row for row in rows}
    site = by_pair["site-site"]
    assert site["oracle_c_sq"] == pytest.approx(4 / 36, abs=1e-12)
    assert site["printed_c_sq"] == pytest.approx(0.0061920, abs=1e-6)
    assert site["abs_diff"] > 0.1
    top = by_pair["block1-block2"]
    assert top["abs_diff"] < 1e-12
