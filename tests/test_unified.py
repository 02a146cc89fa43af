import math

import numpy as np
import pytest

import gwmono as gm
from gwmono.unified import UEParams, _entropy_rows
from conftest import random_gw_state

P21 = UEParams(2.0, 1.0)

REGION_GRID = [
    UEParams(q, s)
    for q in (1.0, 1.5, 2.0, 2.75, 3.5)
    for s in (0.1, 0.3, 0.5, 0.75, 1.0)
]


def test_params_validation_and_regimes():
    with pytest.raises(ValueError):
        UEParams(0.0, 1.0)
    with pytest.raises(ValueError):
        UEParams(2.0, -0.1)
    assert UEParams(1.0 + 1e-9, 0.5).regime == "q_near_1"
    assert UEParams(2.0, 1e-9).regime == "s_near_0"
    assert UEParams(2.0, 1.0).regime == "s_near_1"
    assert UEParams(2.0, 0.5).regime == "generic"
    assert P21.satisfies_basic_bounds
    assert not UEParams(3.5, 1.0).satisfies_basic_bounds  # qs > 3


@pytest.mark.parametrize(
    "q, s", [(math.inf, 0.5), (math.nan, 0.5), (2.0, math.nan), (2.0, math.inf)]
)
def test_params_reject_non_finite(q, s):
    with pytest.raises(ValueError, match="finite"):
        UEParams(q, s)


def test_f_anchor_values():
    assert gm.f_qs(math.sqrt(2) / 2, P21) == pytest.approx(0.25, abs=1e-12)
    assert gm.f_qs(0.0, P21) == 0.0
    assert gm.f_qs(1.0, P21) == pytest.approx(0.5, abs=1e-12)


def test_g_anchor_values():
    assert gm.g_qs(8 / 25, P21) == pytest.approx(4 / 25, abs=1e-12)
    assert gm.g_qs(41 / 50, P21) == pytest.approx(41 / 100, abs=1e-12)
    assert gm.g_qs(0.0, P21) == 0.0


def test_f_domain():
    with pytest.raises(ValueError):
        gm.f_qs(1.1, P21)
    with pytest.raises(ValueError):
        gm.f_qs(-0.1, P21)
    # 1e-12 slack is absorbed
    gm.f_qs(1.0 + 5e-13, P21)


@pytest.mark.parametrize("params", REGION_GRID)
def test_g_matches_f_on_grid(params):
    xs = np.linspace(0.0, 1.0, 1000)
    for x in xs:
        assert abs(gm.g_qs(x * x, params) - gm.f_qs(x, params)) <= 1e-12


def test_region_membership():
    assert gm.in_region_r((2.0, 1.0))
    assert not gm.in_region_r((4.31, 1.0))
    assert not gm.in_region_r((2.0, 1.2))
    assert gm.in_region_r((100.0, 0.0))  # upper bound is infinite at s = 0
    # boundaries are inclusive
    assert gm.in_region_r((gm.region_lower_q(1.0), 1.0))
    assert gm.in_region_r((gm.region_upper_q(1.0), 1.0))


def test_region_lower_bound_singularity():
    # the removable singularity is filled with the limiting value
    assert gm.region_lower_q(2 / 3) == pytest.approx(0.75, abs=1e-12)
    # and agrees with nearby evaluations from both sides
    assert gm.region_lower_q(2 / 3 - 1e-7) == pytest.approx(0.75, abs=1e-6)
    assert gm.region_lower_q(2 / 3 + 1e-7) == pytest.approx(0.75, abs=1e-6)


def test_unified_entropy_anchors(example1_vec):
    pure = gm.reduce(gm.to_state_vector(gm.uniform_w_state(2)), (1, 2))
    assert gm.unified_entropy(pure, P21) == pytest.approx(0.0, abs=1e-12)
    mixed = gm.DensityMatrix((2,), np.eye(2) / 2)
    assert gm.unified_entropy(mixed, P21) == pytest.approx(0.5, abs=1e-12)
    rho = gm.DensityMatrix((2,), np.diag([2 / 3, 1 / 3]))
    vn = math.log(3) - (2 / 3) * math.log(2)
    assert gm.unified_entropy(rho, UEParams(1.0, 1.0)) == pytest.approx(vn, abs=1e-12)


def test_ue_pure_anchors():
    bell = gm.to_state_vector(gm.uniform_w_state(2))
    assert gm.ue_pure(bell, (1,), P21) == pytest.approx(0.5, abs=1e-12)
    w6 = gm.to_state_vector(gm.uniform_w_state(6))
    assert gm.ue_pure(w6, (1, 2, 3, 4), P21) == pytest.approx(4 / 9, abs=1e-12)
    product = gm.PureStateVector((2, 2), np.array([1.0, 0, 0, 0]))
    assert gm.ue_pure(product, (1,), P21) == pytest.approx(0.0, abs=1e-14)


def test_ue_pure_matches_f_of_concurrence():
    rng = np.random.default_rng(23)
    for _ in range(20):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        vec = gm.to_state_vector(st)
        k = int(rng.integers(1, st.n))
        side = [int(s) for s in rng.choice(np.arange(1, st.n + 1), size=k, replace=False)]
        params = REGION_GRID[int(rng.integers(0, len(REGION_GRID)))]
        c = gm.concurrence_pure(vec, side)
        assert abs(gm.ue_pure(vec, side, params) - gm.f_qs(c, params)) <= 1e-10


def test_ue_gw_reduced_anchors():
    assert gm.ue_gw_reduced(math.sqrt(2) / 2, P21) == pytest.approx(0.25, abs=1e-12)
    assert gm.ue_gw_reduced(0.0, P21) == 0.0
    assert gm.ue_gw_reduced(2 * math.sqrt(2) / 5, P21) == pytest.approx(4 / 25, abs=1e-12)


def _random_density(rng, dim=4):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return gm.DensityMatrix((2, 2), rho / np.trace(rho).real)


def test_limit_regimes_against_raw_formula():
    rng = np.random.default_rng(7)
    rho = _random_density(rng)
    lam = rho.spectrum()
    for q in (0.7, 2.0, 3.0):
        renyi = math.log(float(np.sum(lam**q))) / (1 - q)
        assert abs(gm.unified_entropy_raw(rho, q, 1e-8) - renyi) <= 1e-6
        assert gm.unified_entropy(rho, UEParams(q, 1e-8)) == pytest.approx(renyi, abs=1e-12)
        tsallis = (float(np.sum(lam**q)) - 1.0) / (1 - q)
        assert abs(gm.unified_entropy_raw(rho, q, 1 - 1e-8) - tsallis) <= 1e-6
    vn = float(-np.sum(np.where(lam > 0, lam * np.log(np.where(lam > 0, lam, 1)), 0.0)))
    for s in (0.3, 0.7, 1.0):
        for q in (1 + 1e-8, 1 - 1e-8):
            assert abs(gm.unified_entropy_raw(rho, q, s) - vn) <= 1e-6
        assert gm.unified_entropy(rho, UEParams(1.0 + 1e-9, s)) == pytest.approx(vn, abs=1e-12)


def test_f_limit_regimes_against_raw_formula():
    for x in (0.2, 0.6, 0.95):
        for s in (0.4, 0.8):
            assert abs(gm.f_qs_raw(x, 1 + 1e-8, s) - gm.f_qs(x, UEParams(1.0, s))) <= 1e-6
        for q in (1.6, 2.5):
            assert abs(gm.f_qs_raw(x, q, 1e-8) - gm.f_qs(x, UEParams(q, 1e-9))) <= 1e-6


@pytest.mark.parametrize("params", REGION_GRID)
def test_f_monotone_and_convex(params):
    xs = np.linspace(0.0, 1.0, 201)
    vals = np.array([gm.f_qs(x, params) for x in xs])
    assert np.all(np.diff(vals) >= -1e-9)
    assert np.all(np.diff(vals, 2) >= -1e-7)


@pytest.mark.parametrize("params", REGION_GRID)
def test_g_squared_convex_in_squared_concurrence(params):
    ys = np.linspace(0.0, 1.0, 201)
    vals = np.array([gm.g_qs(y, params) ** 2 for y in ys])
    assert np.all(np.diff(vals, 2) >= -1e-7)


def test_additivity_exact_only_at_s_one():
    # f(sqrt(x^2+y^2)) = f(x) + f(y) holds at (q, s) = (2, 1) ...
    params = UEParams(2.0, 1.0)
    grid = np.linspace(0.0, 1.0, 41)
    for x in grid:
        for y in grid:
            if x * x + y * y <= 1.0:
                gap = gm.f_qs(math.sqrt(x * x + y * y), params) - gm.f_qs(x, params) - gm.f_qs(y, params)
                assert abs(gap) <= 1e-10
    # ... but fails below s = 1 (superadditivity with a macroscopic gap), which
    # is why the fractional-power upper bound breaks there; see the acceptance
    # suite for the faithful failing check.
    for s in (0.5, 0.75):
        params = UEParams(2.0, s)
        x = y = math.sqrt(0.5)
        gap = gm.f_qs(1.0, params) - 2 * gm.f_qs(x, params)
        assert gap > 1e-3


def test_entropy_rows_batches():
    lams = np.array([[0.5, 0.5], [1.0, 0.0]])
    out = _entropy_rows(lams, P21)
    assert out[0] == pytest.approx(0.5, abs=1e-14)
    assert out[1] == pytest.approx(0.0, abs=1e-14)


def test_roof_pure_input(example1_vec):
    bell = gm.reduce(gm.to_state_vector(gm.uniform_w_state(2)), (1, 2))
    assert gm.convex_roof_ue_rank2(bell, P21, rng=0) == pytest.approx(0.5, abs=1e-10)


def test_roof_pure_input_beyond_schmidt_rank_two():
    # a pure input is its own decomposition, whatever its Schmidt rank
    psi = gm.PureStateVector((3, 3), np.eye(3).ravel() / math.sqrt(3))
    rho = gm.DensityMatrix((3, 3), np.outer(psi.amps, psi.amps.conj()))
    assert gm.convex_roof_ue_rank2(rho, P21, rng=0) == pytest.approx(2 / 3, abs=1e-12)


def test_roof_classical_mixture():
    m = np.zeros((4, 4))
    m[0, 0] = 0.3
    m[3, 3] = 0.7
    roof = gm.convex_roof_ue_rank2(gm.DensityMatrix((2, 2), m), P21, rng=1)
    assert abs(roof) <= 1e-8


def test_roof_example1_pair(example1_vec):
    rho = gm.reduce(example1_vec, (1, 2))
    roof = gm.convex_roof_ue_rank2(rho, P21, rng=2)
    assert roof == pytest.approx(0.25, abs=1e-4)


def test_roof_monotone_in_decomposition_size(example1_vec):
    rho = gm.reduce(example1_vec, (1, 3))
    vals = [
        gm.convex_roof_ue_rank2(rho, P21, decomposition_size=k, rng=3) for k in (2, 3, 4)
    ]
    assert vals[1] <= vals[0] + 1e-7
    assert vals[2] <= vals[1] + 1e-7


def test_roof_rejects_rank_three():
    rho = gm.DensityMatrix((2, 2), np.diag([0.5, 0.3, 0.2, 0.0]))
    with pytest.raises(ValueError, match="rank"):
        gm.convex_roof_ue_rank2(rho, P21)


def test_roof_matches_analytic_map_spot():
    rng = np.random.default_rng(13)
    for _ in range(3):
        st = random_gw_state(rng, n_hi=5, d_hi=3)
        vec = gm.to_state_vector(st)
        sites = sorted(int(s) for s in rng.choice(np.arange(1, st.n + 1), 2, replace=False))
        rho = gm.reduce(vec, sites)
        params = UEParams(2.0, 0.6)
        c = gm.gw_block_concurrence_oracle(vec, (sites[0],), (sites[1],))
        roof = gm.convex_roof_ue_rank2(rho, params, rng=int(rng.integers(0, 2**31)))
        assert roof == pytest.approx(gm.f_qs(c, params), abs=1e-4)


def test_roof_rejects_no_restarts(example1_vec):
    rho = gm.reduce(example1_vec, (1, 2))
    with pytest.raises(ValueError, match="restart"):
        gm.convex_roof_ue_rank2(rho, P21, restarts=0)


def test_roof_warns_at_sweep_cap(example1_vec):
    rho = gm.reduce(example1_vec, (1, 2))
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        roof = gm.convex_roof_ue_rank2(rho, P21, rng=4, max_sweeps=1)
    assert math.isfinite(roof)


def test_roof_same_seed_same_value(example1_vec):
    rho = gm.reduce(example1_vec, (2, 4))
    params = UEParams(1.2, 0.4)
    first = gm.convex_roof_ue_rank2(rho, params, rng=5)
    assert gm.convex_roof_ue_rank2(rho, params, rng=5) == first
    gen_a, gen_b = np.random.default_rng(6), np.random.default_rng(6)
    assert gm.convex_roof_ue_rank2(rho, params, rng=gen_a) == gm.convex_roof_ue_rank2(
        rho, params, rng=gen_b
    )


def test_roof_never_uses_analytic_map(example1_vec, monkeypatch):
    # the roof checks the map, so the search must not consult it
    rho = gm.reduce(example1_vec, (1, 3))
    expected = gm.f_qs(2 * math.sqrt(0.5) * 0.4, P21)

    def forbidden(*args, **kwargs):
        raise AssertionError("the roof search called the analytic map")

    monkeypatch.setattr(gm.unified, "f_qs", forbidden)
    monkeypatch.setattr(gm.unified, "g_qs", forbidden)
    assert gm.convex_roof_ue_rank2(rho, P21, rng=7) == pytest.approx(expected, abs=1e-4)


def test_roof_matches_analytic_map_qubit_and_qutrit():
    # criterion 07's (q, s) grid at both local dimensions, on a seed of its own
    grid = [(1.2, 0.4), (2.0, 1.0), (2.0, 0.6), (3.0, 0.9), (1.0, 0.5), (2.5, 0.25)]
    rng = np.random.default_rng(8128)
    for i in range(12):
        d = 2 + i % 2
        n = int(rng.integers(3, 7))
        table = rng.standard_normal((n, d - 1)) + 1j * rng.standard_normal((n, d - 1))
        vec = gm.to_state_vector(gm.make_gw_state(n, d, table / np.linalg.norm(table)))
        sites = sorted(int(s) for s in rng.choice(np.arange(1, n + 1), 2, replace=False))
        params = UEParams(*grid[(i // 2) % len(grid)])
        c = gm.gw_block_concurrence_oracle(vec, (sites[0],), (sites[1],))
        roof = gm.convex_roof_ue_rank2(
            gm.reduce(vec, sites), params, rng=int(rng.integers(0, 2**31))
        )
        assert roof == pytest.approx(gm.f_qs(c, params), abs=1e-4)
