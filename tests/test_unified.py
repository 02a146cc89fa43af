import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gwmono as gm
from gwmono import unified
from gwmono.unified import UEParams, _decomposition_values, _entropy_rows, _orthonormal
from conftest import concurrence_pure, random_gw_state

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
        c = concurrence_pure(vec, side)
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


@pytest.mark.parametrize(
    "params, regime",
    [
        (UEParams(1.0, 0.5), "q_near_1"),
        (UEParams(2.0, 0.0), "s_near_0"),
        (UEParams(2.0, 1.0), "s_near_1"),
        (UEParams(2.5, 0.6), "generic"),
    ],
)
def test_zero_entanglement_is_positive_zero(params, regime):
    # for q > 1 the formulas divide an exact 0 by 1 - q < 0, which gives -0.0
    assert params.regime == regime
    pure = np.array([[1.0, 0.0], [0.0, 1.0]])
    for value in (gm.f_qs(0.0, params), gm.g_qs(0.0, params), *_entropy_rows(pure, params)):
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


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


def _reference_entropy(lams, params):
    """The unified entropy formula with its three limits, on one spectrum."""
    q, s = params.q, params.s
    lams = lams[lams > 0.0]
    if params.regime == "q_near_1":
        return float(-np.sum(lams * np.log(lams)))
    power_sum = float(np.sum(lams**q))
    if params.regime == "s_near_0":
        return math.log(power_sum) / (1.0 - q)
    if params.regime == "s_near_1":
        return (power_sum - 1.0) / (1.0 - q)
    return (power_sum**s - 1.0) / ((1.0 - q) * s)


def _reference_decomposition_value(iso, source, params):
    """Each member of the isometry's decomposition, its Schmidt spectrum from an SVD."""
    total = 0.0
    for member in iso @ source:
        sv2 = np.linalg.svd(member.reshape(2, 2), compute_uv=False) ** 2
        weight = float(np.sum(sv2))
        if weight > 0.0:
            total += weight * _reference_entropy(sv2 / weight, params)
    return total


_unit = st.floats(-1.0, 1.0)
_q_not_one = st.floats(1.2, 4.0)
_regime_params = st.one_of(
    st.builds(UEParams, st.just(1.0), st.floats(0.0, 1.5)),  # q_near_1
    st.builds(UEParams, _q_not_one, st.just(0.0)),  # s_near_0
    st.builds(UEParams, _q_not_one, st.just(1.0)),  # s_near_1
    st.builds(UEParams, _q_not_one, st.floats(0.1, 0.9)),  # generic
)


def _complex_array(data, shape):
    parts = data.draw(st.lists(_unit, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape)))
    return (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(shape)


def _isometries(data, batch, m, r):
    """Isometries from the QR of drawn complex matrices, kept away from rank loss."""
    z = _complex_array(data, (batch, m, r)) + np.eye(m, r)
    return np.linalg.qr(z)[0]


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(m=st.integers(2, 4), batch=st.integers(1, 3), params=_regime_params, data=st.data())
def test_decomposition_values_match_reference(m, batch, params, data):
    source = _complex_array(data, (2, 4))
    iso = _isometries(data, batch, m, 2)
    got, grads = _decomposition_values(iso, source, params)
    assert got.shape == (batch,) and grads.shape == iso.shape
    for b in range(batch):
        assert abs(got[b] - _reference_decomposition_value(iso[b], source, params)) <= 1e-13


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(m=st.integers(2, 4), params=_regime_params, data=st.data())
def test_decomposition_gradient_matches_central_difference(m, params, data):
    # along any direction V the value moves at 2 Re <G, V>; compared with a
    # central difference relative to the largest rate, 2 |G| |V|
    source = _complex_array(data, (2, 4))
    iso = _isometries(data, 1, m, 2)
    direction = _complex_array(data, (1, m, 2))
    h = 1e-6
    _, grads = _decomposition_values(iso, source, params)
    rate = 2.0 * np.sum((grads.conj() * direction).real)
    ahead, _ = _decomposition_values(iso + h * direction, source, params)
    behind, _ = _decomposition_values(iso - h * direction, source, params)
    scale = 2.0 * np.linalg.norm(grads) * np.linalg.norm(direction)
    assert abs((ahead[0] - behind[0]) / (2.0 * h) - rate) <= 1e-6 * scale


def test_decomposition_value_near_product_member():
    # the small eigenvalue 1e-18 of diag(1, 1e-9) would round to 0 as
    # (w - g) / 2w, and at q < 1 it carries most of the entropy
    params = UEParams(0.3, 0.5)
    source = np.array([[1.0, 0.0, 0.0, 1e-9]], dtype=complex)
    value, _ = _decomposition_values(np.ones((1, 1, 1), dtype=complex), source, params)
    weight = 1.0 + 1e-18
    want = weight * _entropy_rows(np.array([[1.0, 1e-18]]), params)[0]
    assert want > 1e-6
    assert value[0] == pytest.approx(want, rel=1e-12)


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(m=st.integers(2, 4), batch=st.integers(1, 3), data=st.data())
def test_orthonormal_matches_qr(m, batch, data):
    # the Q factor whose R has a positive real diagonal is unique, so two-column
    # Gram-Schmidt must agree with Householder QR once QR's diagonal phases move into Q
    x = _complex_array(data, (batch, m, 2)) + np.eye(m, 2)
    assume(np.all(np.linalg.cond(x) <= 10.0))
    q, r = np.linalg.qr(x)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    want = q * (diag / np.abs(diag))[..., None, :]
    got = _orthonormal(x)
    assert np.max(np.abs(got - want)) <= 1e-14
    gram = np.conj(np.swapaxes(got, -1, -2)) @ got
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-14


def test_orthonormal_nearly_parallel_columns():
    # one projection leaves the second column off orthogonal by about eps times
    # the condition number (1e-9 here); the repeated projection removes that
    rng = np.random.default_rng(0)
    first = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    nudge = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
    got = _orthonormal(np.stack((first, first + 1e-7 * nudge), axis=-1))
    gram = np.conj(np.swapaxes(got, -1, -2)) @ got
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-14


@pytest.mark.parametrize("sites, seed", [((1, 2), 2), ((1, 3), 3), ((2, 4), 5)])
def test_roof_stops_at_the_rounding_floor(example1, example1_vec, monkeypatch, sites, seed):
    # once a restart's predicted decrease is below one rounding unit of its value,
    # only rounding can pass the strict-decrease test, so the restart ends there
    calls = []
    kernel = unified._decomposition_values

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(unified, "_decomposition_values", counted)
    roof = gm.convex_roof_ue_rank2(gm.reduce(example1_vec, sites), P21, rng=seed)
    target = gm.f_qs(gm.pair_concurrence(example1, sites[:1], sites[1:]), P21)
    assert len(calls) <= 10
    assert abs(roof - target) <= 1e-15


_PRODUCT_FACTOR = np.array([0.6, 0.8j])


@pytest.mark.parametrize(
    "entries",
    [
        np.diag([0.3, 0.0, 0.0, 0.7]),  # a classical mixture
        np.kron(np.diag([0.3, 0.7]), np.outer(_PRODUCT_FACTOR, _PRODUCT_FACTOR.conj())),
    ],
    ids=["classical-mixture", "product"],
)
@pytest.mark.parametrize("params", [P21, UEParams(2.5, 0.25), UEParams(1.0, 0.5)], ids=str)
def test_roof_keeps_a_restart_that_stops_at_once(monkeypatch, entries, params):
    # the eigendecomposition start is the minimiser here (every member is a product,
    # value 0) and stops at once; the restart batch drops it while the random
    # restarts go on (on the product state every decomposition has value 0, so
    # all stop at once), and the returned value must still be the best start value
    batches = []
    kernel = unified._decomposition_values

    def spied(u, source, params):
        values, grads = kernel(u, source, params)
        batches.append((len(u), values.copy()))
        return values, grads

    monkeypatch.setattr(unified, "_decomposition_values", spied)
    roof = gm.convex_roof_ue_rank2(gm.DensityMatrix((2, 2), entries), params, rng=11)
    (first_size, starts), *later = batches
    assert starts[0] == 0.0 and first_size == 21
    assert all(size < first_size for size, _ in later)  # the eigen start left the batch
    assert roof <= starts.min()
    assert roof == 0.0 and math.copysign(1.0, roof) == 1.0


def test_roof_matches_analytic_map_tightly_inside_region_r():
    # criterion 07's grid lies inside R, where the roof is the map; away from weak
    # pairs (C >= 1e-2) the search reaches it to rounding of the value
    grid = [(1.2, 0.4), (2.0, 1.0), (2.0, 0.6), (3.0, 0.9), (1.0, 0.5), (2.5, 0.25)]
    rng = np.random.default_rng(20261020)
    solved = 0
    while solved < 24:
        state = random_gw_state(rng, n_hi=6, d_hi=3)
        sites = sorted(int(x) for x in rng.choice(np.arange(1, state.n + 1), 2, replace=False))
        c = gm.pair_concurrence(state, sites[:1], sites[1:])
        if c < 1e-2:
            continue
        params = UEParams(*grid[solved % len(grid)])
        assert gm.in_region_r(params)
        rho = gm.reduce(gm.to_state_vector(state), sites)
        roof = gm.convex_roof_ue_rank2(rho, params, rng=int(rng.integers(0, 2**31)))
        assert abs(roof - gm.f_qs(c, params)) <= 1e-13
        solved += 1


def _generic_rank2(seed):
    rng = np.random.default_rng(seed)
    vecs = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
    mix = 0.6 * np.outer(vecs[:, 0], vecs[:, 0].conj())
    mix += 0.4 * np.outer(vecs[:, 1], vecs[:, 1].conj())
    return gm.DensityMatrix((2, 2), mix)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_roof_single_restart(seed):
    # one random restart runs beside the eigendecomposition start, which on
    # a generic two-qubit state is no stationary point either
    rho = _generic_rank2(seed)
    params = UEParams(2.0, 0.6)
    target = gm.f_qs(gm.wootters_concurrence(rho), params)
    assert gm.convex_roof_ue_rank2(rho, params, restarts=1) == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_roof_single_restart_leaves_the_stationary_start(example1_vec, seed):
    # the eigendecomposition of a GW two-site reduction is a stationary point
    # above the roof, so the one requested restart must start elsewhere
    rho = gm.reduce(example1_vec, (1, 2))
    target = gm.f_qs(gm.wootters_concurrence(rho), P21)
    assert target == pytest.approx(0.25, abs=1e-12)
    roof = gm.convex_roof_ue_rank2(rho, P21, restarts=1, rng=seed)
    assert roof == pytest.approx(target, abs=1e-10)


@pytest.mark.parametrize("size", [2, 3])
def test_roof_small_decompositions_reach_the_map(example1, example1_vec, size):
    # two members of equal concurrence already realise the roof of a rank-2 state
    rho = gm.reduce(example1_vec, (1, 3))
    target = gm.f_qs(gm.pair_concurrence(example1, (1,), (3,)), P21)
    roof = gm.convex_roof_ue_rank2(rho, P21, decomposition_size=size, rng=9)
    assert roof == pytest.approx(target, abs=1e-10)


def test_roof_qutrit_reduction():
    table = np.array([[0.5, 0.3j], [0.2 - 0.4j, 0.1], [0.45, -0.3 + 0.2j]])
    state = gm.make_gw_state(3, 3, table / np.linalg.norm(table))
    rho = gm.reduce(gm.to_state_vector(state), (1, 3))
    params = UEParams(1.2, 0.4)
    target = gm.f_qs(gm.pair_concurrence(state, (1,), (3,)), params)
    assert gm.convex_roof_ue_rank2(rho, params, rng=10) == pytest.approx(target, abs=1e-10)


def test_roof_sweep_cap_keeps_a_converged_restart():
    # the eigendecomposition of a classical mixture is optimal, so the restart
    # started there stops at once while the random ones still move at the cap
    rho = gm.DensityMatrix((2, 2), np.diag([0.3, 0.0, 0.0, 0.7]))
    with pytest.warns(RuntimeWarning, match="sweep cap"):
        roof = gm.convex_roof_ue_rank2(rho, P21, rng=11, max_sweeps=1)
    assert roof == pytest.approx(gm.f_qs(0.0, P21), abs=1e-10)


def test_roof_weak_pair_inside_region_r():
    # C = 1.2e-4 puts the roof near 7.2e-9, far below the scale of a roof
    # near 1, so the stops must be relative to the value
    state = gm.make_gw_state(4, 2, [1e-4, 0.6, 0.5, math.sqrt(0.39 - 1e-8)])
    rho = gm.reduce(gm.to_state_vector(state), (1, 2))
    target = gm.f_qs(gm.pair_concurrence(state, (1,), (2,)), P21)
    assert target == pytest.approx(7.2e-9, rel=1e-6)
    assert gm.convex_roof_ue_rank2(rho, P21, rng=0) == pytest.approx(target, rel=1e-6)


def test_roof_below_half_ends_without_cap(example1_vec):
    # at q < 1/2 the minima are not smooth and the restarts crawl; the stall
    # rule on the best value ends the solve well before the sweep cap (the
    # suite turns the cap's RuntimeWarning into an error)
    params = UEParams(0.3, 0.5)
    rho = gm.reduce(example1_vec, (1, 2))
    evals, vecs = np.linalg.eigh(rho.entries)
    eigen_value = sum(
        lam * _reference_decomposition_value(np.eye(1), vec.reshape(1, 4), params)
        for lam, vec in zip(evals, vecs.T)
        if lam > 1e-12
    )
    roof = gm.convex_roof_ue_rank2(rho, params, rng=12)
    assert 0.0 <= roof <= eigen_value
