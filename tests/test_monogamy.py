import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwmono as gm
from gwmono.monogamy import Hypothesis, HypothesisNotMet
from gwmono.unified import UEParams
from conftest import (
    chained_lower_bound_folded,
    fractional_power_gaps,
    gw_states,
    power_difference_gap,
    random_gw_state,
    random_partition,
)

P21 = UEParams(2.0, 1.0)


def three_site_partition():
    return gm.Partition(((1,), (2,), (3,)))


def test_squared_monogamy_example1(example1):
    rep = gm.check_squared_monogamy(example1, three_site_partition(), 0, P21)
    assert rep.lhs == pytest.approx(0.1681, abs=1e-12)
    assert rep.rhs == pytest.approx(0.0881, abs=1e-12)
    assert rep.margin == pytest.approx(0.08, abs=1e-12)
    assert rep.hypotheses_ok


def test_squared_monogamy_two_blocks_is_equality(example1):
    part = gm.Partition(((1,), (2, 3, 4)))
    rep = gm.check_squared_monogamy(example1, part, 0, P21)
    assert abs(rep.margin) < 1e-9


def test_squared_monogamy_region_refusal(example1):
    with pytest.raises(HypothesisNotMet, match="validity_region"):
        gm.check_squared_monogamy(example1, three_site_partition(), 0, UEParams(0.5, 1.0))


_CHECKER_CALLS = {
    "squared": lambda st: gm.check_squared_monogamy(st, three_site_partition(), 0, P21),
    "power": lambda st: gm.check_power_monogamy(st, three_site_partition(), 0, P21, 2.0),
    "tightened": lambda st: gm.check_tightened(
        st, three_site_partition(), P21, mu=1.0, h=1.0, p=1.0, alpha=2.0
    ),
    "chained": lambda st: gm.check_chained(
        st, gm.Partition(((1,), (2,), (3,), (4,))), P21,
        k=1, mus=[1.0, 1.0], hs=[1.0, 1.0], ps=[1.0, 1.0], alpha=2.0,
    ),
    "beta-lower": lambda st: gm.check_beta_lower_bound(st, 1, 2, 1.0, 0.5),
    "beta-upper": lambda st: gm.check_beta_upper_bound(st, 1, 2, 1.0, 0.5),
    "residual-chain": lambda st: gm.residual_chain_check(st, gm.BlockCut(4, 2, 1, 3), P21),
}


@pytest.mark.parametrize("name", sorted(_CHECKER_CALLS))
def test_checkers_reject_dense_vectors(example1, name):
    # every hypothesis checked before the state is read holds, so only the input type can refuse
    with pytest.raises(TypeError, match="expected GWState, got PureStateVector"):
        _CHECKER_CALLS[name](gm.to_state_vector(example1))


@pytest.mark.parametrize("name", sorted(_CHECKER_CALLS))
def test_checkers_build_the_dense_vector_once(example1, monkeypatch, name):
    calls = []

    def counting(state):
        calls.append(state)
        return gm.to_state_vector(state)

    monkeypatch.setattr("gwmono.monogamy.to_state_vector", counting)
    monkeypatch.setattr("gwmono.residual.to_state_vector", counting)
    try:
        _CHECKER_CALLS[name](example1)
    except HypothesisNotMet:
        assert name == "chained"  # its step hypotheses fail only after the pair values
    assert calls == [example1]


def test_squared_monogamy_random_sample():
    rng = np.random.default_rng(51)
    grid = [UEParams(q, s) for q in (1.0, 2.0, 3.5) for s in (0.3, 0.75, 1.0)]
    for _ in range(50):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        part = random_partition(rng, st.n)
        params = grid[int(rng.integers(0, len(grid)))]
        rep = gm.check_squared_monogamy(st, part, 0, params)
        assert rep.margin >= -1e-9


def test_power_monogamy_alpha_two_matches_squared(example1):
    squared = gm.check_squared_monogamy(example1, three_site_partition(), 0, P21)
    power = gm.check_power_monogamy(example1, three_site_partition(), 0, P21, 2.0)
    assert power.lhs == pytest.approx(squared.lhs, abs=1e-14)
    assert power.rhs == pytest.approx(squared.rhs, abs=1e-14)
    # squared is the alpha = 2 case of the power check, bit for bit
    rng = np.random.default_rng(53)
    for _ in range(30):
        state = random_gw_state(rng, n_hi=6, d_hi=3)
        part = random_partition(rng, state.n)
        focus = int(rng.integers(0, part.r))
        squared = gm.check_squared_monogamy(state, part, focus, P21)
        power = gm.check_power_monogamy(state, part, focus, P21, 2)
        assert (power.lhs, power.rhs, power.margin) == (squared.lhs, squared.rhs, squared.margin)


def test_power_monogamy_alpha_three(example1):
    rep = gm.check_power_monogamy(example1, three_site_partition(), 0, P21, 3.0)
    assert rep.lhs == pytest.approx(0.41**3, abs=1e-12)
    assert rep.rhs == pytest.approx(0.25**3 + 0.16**3, abs=1e-12)
    assert rep.margin > 0


def test_power_monogamy_reversed(example1):
    rep = gm.check_power_monogamy(example1, three_site_partition(), 0, P21, -1.0)
    assert rep.inequality_id == "power-reversed"
    assert rep.lhs == pytest.approx(1 / 0.41, abs=1e-12)
    assert rep.rhs == pytest.approx(1 / 0.25 + 1 / 0.16, abs=1e-12)
    assert rep.margin > 0  # strict


def test_power_monogamy_gap_refusals(example1):
    with pytest.raises(HypothesisNotMet, match="alpha"):
        gm.check_power_monogamy(example1, three_site_partition(), 0, P21, 1.0)
    # two blocks cannot carry the strictly reversed form
    part = gm.Partition(((1,), (2, 3, 4)))
    with pytest.raises(HypothesisNotMet, match="three_blocks"):
        gm.check_power_monogamy(example1, part, 0, P21, -1.0)


def test_power_monogamy_zero_pair_domain_error():
    # site 3 carries no excitation, so the (1,3) pair value vanishes
    st = gm.make_gw_state(3, 2, [math.sqrt(0.5), math.sqrt(0.5), 0.0])
    with pytest.raises(ValueError, match="non-positive"):
        gm.check_power_monogamy(st, three_site_partition(), 0, P21, -0.5)


def test_tightened_bound_example1_alpha2():
    # mu = 4, h = 1 keeps the example inside every hypothesis
    bound = gm.tightened_lower_bound(0.25, 0.16, mu=4.0, h=1.0, p=1.3, alpha=2.0)
    assert bound == pytest.approx(0.0625 + 4 * 0.0256, abs=1e-14)
    assert bound <= 0.1681


def test_tightened_bound_alpha4_value():
    bound = gm.tightened_lower_bound(0.25, 0.16, mu=4.0, h=1.0, p=2.6, alpha=4.0)
    assert bound == pytest.approx(0.024836314, abs=1e-9)


def test_tightened_reduces_to_baseline_at_p_one():
    for alpha in (2.0, 3.0, 4.5):
        tight = gm.tightened_lower_bound(0.25, 0.16, mu=4.0, h=1.0, p=1.0, alpha=alpha)
        base = gm.baseline_lower_bound(0.25, 0.16, mu=4.0, h=1.0, alpha=alpha, gamma=2.0)
        assert tight == pytest.approx(base, abs=1e-15)


def test_tightened_bound_p_ceiling_refusal():
    with pytest.raises(HypothesisNotMet, match="p_in_admissible_range"):
        gm.tightened_lower_bound(0.25, 0.16, mu=4.0, h=1.0, p=5.0, alpha=4.0)


def test_tightened_bound_pair_dominance_refusal():
    with pytest.raises(HypothesisNotMet, match="pair_dominance"):
        gm.tightened_lower_bound(0.16, 0.25, mu=4.0, h=1.0, p=1.0, alpha=2.0)


def test_tightened_bound_degenerate_zero():
    assert gm.tightened_lower_bound(0.0, 0.0, mu=2.0, h=1.0, p=1.0, alpha=2.0) == 0.0


def test_tightened_dominates_baseline():
    rng = np.random.default_rng(61)
    for _ in range(300):
        u13 = rng.uniform(0.0, 0.5)
        h = rng.uniform(1.0, 3.0)
        u12 = math.sqrt(h) * u13 + rng.uniform(0.0, 0.5)
        mu = rng.uniform(1.0, 4.0)
        alpha = rng.uniform(2.0, 6.0)
        cap = 1.0 + mu * u13**2 / u12**2 if u12 > 0 else 1.0
        p = rng.uniform(1.0, cap)
        tight = gm.tightened_lower_bound(u12, u13, mu=mu, h=h, p=p, alpha=alpha)
        base = gm.baseline_lower_bound(u12, u13, mu=mu, h=h, alpha=alpha, gamma=2.0)
        assert tight >= base - 1e-12


def test_tightened_soundness_random_states():
    rng = np.random.default_rng(71)
    count = 0
    for _ in range(500):
        if count >= 40:
            break
        st = random_gw_state(rng, n_lo=3, n_hi=6, d_hi=3)
        part = random_partition(rng, st.n, min_blocks=3, max_blocks=3, subset_ok=False)
        if part.r != 3:
            continue
        params = UEParams(2.0, 1.0)
        try:
            rep = gm.check_tightened(
                st, part, params, mu=1.0, h=1.0, p=1.2, alpha=3.0
            )
        except HypothesisNotMet:
            continue  # the sampled labelling does not satisfy the preconditions
        assert rep.margin >= -1e-9
        count += 1
    assert count >= 40


def test_baseline_bound_values():
    assert gm.baseline_lower_bound(
        0.25, 0.16, mu=4.0, h=1.0, alpha=4.0, gamma=2.0
    ) == pytest.approx(0.01963489, abs=1e-8)
    # alpha = gamma collapses the weight to mu
    assert gm.baseline_lower_bound(
        0.25, 0.16, mu=3.0, h=1.5, alpha=2.0, gamma=2.0
    ) == pytest.approx(0.25**2 + 3.0 * 0.16**2, abs=1e-14)
    with pytest.raises(HypothesisNotMet):
        gm.baseline_lower_bound(0.25, 0.16, mu=4.0, h=1.0, alpha=1.5, gamma=2.0)


def chained_fixture():
    """Four-qubit state whose site weights make both hypothesis families hold."""
    coeffs = np.sqrt(np.array([0.25, 0.45, 0.15, 0.15]))
    st = gm.make_gw_state(4, 2, coeffs)
    part = gm.Partition(((1,), (2,), (3,), (4,)))
    return st, part, dict(k=1, mus=(4.0, 1.0), hs=(1.0, 1.0), ps=(2.0, 1.0))


def test_chained_check_holds():
    st, part, kw = chained_fixture()
    rep = gm.check_chained(st, part, P21, alpha=3.0, **kw)
    assert rep.hypotheses_ok
    assert rep.margin >= -1e-9


def test_chained_closed_form_matches_fold():
    st, part, kw = chained_fixture()
    psi = gm.to_state_vector(st)
    pair_ues = [
        gm.g_qs(gm.gw_block_concurrence_oracle(psi, (1,), (t,)) ** 2, P21)
        for t in (2, 3, 4)
    ]
    tails = []
    for t in (2, 3, 4):
        rest = tuple(range(t, 5))
        tails.append(gm.g_qs(gm.gw_block_concurrence_oracle(psi, (1,), rest) ** 2, P21))
    for alpha in (2.0, 3.0, 4.5):
        closed, hyps = gm.chained_lower_bound(
            pair_ues, tails, kw["mus"], kw["hs"], kw["ps"], kw["k"], alpha
        )
        folded = chained_lower_bound_folded(
            pair_ues, kw["mus"], kw["hs"], kw["ps"], kw["k"], alpha
        )
        assert closed == pytest.approx(folded, abs=1e-12)
        assert all(h.ok for h in hyps)


def test_chained_unit_factors_reduce_to_simple_weights():
    # with every mu = h = p = 1 each step weight is 2^(alpha/2) - 1; unit
    # factors force the step hypotheses into equalities, hence these values
    pair = [0.5, 0.2, 0.2]
    tail = [math.sqrt(0.25 + 0.04 + 0.04), math.sqrt(0.04 + 0.04), 0.2]
    alpha = 3.0
    ones = (1.0, 1.0)
    closed, _ = gm.chained_lower_bound(pair, tail, ones, ones, ones, 1, alpha)
    gamma = 2 ** (alpha / 2) - 1
    expected = pair[0] ** alpha + gamma**2 * pair[1] ** alpha + gamma * pair[2] ** alpha
    # the same value through the explicit fold
    assert closed == pytest.approx(
        chained_lower_bound_folded(pair, ones, ones, ones, 1, alpha), abs=1e-14
    )
    assert closed == pytest.approx(expected, abs=1e-14)


def test_chained_alpha_two_weights_are_mu():
    st, part, kw = chained_fixture()
    psi = gm.to_state_vector(st)
    pair_ues = [
        gm.g_qs(gm.gw_block_concurrence_oracle(psi, (1,), (t,)) ** 2, P21)
        for t in (2, 3, 4)
    ]
    tails = []
    for t in (2, 3, 4):
        rest = tuple(range(t, 5))
        tails.append(gm.g_qs(gm.gw_block_concurrence_oracle(psi, (1,), rest) ** 2, P21))
    closed, _ = gm.chained_lower_bound(
        pair_ues, tails, kw["mus"], kw["hs"], kw["ps"], kw["k"], 2.0
    )
    # at alpha = 2 every step weight collapses to mu_t and p drops out
    mus = kw["mus"]
    expected = pair_ues[0] ** 2 + mus[0] * (pair_ues[1] ** 2 + mus[1] * pair_ues[2] ** 2)
    assert closed == pytest.approx(expected, abs=1e-14)


def test_chained_validation_errors():
    with pytest.raises(ValueError, match="pair values"):
        gm.chained_lower_bound([0.5, 0.3], [0.5, 0.3], (), (), (), 1, 2.0)
    with pytest.raises(ValueError, match="length"):
        gm.chained_lower_bound([0.5, 0.3, 0.2], [0.5, 0.3], (1.0,), (1.0,), (1.0,), 1, 2.0)
    with pytest.raises(ValueError, match="k"):
        gm.chained_lower_bound(
            [0.5, 0.3, 0.2], [0.6, 0.4, 0.2], (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 2, 2.0
        )


def test_beta_lower_symmetric_state_has_zero_rhs():
    st = gm.uniform_w_state(4)
    rep = gm.check_beta_lower_bound(st, 1, 2, 0.5, 1.0)
    assert rep.rhs == pytest.approx(0.0, abs=1e-14)
    assert rep.margin >= 0.0


def test_beta_bounds_example1(example1):
    lower = gm.check_beta_lower_bound(example1, 1, 2, 1.0, 1.0)
    upper = gm.check_beta_upper_bound(example1, 1, 2, 1.0, 1.0)
    assert lower.margin >= -1e-9
    assert upper.margin >= -1e-9
    assert lower.hypotheses_ok and upper.hypotheses_ok


def test_beta_zero_power_is_trivial(example1):
    lower = gm.check_beta_lower_bound(example1, 1, 2, 0.0, 1.0)
    assert lower.rhs == pytest.approx(0.0, abs=1e-14)
    upper = gm.check_beta_upper_bound(example1, 1, 2, 0.0, 1.0)
    assert upper.rhs == pytest.approx(2.0, abs=1e-14)
    assert upper.lhs in (0.0, 1.0) or upper.lhs == pytest.approx(1.0)


def test_beta_hypothesis_refusals(example1):
    with pytest.raises(HypothesisNotMet, match="s_in_half_to_one"):
        gm.check_beta_lower_bound(example1, 1, 2, 0.5, 0.3)
    with pytest.raises(HypothesisNotMet, match="beta_in_unit_interval"):
        gm.check_beta_upper_bound(example1, 1, 2, 1.5, 1.0)


def test_beta_upper_documented_violation_below_s_one():
    # With one weak site the additive decomposition undershoots the true
    # marginal entropies for s < 1 and the upper bound genuinely fails; this
    # pins the witness so the behaviour is tracked, not hidden.
    weights = np.sqrt(np.array([0.02, 0.98 / 3, 0.98 / 3, 0.98 / 3]))
    st = gm.make_gw_state(4, 2, weights)
    rep = gm.check_beta_upper_bound(st, 1, 2, 1.0, 0.5)
    assert rep.hypotheses_ok
    assert rep.margin < -1e-3
    # the same instance is clean at s = 1 where the decomposition is exact
    assert gm.check_beta_upper_bound(st, 1, 2, 1.0, 1.0).margin >= -1e-9


def test_subadditivity_sandwich_on_reductions():
    rng = np.random.default_rng(81)
    for _ in range(40):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        psi = gm.to_state_vector(st)
        for s in (0.5, 0.75, 1.0):
            params = UEParams(2.0, s)
            u_a = gm.unified_entropy(gm.reduce(psi, (1,)), params)
            u_b = gm.unified_entropy(gm.reduce(psi, (2,)), params)
            u_ab = gm.unified_entropy(gm.reduce(psi, (1, 2)), params)
            assert u_ab >= abs(u_a - u_b) - 1e-9
            assert u_ab <= u_a + u_b + 1e-9


def test_power_difference_gap_values():
    assert power_difference_gap(1.0, 1.0, 1.5, 3.0) == 0.0
    assert power_difference_gap(2.0, 1.0, 1.5, 3.0) == pytest.approx(3.25, abs=1e-12)
    # p = 1 never needs the tightening correction
    assert power_difference_gap(2.0, 0.5, 1.0, 2.5) >= 0.0
    with pytest.raises(ValueError):
        power_difference_gap(1.0, 2.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        power_difference_gap(2.0, 1.0, 1.6, 2.0)  # p above 1 + 1/x


def test_fractional_power_gaps_values():
    assert fractional_power_gaps(3.0, 0.0, 0.7) == (0.0, 0.0)
    g1, g2 = fractional_power_gaps(5.0, 2.0, 1.0)
    assert g1 == pytest.approx(0.0, abs=1e-14)
    assert g2 == pytest.approx(0.0, abs=1e-14)
    g1, g2 = fractional_power_gaps(4.0, 1.0, 0.5)
    assert g1 == pytest.approx(math.sqrt(3) - 1, abs=1e-12)
    assert g2 == pytest.approx(3 - math.sqrt(5), abs=1e-12)
    with pytest.raises(ValueError):
        fractional_power_gaps(1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        fractional_power_gaps(2.0, 1.0, 1.2)


def test_scalar_gaps_mini_fuzz():
    rng = np.random.default_rng(91)
    n = 10**4
    x = rng.uniform(0.0, 3.0, n)
    h = x * rng.uniform(0.0, 1.0, n)
    m = rng.uniform(1.0, 5.0, n)
    cap = 1.0 + 1.0 / np.maximum(x, 1e-12)
    p = 1.0 + (np.minimum(cap, 10.0) - 1.0) * rng.uniform(0.0, 1.0, n)
    gap = (1 + x) ** m - p ** (m - 1) * x**m - (1 + h) ** m + p ** (m - 1) * h**m
    assert gap.min() >= -1e-12

    xx = rng.uniform(0.0, 10.0, n)
    yy = xx * rng.uniform(0.0, 1.0, n)
    bb = rng.uniform(0.0, 1.0, n)
    assert ((xx - yy) ** bb - (xx**bb - yy**bb)).min() >= -1e-12
    assert (xx**bb + yy**bb - (xx + yy) ** bb).min() >= -1e-12


def test_report_serialization(example1):
    rep = gm.check_squared_monogamy(example1, three_site_partition(), 0, P21)
    payload = rep.to_dict()
    assert set(payload) == {"inequality_id", "lhs", "rhs", "margin", "hypotheses", "params"}
    assert payload["hypotheses"][0].keys() == {"name", "ok", "detail"}
    assert payload["params"]["in_region"] is True


def test_reports_share_parameter_hypotheses(example1):
    # a hypothesis that reads only parameters is built once per value and shared
    part = gm.Partition(((1,), (2,), (3,), (4,)))
    first = gm.check_power_monogamy(example1, part, 0, UEParams(2, 1), -1.0)
    second = gm.check_squared_monogamy(example1, part, 1, UEParams(2.0, 1.0))
    assert first.hypotheses[0] is second.hypotheses[0]
    again = gm.check_power_monogamy(example1, part, 2, UEParams(2, 1), -1.0)
    assert all(a is b for a, b in zip(first.hypotheses, again.hypotheses))
    assert [h.detail for h in again.hypotheses] == ["q=2.0, s=1.0", "alpha=-1.0", "r=4"]
    lower = gm.check_beta_lower_bound(example1, 1, 2, 0.5, 0.75)
    upper = gm.check_beta_upper_bound(example1, 2, 3, 0.5, 0.75)
    assert all(a is b for a, b in zip(lower.hypotheses, upper.hypotheses))
    assert lower.params["in_region"] is gm.in_region_r((2.0, 0.75))


def test_shared_hypotheses_keep_sign_and_type(example1):
    # -0.0 equals 0.0 and 1 equals 1.0, but each prints its own detail
    region = [
        gm.check_squared_monogamy(example1, three_site_partition(), 0, UEParams(2, s)).hypotheses[0]
        for s in (0.0, -0.0, 0.0)
    ]
    assert [h.detail for h in region] == ["q=2.0, s=0.0", "q=2.0, s=-0.0", "q=2.0, s=0.0"]
    assert region[0] is region[2] and region[0] is not region[1]
    assert [h.ok for h in region] == [gm.in_region_r((2.0, 0.0))] * 3
    for s in (1, 1.0, 1):
        report = gm.check_beta_lower_bound(example1, 1, 2, 0.5, s)
        assert report.hypotheses[0].detail == f"s={s}"
    for beta in (-0.0, 0.0, -0.0):
        report = gm.check_beta_upper_bound(example1, 1, 2, beta, 0.5)
        assert report.hypotheses[1].detail == f"beta={beta}"
    for _ in range(2):  # nan equals nothing, not even itself: built and refused each time
        with pytest.raises(HypothesisNotMet, match="beta_in_unit_interval: beta=nan"):
            gm.check_beta_upper_bound(example1, 1, 2, float("nan"), 0.5)


def test_reports_are_slotted_values(example1):
    rep = gm.check_squared_monogamy(example1, three_site_partition(), 0, P21)
    hyp = rep.hypotheses[0]
    for obj in (rep, hyp):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, dataclasses.fields(obj)[0].name, None)
        # no slot for a new attribute: CPython 3.10-3.12 raise TypeError, not FrozenInstanceError
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
        assert copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
    assert rep == gm.check_squared_monogamy(example1, three_site_partition(), 0, P21)
    moved = dataclasses.replace(rep, margin=-1.0)
    assert moved.margin == -1.0 and moved.lhs == rep.lhs and moved != rep
    assert dataclasses.replace(hyp, ok=False) == Hypothesis(hyp.name, False, hyp.detail)
    assert rep.to_dict() == {
        "inequality_id": "squared",
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "margin": rep.margin,
        "hypotheses": [
            {"name": "params_in_validity_region", "ok": True, "detail": "q=2.0, s=1.0"}
        ],
        "params": {
            "q": 2.0,
            "s": 1.0,
            "in_region": True,
            "basic_bounds": True,
            "focus": 0,
            "blocks": ((1,), (2,), (3,)),
        },
    }
    assert pickle.loads(pickle.dumps(rep)).to_dict() == rep.to_dict()


def test_bound_comparison_series_ordering():
    rows = gm.bound_comparison_series(
        0.41, 0.25, 0.16, mu=4.0, h=1.0, p_values=(2.6, 1.8), gamma=2.0,
        alphas=np.linspace(2.0, 5.0, 61),
    )
    for row in rows:
        assert row["exact"] >= row["tightened_p2.6"] - 1e-12
        assert row["tightened_p2.6"] >= row["tightened_p1.8"] - 1e-12
        assert row["tightened_p1.8"] >= row["baseline"] - 1e-12


def _drawn_reports(state, data):
    """Every checker on ``state`` with drawn blocks and parameters; refusals give no report."""
    n = state.n
    draw = data.draw
    params = UEParams(draw(st.sampled_from([1.5, 2.0, 3.0])), draw(st.sampled_from([0.5, 1.0])))
    alpha = draw(st.sampled_from([2.0, 3.0, -1.0]))

    def partition(r):
        sites = draw(st.permutations(range(1, n + 1)))
        cut_at = st.lists(st.integers(1, n - 1), min_size=r - 1, max_size=r - 1, unique=True)
        cuts = sorted(draw(cut_at))
        return gm.Partition(tuple(tuple(sites[i:j]) for i, j in zip([0] + cuts, cuts + [n])))

    site_a, site_b = draw(st.permutations(range(1, n + 1)))[:2]
    beta, s = draw(st.floats(0.0, 1.0)), draw(st.sampled_from([0.5, 0.75, 1.0]))
    m = draw(st.integers(1, n - 1))
    cut = gm.BlockCut(n, m, draw(st.integers(1, m)), draw(st.integers(m + 1, n)))
    ones = [1.0] * 2
    calls = [
        lambda: gm.check_squared_monogamy(state, partition(draw(st.integers(2, 3))), 0, params),
        lambda: gm.check_power_monogamy(state, partition(3), 0, params, alpha),
        lambda: gm.check_tightened(state, partition(3), params, 1.0, 1.0, 1.0, abs(alpha)),
        lambda: gm.check_beta_lower_bound(state, site_a, site_b, beta, s),
        lambda: gm.check_beta_upper_bound(state, site_a, site_b, beta, s),
        lambda: gm.residual_chain_check(state, cut, params),
    ]
    if n >= 4:
        calls.append(
            lambda: gm.check_chained(state, partition(4), params, 1, ones, ones, ones, abs(alpha))
        )
    for call in calls:
        try:
            yield call()
        except HypothesisNotMet:
            continue
        except ValueError as exc:  # a zero pair value under a negative power
            assert "non-positive entanglement value" in str(exc)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(gw_states(), st.data())
def test_margin_orientation(state, data):
    # margin >= 0 means "holds" whatever the direction of the inequality
    for report in _drawn_reports(state, data):
        kind = report.inequality_id
        if kind in ("squared", "power", "tightened", "chained", "beta-lower"):
            assert report.margin == report.lhs - report.rhs
        elif kind in ("power-reversed", "beta-upper"):
            assert report.margin == report.rhs - report.lhs
        else:
            assert kind == "residual-chain"
            gaps = report.params["block_residual"], report.params["refine_gap"]
            assert report.margin == min(gaps)
