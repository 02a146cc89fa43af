"""Monogamy inequality checkers and lower/upper bounds for W-class states.

Every checker returns a :class:`MonogamyReport` whose ``margin`` is oriented
so that ``margin >= 0`` means the inequality is satisfied, whatever its
direction.  Hypotheses are validated and reported, never silently assumed: a
checker raises :class:`HypothesisNotMet` instead of evaluating an inequality
whose preconditions fail, and a negative margin is only meaningful when
``hypotheses_ok`` is true.  One private skeleton carries every checker:
``_report`` alone orients the margin, squared monogamy is the ``alpha = 2``
case of the power core, and the two fractional-power bounds share one core.

Checkers take a :class:`GWState`, with or without a vacuum admixture (its
``vacuum_weight``), and raise ``TypeError`` for anything else.  Pair
entanglement values come from the reduction pipeline in
:mod:`gwmono.concurrence`; the published closed forms exist only for uniform W
block cuts and are used by :mod:`gwmono.residual` alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .concurrence import gw_block_concurrence_oracle
from .states import GWState, Partition, _require_gw, reduce, to_state_vector
from .unified import UEParams, g_qs, f_qs, in_region_r, ue_pure, unified_entropy

#: Additive slack used when asserting margins; every quantity chains several
#: floating-point formula evaluations.
MARGIN_TOL = 1e-9

_CROSS_CHECK_TOL = 1e-9
_HYP_SLACK = 1e-12


class HypothesisNotMet(Exception):
    """A stated precondition of an inequality does not hold for the inputs."""

    def __init__(self, failed: Sequence["Hypothesis"]):
        self.failed = tuple(failed)
        detail = "; ".join(f"{h.name}: {h.detail}" for h in self.failed)
        super().__init__(f"hypothesis not met: {detail}")


@dataclass(frozen=True, slots=True)
class Hypothesis:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True, slots=True)
class MonogamyReport:
    """One evaluated inequality instance; ``margin >= 0`` means it holds."""

    inequality_id: str
    lhs: float
    rhs: float
    margin: float
    hypotheses: tuple[Hypothesis, ...]
    params: dict = field(default_factory=dict)

    @property
    def hypotheses_ok(self) -> bool:
        return all(h.ok for h in self.hypotheses)

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "params": dict(self.params),
        }


def _require(hypotheses: Sequence[Hypothesis]) -> None:
    failed = [h for h in hypotheses if not h.ok]
    if failed:
        raise HypothesisNotMet(failed)


def _shared(build):
    """``build(*values)`` made once per distinct ``values`` and shared by every report.

    The cache key holds each value's type and sign as well, so ``2`` and
    ``2.0``, or ``-0.0`` and ``0.0``, keep their own detail strings.  A
    value that cannot be keyed (unhashable, or an int too large for a float)
    is built afresh.
    """
    cached = functools.lru_cache(maxsize=256, typed=True)(lambda signs, *values: build(*values))

    @functools.wraps(build)
    def shared(*values):
        try:
            return cached(tuple(math.copysign(1.0, v) for v in values), *values)
        except (TypeError, OverflowError):
            return build(*values)

    return shared


@_shared
def _region_at(q: float, s: float) -> Hypothesis:
    return Hypothesis("params_in_validity_region", in_region_r((q, s)), f"q={q}, s={s}")


def _region_hypothesis(params: UEParams) -> Hypothesis:
    return _region_at(params.q, params.s)


@_shared
def _alpha_hypothesis(alpha: float) -> Hypothesis:
    return Hypothesis("alpha_in_valid_range", alpha >= 2.0 or alpha <= 0.0, f"alpha={alpha}")


@_shared
def _three_blocks_hypothesis(r: int) -> Hypothesis:
    return Hypothesis("at_least_three_blocks_for_reversed_form", r >= 3, f"r={r}")


@_shared
def _s_hypothesis(s: float) -> Hypothesis:
    return Hypothesis("s_in_half_to_one", 0.5 <= s <= 1.0, f"s={s}")


@_shared
def _beta_hypothesis(beta: float) -> Hypothesis:
    return Hypothesis("beta_in_unit_interval", 0.0 <= beta <= 1.0, f"beta={beta}")


def _params_echo(params: UEParams, **extra) -> dict:
    echo = {
        "q": params.q,
        "s": params.s,
        "in_region": _region_hypothesis(params).ok,
        "basic_bounds": params.satisfies_basic_bounds,
    }
    echo.update(extra)
    return echo


def _report(
    inequality_id: str,
    lhs: float,
    rhs: float,
    hypotheses: Sequence[Hypothesis],
    params: dict,
    *,
    upper: bool = False,
) -> MonogamyReport:
    """Report ``lhs >= rhs``, or ``lhs <= rhs`` when ``upper``; ``margin >= 0`` means it holds."""
    return MonogamyReport(
        inequality_id=inequality_id,
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs if upper else lhs - rhs,
        hypotheses=tuple(hypotheses),
        params=params,
    )


def _focus_pair_ues(
    state: GWState, partition: Partition, focus: int, params: UEParams
) -> tuple[float, list[float]]:
    """One-versus-rest and focus-pair unified entanglement values via the oracle."""
    psi = to_state_vector(state)
    focus_block, others, rest = partition.split_focus(focus)
    c_lhs = gw_block_concurrence_oracle(psi, focus_block, rest)
    u_lhs = g_qs(c_lhs**2, params)
    if partition.covered_sites() == tuple(range(1, psi.n_sites + 1)):
        # pure-state cut: the entropy route must agree with the analytic map
        u_entropy = ue_pure(psi, focus_block, params)
        if abs(u_entropy - u_lhs) > _CROSS_CHECK_TOL:
            raise RuntimeError(
                f"entropy route {u_entropy!r} disagrees with analytic route {u_lhs!r}"
            )
    u_pairs = [
        g_qs(gw_block_concurrence_oracle(psi, focus_block, b) ** 2, params) for b in others
    ]
    return u_lhs, u_pairs


def _power_report(
    inequality_id: str,
    state: GWState,
    partition: Partition,
    focus: int,
    params: UEParams,
    alpha: float,
    hypotheses: Sequence[Hypothesis],
    extra: dict,
) -> MonogamyReport:
    """``U^alpha(focus|rest) >= sum_i U^alpha(focus, P_i)``; reversed when ``alpha <= 0``."""
    _require(hypotheses)
    u_lhs, u_pairs = _focus_pair_ues(state, partition, focus, params)
    reversed_form = alpha <= 0.0  # the reversed form is strict
    if reversed_form and (any(u <= 0.0 for u in u_pairs) or u_lhs <= 0.0):
        raise ValueError("non-positive entanglement value under a non-positive power")
    rhs = float(sum(u**alpha for u in u_pairs))
    echo = _params_echo(params, **extra, focus=focus, blocks=partition.blocks)
    return _report(inequality_id, u_lhs**alpha, rhs, hypotheses, echo, upper=reversed_form)


def check_squared_monogamy(
    state: GWState, partition: Partition, focus: int, params: UEParams
) -> MonogamyReport:
    """Squared-entanglement monogamy: ``U^2(focus|rest) >= sum_i U^2(focus, P_i)``."""
    region = _region_hypothesis(params)
    return _power_report("squared", state, partition, focus, params, 2.0, [region], {})


def check_power_monogamy(
    state: GWState, partition: Partition, focus: int, params: UEParams, alpha: float
) -> MonogamyReport:
    """Power-``alpha`` monogamy for ``alpha >= 2``; strictly reversed for ``alpha <= 0``.

    No statement exists for ``alpha`` in (0, 2).  The reversed form needs at
    least three blocks and strictly positive pair values.
    """
    alpha = float(alpha)
    hypotheses = [_region_hypothesis(params), _alpha_hypothesis(alpha)]
    if alpha <= 0.0:
        hypotheses.append(_three_blocks_hypothesis(partition.r))
    kind = "power-reversed" if alpha <= 0.0 else "power"
    return _power_report(kind, state, partition, focus, params, alpha, hypotheses, {"alpha": alpha})


def tightened_lower_bound(
    u12: float, u13: float, mu: float, h: float, p: float, alpha: float
) -> float:
    """Tightened lower bound ``p^(a/2-1) u12^a + ((mu+h)^(a/2) - p^(a/2-1) h^(a/2)) u13^a``.

    Requires ``mu >= 1``, ``h >= 1``, ``alpha >= 2``, the pair dominance
    ``u12^2 >= h u13^2`` and the tightening factor inside
    ``1 <= p <= 1 + mu u13^2 / u12^2``.  At ``p = 1`` this reduces to
    :func:`baseline_lower_bound` with exponent ratio 2.
    """
    if u12 < 0.0 or u13 < 0.0:
        raise ValueError("entanglement values must be non-negative")
    hypotheses = [
        Hypothesis("mu_at_least_1", mu >= 1.0, f"mu={mu}"),
        Hypothesis("h_at_least_1", h >= 1.0, f"h={h}"),
        Hypothesis("alpha_at_least_2", alpha >= 2.0, f"alpha={alpha}"),
        Hypothesis(
            "pair_dominance",
            u12**2 >= h * u13**2 - _HYP_SLACK,
            f"u12^2={u12**2!r} vs h*u13^2={h * u13**2!r}",
        ),
    ]
    if u12 == 0.0:
        _require(hypotheses)
        return 0.0  # both pair values vanish; the bound degenerates to zero
    p_cap = 1.0 + mu * u13**2 / u12**2
    hypotheses.append(
        Hypothesis(
            "p_in_admissible_range",
            1.0 - _HYP_SLACK <= p <= p_cap + _HYP_SLACK,
            f"p={p}, admissible [1, {p_cap!r}]",
        )
    )
    _require(hypotheses)
    half = alpha / 2.0
    return p ** (half - 1.0) * u12**alpha + (
        (mu + h) ** half - p ** (half - 1.0) * h**half
    ) * u13**alpha


def baseline_lower_bound(
    u12: float, u13: float, mu: float, h: float, alpha: float, gamma: float
) -> float:
    """Comparison bound ``u12^a + ((mu+h)^(a/g) - h^(a/g)) u13^a`` for ``a >= g >= 1``."""
    if u12 < 0.0 or u13 < 0.0:
        raise ValueError("entanglement values must be non-negative")
    _require(
        [
            Hypothesis("mu_at_least_1", mu >= 1.0, f"mu={mu}"),
            Hypothesis("h_at_least_1", h >= 1.0, f"h={h}"),
            Hypothesis("gamma_at_least_1", gamma >= 1.0, f"gamma={gamma}"),
            Hypothesis("alpha_at_least_gamma", alpha >= gamma, f"alpha={alpha}, gamma={gamma}"),
        ]
    )
    ratio = alpha / gamma
    return u12**alpha + ((mu + h) ** ratio - h**ratio) * u13**alpha


def chained_lower_bound(
    pair_ues: Sequence[float],
    tail_ues: Sequence[float],
    mus: Sequence[float],
    hs: Sequence[float],
    ps: Sequence[float],
    k: int,
    alpha: float,
) -> tuple[float, tuple[Hypothesis, ...]]:
    """Closed-form chained lower bound on ``U^alpha(A | B_1 ... B_{r-1})``.

    ``pair_ues[t-1]`` is ``U(A, B_t)`` and ``tail_ues[t-1]`` is
    ``U(A | B_t ... B_{r-1})`` for ``t = 1..r-1`` (so the last entries of the
    two lists coincide).  ``mus``, ``hs`` and ``ps`` have length ``r-2``.
    Steps ``t <= k`` require the pair to dominate the tail and admit
    ``1 <= p_t <= 1 + mu_t tail^2 / pair^2``; steps ``t > k`` swap the roles
    and admit ``1 <= p_t <= mu_t pair^2 / tail^2``.  The returned value
    equals folding :func:`tightened_lower_bound` step by step.
    """
    pair = [float(u) for u in pair_ues]
    tail = [float(u) for u in tail_ues]
    r = len(pair) + 1
    if r < 4:
        raise ValueError(f"need at least three pair values (r >= 4), got {len(pair)}")
    if len(tail) != r - 1:
        raise ValueError(f"tail list must have length {r - 1}, got {len(tail)}")
    if not (len(mus) == len(hs) == len(ps) == r - 2):
        raise ValueError(f"mu/h/p lists must have length {r - 2}")
    if not 1 <= k <= r - 3:
        raise ValueError(f"need 1 <= k <= {r - 3}, got k={k}")

    hypotheses: list[Hypothesis] = [
        Hypothesis("alpha_at_least_2", alpha >= 2.0, f"alpha={alpha}"),
        Hypothesis("mus_at_least_1", all(m >= 1.0 for m in mus), f"mus={list(mus)}"),
        Hypothesis("hs_at_least_1", all(x >= 1.0 for x in hs), f"hs={list(hs)}"),
        Hypothesis(
            "tail_end_matches_last_pair",
            abs(tail[-1] - pair[-1]) <= 1e-9,
            f"tail={tail[-1]!r}, pair={pair[-1]!r}",
        ),
    ]
    for t in range(1, r - 1):  # 1-based step index
        mu_t, h_t, p_t = mus[t - 1], hs[t - 1], ps[t - 1]
        pair_sq = pair[t - 1] ** 2
        next_sq = tail[t] ** 2
        this_sq = tail[t - 1] ** 2
        # the pair dominates the tail up to step k and the tail the pair after it
        if t <= k:
            big, small, big_sq, small_sq = "pair", "tail", pair_sq, next_sq
        else:
            big, small, big_sq, small_sq = "tail", "pair", next_sq, pair_sq
        ratio = math.inf if big_sq == 0.0 else mu_t * small_sq / big_sq
        cap = 1.0 + ratio if t <= k else ratio
        hypotheses.extend(
            [
                Hypothesis(
                    f"{big}_dominates_{small}[{t}]",
                    big_sq >= h_t * small_sq - _HYP_SLACK,
                    f"{big}^2={big_sq!r}, h*{small}^2={h_t * small_sq!r}",
                ),
                Hypothesis(
                    f"tail_decomposition[{t}]",
                    this_sq >= big_sq + mu_t * small_sq - _HYP_SLACK,
                    f"tail^2={this_sq!r} vs {big_sq + mu_t * small_sq!r}",
                ),
                Hypothesis(
                    f"p_in_admissible_range[{t}]",
                    1.0 - _HYP_SLACK <= p_t <= cap + _HYP_SLACK,
                    f"p={p_t}, admissible [1, {cap!r}]",
                ),
            ]
        )
    _require(hypotheses)

    half = alpha / 2.0
    bound = -0.0  # -0.0 + x is x bit for bit, so the first term enters unchanged
    lead = 1.0  # product of the step weights gamma_1 .. gamma_{min(t-1, k)}
    run = 1.0  # product of p_l^(alpha/2 - 1) over the steps l = k+1 .. t-1
    for t in range(1, r - 1):
        p_pow = ps[t - 1] ** (half - 1.0)
        gamma = (mus[t - 1] + hs[t - 1]) ** half - p_pow * hs[t - 1] ** half
        if t <= k:
            bound += lead * p_pow * pair[t - 1] ** alpha
            lead *= gamma
        else:
            bound += lead * run * gamma * pair[t - 1] ** alpha
            run *= p_pow
    bound += lead * run * pair[r - 2] ** alpha
    return bound, tuple(hypotheses)


def check_tightened(
    state: GWState,
    partition: Partition,
    params: UEParams,
    mu: float,
    h: float,
    p: float,
    alpha: float,
) -> MonogamyReport:
    """Tightened three-block bound: ``U^alpha(P1|P2 P3) >=`` :func:`tightened_lower_bound`."""
    if partition.r != 3:
        raise ValueError(f"need exactly three blocks, got {partition.r}")
    region = _region_hypothesis(params)
    _require([region])
    u_lhs, (u12, u13) = _focus_pair_ues(state, partition, 0, params)
    feasibility = Hypothesis(
        "mu_feasible_for_state",
        u_lhs**2 >= u12**2 + mu * u13**2 - _HYP_SLACK,
        f"lhs^2={u_lhs**2!r} vs u12^2 + mu*u13^2={u12**2 + mu * u13**2!r}",
    )
    _require([feasibility])
    bound = tightened_lower_bound(u12, u13, mu, h, p, alpha)
    echo = _params_echo(
        params, alpha=alpha, mu=mu, h=h, tightening_factor=p, blocks=partition.blocks
    )
    return _report("tightened", u_lhs**alpha, bound, (region, feasibility), echo)


def check_chained(
    state: GWState,
    partition: Partition,
    params: UEParams,
    k: int,
    mus: Sequence[float],
    hs: Sequence[float],
    ps: Sequence[float],
    alpha: float,
) -> MonogamyReport:
    """Multi-block chained bound with the first block as the focus side."""
    if partition.r < 4:
        raise ValueError(f"need at least four blocks, got {partition.r}")
    region = _region_hypothesis(params)
    _require([region])
    psi = to_state_vector(state)
    focus = partition.blocks[0]
    tails = partition.blocks[1:]
    pair_ues = [
        g_qs(gw_block_concurrence_oracle(psi, focus, b) ** 2, params) for b in tails
    ]
    tail_ues = []
    for t in range(len(tails)):
        rest = tuple(s for b in tails[t:] for s in b)
        tail_ues.append(g_qs(gw_block_concurrence_oracle(psi, focus, rest) ** 2, params))
    bound, hypotheses = chained_lower_bound(pair_ues, tail_ues, mus, hs, ps, k, alpha)
    echo = _params_echo(
        params,
        alpha=alpha,
        k=k,
        mus=list(mus),
        hs=list(hs),
        tightening_factors=list(ps),
        blocks=partition.blocks,
    )
    return _report("chained", tail_ues[0] ** alpha, bound, (region,) + hypotheses, echo)


def _beta_report(
    state: GWState, site_a: int, site_b: int, beta: float, s: float, *, upper: bool
) -> MonogamyReport:
    """``U^beta(rho_ab)`` against ``X^beta + Y^beta`` (``upper``) or ``|X^beta - Y^beta|``.

    ``X`` (``Y``) is the sum of the analytic pair values seen from site ``a``
    (``b``), each including the ``(a, b)`` pair itself, at ``q = 2``.
    """
    _require_gw(state)
    n = state.n
    if site_a == site_b or not (1 <= site_a <= n and 1 <= site_b <= n):
        raise ValueError(f"need two distinct sites in 1..{n}")
    if n < 3:
        raise ValueError("need at least one site outside the chosen pair")
    hypotheses = [_s_hypothesis(s), _beta_hypothesis(beta)]
    _require(hypotheses)
    params = UEParams(q=2.0, s=s)
    psi = to_state_vector(state)
    others = [c for c in range(1, n + 1) if c not in (site_a, site_b)]
    f_ab = f_qs(gw_block_concurrence_oracle(psi, (site_a,), (site_b,)), params)
    x_side = f_ab + sum(
        f_qs(gw_block_concurrence_oracle(psi, (site_a,), (c,)), params) for c in others
    )
    y_side = f_ab + sum(
        f_qs(gw_block_concurrence_oracle(psi, (site_b,), (c,)), params) for c in others
    )
    lhs = unified_entropy(reduce(psi, (site_a, site_b)), params) ** beta
    rhs = x_side**beta + y_side**beta if upper else abs(x_side**beta - y_side**beta)
    echo = _params_echo(
        params, beta=beta, site_a=site_a, site_b=site_b, x_side=x_side, y_side=y_side
    )
    kind = "beta-upper" if upper else "beta-lower"
    return _report(kind, lhs, rhs, hypotheses, echo, upper=upper)


def check_beta_lower_bound(
    state: GWState, site_a: int, site_b: int, beta: float, s: float
) -> MonogamyReport:
    """Fractional-power lower bound across the two-site cut at ``q = 2``.

    ``U^beta(rho_ab) >= |X^beta - Y^beta|`` with ``X`` (``Y``) the sum of the
    analytic pair values seen from site ``a`` (``b``).
    """
    return _beta_report(state, site_a, site_b, beta, s, upper=False)


def check_beta_upper_bound(
    state: GWState, site_a: int, site_b: int, beta: float, s: float
) -> MonogamyReport:
    """Fractional-power upper bound ``U^beta(rho_ab) <= X^beta + Y^beta`` at ``q = 2``."""
    return _beta_report(state, site_a, site_b, beta, s, upper=True)


def bound_comparison_series(
    u_lhs: float,
    u12: float,
    u13: float,
    *,
    mu: float,
    h: float,
    p_values: Sequence[float],
    gamma: float,
    alphas: Iterable[float],
) -> list[dict]:
    """Exact power values against the tightened and baseline bounds on a power sweep.

    Returns one row per ``alpha`` with keys ``alpha``, ``exact``,
    ``tightened_p<p>`` per tightening factor, and ``baseline``.
    """
    rows = []
    for alpha in alphas:
        row = {"alpha": float(alpha), "exact": u_lhs ** float(alpha)}
        for p in p_values:
            row[f"tightened_p{p:g}"] = tightened_lower_bound(u12, u13, mu, h, p, alpha)
        row["baseline"] = baseline_lower_bound(u12, u13, mu, h, alpha, gamma)
        rows.append(row)
    return rows
