"""Monogamy inequality checkers and lower/upper bounds for W-class states.

Every checker returns a :class:`MonogamyReport` whose ``margin`` is oriented
so that ``margin >= 0`` means the inequality is satisfied, whatever its
direction.  Hypotheses are validated and reported, never silently assumed: a
checker raises :class:`HypothesisNotMet` instead of evaluating an inequality
whose preconditions fail, and a negative margin is only meaningful when
``hypotheses_ok`` is true.

Pair entanglement values are produced by the reduction pipeline in
:mod:`gwmono.concurrence`; the published closed forms exist only for uniform
W block cuts and are therefore not accepted here (use :mod:`gwmono.residual`
for those).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .concurrence import PairSource, gw_block_concurrence_oracle
from .states import (
    GWState,
    GWVState,
    Partition,
    PureStateVector,
    reduce,
    to_state_vector,
)
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


@dataclass(frozen=True)
class Hypothesis:
    name: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {"name": self.name, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
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

    def holds(self, tol: float = MARGIN_TOL) -> bool:
        return self.margin >= -tol

    def to_dict(self) -> dict:
        return {
            "inequality_id": self.inequality_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "hypotheses": [h.to_dict() for h in self.hypotheses],
            "params": dict(self.params),
        }


StateLike = Union[GWState, GWVState, PureStateVector]


def _as_vector(state: StateLike) -> PureStateVector:
    if isinstance(state, PureStateVector):
        return state
    return to_state_vector(state)


def _require(hypotheses: Sequence[Hypothesis]) -> None:
    failed = [h for h in hypotheses if not h.ok]
    if failed:
        raise HypothesisNotMet(failed)


def _region_hypothesis(params: UEParams) -> Hypothesis:
    return Hypothesis(
        "params_in_validity_region",
        in_region_r(params),
        f"q={params.q}, s={params.s}",
    )


def _params_echo(params: UEParams, **extra) -> dict:
    echo = {
        "q": params.q,
        "s": params.s,
        "in_region": in_region_r(params),
        "basic_bounds": params.satisfies_basic_bounds,
    }
    echo.update(extra)
    return echo


def _reject_printed(source: Union[PairSource, str]) -> None:
    if PairSource(source) is PairSource.PRINTED:
        raise ValueError(
            "printed closed forms exist only for uniform-W block cuts; "
            "use the residual module for that path"
        )


def _focus_pair_ues(
    psi: PureStateVector, partition: Partition, focus: int, params: UEParams
) -> tuple[float, list[float]]:
    """One-versus-rest and focus-pair unified entanglement values via the oracle."""
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


def check_squared_monogamy(
    state: StateLike,
    partition: Partition,
    focus: int,
    params: UEParams,
    source: Union[PairSource, str] = PairSource.ORACLE,
) -> MonogamyReport:
    """Squared-entanglement monogamy: ``U^2(focus|rest) >= sum_i U^2(focus, P_i)``."""
    _reject_printed(source)
    region = _region_hypothesis(params)
    _require([region])
    psi = _as_vector(state)
    u_lhs, u_pairs = _focus_pair_ues(psi, partition, focus, params)
    lhs = u_lhs**2
    rhs = float(sum(u**2 for u in u_pairs))
    return MonogamyReport(
        inequality_id="squared",
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        hypotheses=(region,),
        params=_params_echo(params, focus=focus, blocks=partition.blocks),
    )


def check_power_monogamy(
    state: StateLike,
    partition: Partition,
    focus: int,
    params: UEParams,
    alpha: float,
    source: Union[PairSource, str] = PairSource.ORACLE,
) -> MonogamyReport:
    """Power-``alpha`` monogamy for ``alpha >= 2``; strictly reversed for ``alpha <= 0``.

    No statement exists for ``alpha`` in (0, 2).  The reversed form needs at
    least three blocks and strictly positive pair values.
    """
    _reject_printed(source)
    alpha = float(alpha)
    region = _region_hypothesis(params)
    alpha_ok = Hypothesis(
        "alpha_in_valid_range", alpha >= 2.0 or alpha <= 0.0, f"alpha={alpha}"
    )
    hypotheses = [region, alpha_ok]
    if alpha <= 0.0:
        hypotheses.append(
            Hypothesis(
                "at_least_three_blocks_for_reversed_form",
                partition.r >= 3,
                f"r={partition.r}",
            )
        )
    _require(hypotheses)

    psi = _as_vector(state)
    u_lhs, u_pairs = _focus_pair_ues(psi, partition, focus, params)

    reversed_form = alpha <= 0.0
    if reversed_form and (any(u <= 0.0 for u in u_pairs) or u_lhs <= 0.0):
        raise ValueError("non-positive entanglement value under a non-positive power")
    lhs = u_lhs**alpha
    rhs = float(sum(u**alpha for u in u_pairs))
    return MonogamyReport(
        inequality_id="power-reversed" if reversed_form else "power",
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs if reversed_form else lhs - rhs,  # the reversed form is strict
        hypotheses=tuple(hypotheses),
        params=_params_echo(params, alpha=alpha, focus=focus, blocks=partition.blocks),
    )


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
        if t <= k:
            cap = math.inf if pair_sq == 0.0 else 1.0 + mu_t * next_sq / pair_sq
            hypotheses.extend(
                [
                    Hypothesis(
                        f"pair_dominates_tail[{t}]",
                        pair_sq >= h_t * next_sq - _HYP_SLACK,
                        f"pair^2={pair_sq!r}, h*tail^2={h_t * next_sq!r}",
                    ),
                    Hypothesis(
                        f"tail_decomposition[{t}]",
                        this_sq >= pair_sq + mu_t * next_sq - _HYP_SLACK,
                        f"tail^2={this_sq!r} vs {pair_sq + mu_t * next_sq!r}",
                    ),
                    Hypothesis(
                        f"p_in_admissible_range[{t}]",
                        1.0 - _HYP_SLACK <= p_t <= cap + _HYP_SLACK,
                        f"p={p_t}, admissible [1, {cap!r}]",
                    ),
                ]
            )
        else:
            cap = math.inf if next_sq == 0.0 else mu_t * pair_sq / next_sq
            hypotheses.extend(
                [
                    Hypothesis(
                        f"tail_dominates_pair[{t}]",
                        next_sq >= h_t * pair_sq - _HYP_SLACK,
                        f"tail^2={next_sq!r}, h*pair^2={h_t * pair_sq!r}",
                    ),
                    Hypothesis(
                        f"tail_decomposition[{t}]",
                        this_sq >= mu_t * pair_sq + next_sq - _HYP_SLACK,
                        f"tail^2={this_sq!r} vs {mu_t * pair_sq + next_sq!r}",
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
    gammas = [
        (mus[t] + hs[t]) ** half - ps[t] ** (half - 1.0) * hs[t] ** half
        for t in range(r - 2)
    ]

    def gamma_prod(upto: int) -> float:  # product of gammas for steps 1..upto
        out = 1.0
        for t in range(upto):
            out *= gammas[t]
        return out

    bound = ps[0] ** (half - 1.0) * pair[0] ** alpha
    for i in range(2, k + 1):
        bound += gamma_prod(i - 1) * ps[i - 1] ** (half - 1.0) * pair[i - 1] ** alpha
    bound += gamma_prod(k + 1) * pair[k] ** alpha
    for j in range(k + 2, r - 1):
        p_run = 1.0
        for l in range(k + 1, j):
            p_run *= ps[l - 1] ** (half - 1.0)
        bound += gamma_prod(k) * p_run * gammas[j - 1] * pair[j - 1] ** alpha
    p_all = 1.0
    for l in range(k + 1, r - 1):
        p_all *= ps[l - 1] ** (half - 1.0)
    bound += gamma_prod(k) * p_all * pair[r - 2] ** alpha
    return bound, tuple(hypotheses)


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


def check_tightened(
    state: StateLike,
    partition: Partition,
    params: UEParams,
    mu: float,
    h: float,
    p: float,
    alpha: float,
    source: Union[PairSource, str] = PairSource.ORACLE,
) -> MonogamyReport:
    """Tightened three-block bound: ``U^alpha(P1|P2 P3) >=`` :func:`tightened_lower_bound`."""
    _reject_printed(source)
    if partition.r != 3:
        raise ValueError(f"need exactly three blocks, got {partition.r}")
    region = _region_hypothesis(params)
    _require([region])
    psi = _as_vector(state)
    u_lhs, (u12, u13) = _focus_pair_ues(psi, partition, 0, params)
    feasibility = Hypothesis(
        "mu_feasible_for_state",
        u_lhs**2 >= u12**2 + mu * u13**2 - _HYP_SLACK,
        f"lhs^2={u_lhs**2!r} vs u12^2 + mu*u13^2={u12**2 + mu * u13**2!r}",
    )
    _require([feasibility])
    bound = tightened_lower_bound(u12, u13, mu, h, p, alpha)
    lhs = u_lhs**alpha
    return MonogamyReport(
        inequality_id="tightened",
        lhs=lhs,
        rhs=bound,
        margin=lhs - bound,
        hypotheses=(region, feasibility),
        params=_params_echo(
            params, alpha=alpha, mu=mu, h=h, tightening_factor=p, blocks=partition.blocks
        ),
    )


def check_chained(
    state: StateLike,
    partition: Partition,
    params: UEParams,
    k: int,
    mus: Sequence[float],
    hs: Sequence[float],
    ps: Sequence[float],
    alpha: float,
    source: Union[PairSource, str] = PairSource.ORACLE,
) -> MonogamyReport:
    """Multi-block chained bound with the first block as the focus side."""
    _reject_printed(source)
    if partition.r < 4:
        raise ValueError(f"need at least four blocks, got {partition.r}")
    region = _region_hypothesis(params)
    _require([region])
    psi = _as_vector(state)
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
    lhs = tail_ues[0] ** alpha
    return MonogamyReport(
        inequality_id="chained",
        lhs=lhs,
        rhs=bound,
        margin=lhs - bound,
        hypotheses=(region,) + hypotheses,
        params=_params_echo(
            params,
            alpha=alpha,
            k=k,
            mus=list(mus),
            hs=list(hs),
            tightening_factors=list(ps),
            blocks=partition.blocks,
        ),
    )


def _beta_sides(
    psi: PureStateVector, site_a: int, site_b: int, params: UEParams
) -> tuple[float, float, float]:
    """Entropy of the two-site reduction and the two per-side pair-sum values."""
    n = psi.n_sites
    if site_a == site_b or not (1 <= site_a <= n and 1 <= site_b <= n):
        raise ValueError(f"need two distinct sites in 1..{n}")
    if n < 3:
        raise ValueError("need at least one site outside the chosen pair")
    others = [c for c in range(1, n + 1) if c not in (site_a, site_b)]
    f_ab = f_qs(gw_block_concurrence_oracle(psi, (site_a,), (site_b,)), params)
    x_side = f_ab + sum(
        f_qs(gw_block_concurrence_oracle(psi, (site_a,), (c,)), params) for c in others
    )
    y_side = f_ab + sum(
        f_qs(gw_block_concurrence_oracle(psi, (site_b,), (c,)), params) for c in others
    )
    u_ab = unified_entropy(reduce(psi, (site_a, site_b)), params)
    return u_ab, x_side, y_side


def _beta_hypotheses(beta: float, s: float) -> list[Hypothesis]:
    return [
        Hypothesis("s_in_half_to_one", 0.5 <= s <= 1.0, f"s={s}"),
        Hypothesis("beta_in_unit_interval", 0.0 <= beta <= 1.0, f"beta={beta}"),
    ]


def check_beta_lower_bound(
    state: StateLike, site_a: int, site_b: int, beta: float, s: float
) -> MonogamyReport:
    """Fractional-power lower bound across the two-site cut at ``q = 2``.

    ``U^beta(rho_ab) >= |X^beta - Y^beta|`` with ``X`` (``Y``) the sum of the
    analytic pair values seen from site ``a`` (``b``).
    """
    hypotheses = _beta_hypotheses(beta, s)
    _require(hypotheses)
    params = UEParams(q=2.0, s=s)
    psi = _as_vector(state)
    u_ab, x_side, y_side = _beta_sides(psi, site_a, site_b, params)
    lhs = u_ab**beta
    rhs = abs(x_side**beta - y_side**beta)
    return MonogamyReport(
        inequality_id="beta-lower",
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        hypotheses=tuple(hypotheses),
        params=_params_echo(
            params, beta=beta, site_a=site_a, site_b=site_b, x_side=x_side, y_side=y_side
        ),
    )


def check_beta_upper_bound(
    state: StateLike, site_a: int, site_b: int, beta: float, s: float
) -> MonogamyReport:
    """Fractional-power upper bound ``U^beta(rho_ab) <= X^beta + Y^beta`` at ``q = 2``."""
    hypotheses = _beta_hypotheses(beta, s)
    _require(hypotheses)
    params = UEParams(q=2.0, s=s)
    psi = _as_vector(state)
    u_ab, x_side, y_side = _beta_sides(psi, site_a, site_b, params)
    lhs = u_ab**beta
    rhs = x_side**beta + y_side**beta
    return MonogamyReport(
        inequality_id="beta-upper",
        lhs=lhs,
        rhs=rhs,
        margin=rhs - lhs,
        hypotheses=tuple(hypotheses),
        params=_params_echo(
            params, beta=beta, site_a=site_a, site_b=site_b, x_side=x_side, y_side=y_side
        ),
    )


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
