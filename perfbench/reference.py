"""Independent reference values for checking gwmono outputs.

Nothing here imports gwmono.  Every quantity is computed from the
coefficient table the benchmark generated itself, through the closed
structure of generalized W-class states: for a GW state mixed with the
vacuum at GW weight ``p`` (``p = 1`` for a plain GW state), two disjoint
blocks ``P`` and ``Q`` have concurrence

    C(P, Q) = 2 p x_P x_Q,   x_P**2 = sum of the excitation weights in P

(Wootters, PRL 80, 2245 (1998), applied to the rank-2 reduction;
Coffman, Kundu and Wootters, PRA 61, 052306 (2000)).  The entanglement map
is the unified-(q, s) entropy of the Schmidt spectrum ``(1 +- sqrt(1-C^2))/2``
in nats, with the closed limits at q = 1, s = 0 and s = 1.

The checker references below recompute ``lhs``, ``rhs``, ``margin`` and the
outcome (held, violated or refused) of every inequality the ``check-mix``
workload runs, from these closed forms alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Same windows as the documented numerical conventions of the package.
LIMIT_WINDOW = 1e-6
#: Additive slack on hypothesis comparisons and margins, as documented.
HYP_SLACK = 1e-12
MARGIN_TOL = 1e-9
#: A hypothesis or margin this close to its threshold may go either way
#: under round-off; the reference then accepts either outcome.
BORDER = 1e-9


class Weights:
    """Per-site excitation weights ``w`` and GW weight ``p`` of one state."""

    def __init__(self, table: np.ndarray, p: float = 1.0):
        self.w = np.sum(np.abs(table) ** 2, axis=1)
        self.p = float(p)
        self.n = len(self.w)

    def x(self, block) -> float:
        return math.sqrt(float(sum(self.w[s - 1] for s in block)))

    def c(self, block_p, block_q) -> float:
        """Concurrence of two disjoint blocks; 0 when either block is empty."""
        if not block_p or not block_q:
            return 0.0
        return 2.0 * self.p * self.x(block_p) * self.x(block_q)

    def pair_spectrum(self, a: int, b: int) -> np.ndarray:
        """Eigenvalues of the two-site reduction on sites ``a`` and ``b``.

        The reduction is ``|v><v| + |t><t|`` with ``v`` the rest-in-vacuum
        branch and ``t = sqrt(p w_rest) |00>``; its spectrum is that of the
        2x2 Gram matrix of ``v`` and ``t``.
        """
        x2 = float(self.w[a - 1] + self.w[b - 1])
        w_rest = max(0.0, float(np.sum(self.w)) - x2)
        vv = (1.0 - self.p) + self.p * x2
        tt = self.p * w_rest
        vt = math.sqrt(max(0.0, 1.0 - self.p)) * math.sqrt(tt)
        mean = (vv + tt) / 2.0
        gap = math.sqrt(max(0.0, ((vv - tt) / 2.0) ** 2 + vt * vt))
        return np.array([mean + gap, max(0.0, mean - gap)])


def entropy(lams, q: float, s: float) -> float:
    """Unified-(q, s) entropy of a spectrum, in nats."""
    lams = [float(l) for l in lams if l > 0.0]
    if abs(q - 1.0) < LIMIT_WINDOW:
        return -sum(l * math.log(l) for l in lams)
    power_sum = sum(l**q for l in lams)
    if s < LIMIT_WINDOW:
        return math.log(power_sum) / (1.0 - q)
    if abs(s - 1.0) < LIMIT_WINDOW:
        return (power_sum - 1.0) / (1.0 - q)
    return (power_sum**s - 1.0) / ((1.0 - q) * s)


def f_map(c: float, q: float, s: float) -> float:
    """Unified entanglement of a rank-2 pure state with concurrence ``c``."""
    u = math.sqrt(max(0.0, 1.0 - min(c, 1.0) ** 2))
    return entropy(((1.0 + u) / 2.0, (1.0 - u) / 2.0), q, s)


def in_region(q: float, s: float) -> bool:
    """Whether ``(q, s)`` lies in the validity region R of the analytic map."""
    if not 0.0 <= s <= 1.0:
        return False
    den = 2.0 * (2.0 - 3.0 * s)
    if abs(den) < 2e-9:
        lo = 0.75
    else:
        lo = (math.sqrt(9.0 * s * s - 24.0 * s + 28.0) - (2.0 + 3.0 * s)) / den
    hi = math.inf if s == 0.0 else (5.0 + math.sqrt(13.0)) / (2.0 * s)
    return lo <= q <= hi


@dataclass
class Expected:
    """Reference outcome of one checker call.

    ``hyps`` holds the signed slack of each hypothesis (``>= 0`` means it
    holds).  ``lhs``/``rhs``/``margin`` are ``None`` when a refusal stops
    evaluation before they exist.
    """

    hyps: list = field(default_factory=list)
    lhs: float | None = None
    rhs: float | None = None
    margin: float | None = None

    def add(self, slack: float) -> None:
        self.hyps.append(float(slack))

    def add_flag(self, ok: bool) -> None:
        self.hyps.append(1.0 if ok else -1.0)

    def outcomes(self) -> set:
        """Outcomes consistent with the reference under round-off."""
        if any(h < -BORDER for h in self.hyps):
            return {"refused"}
        out = set()
        if any(abs(h) <= BORDER for h in self.hyps):
            out.add("refused")
        if self.margin is not None:
            if self.margin < -MARGIN_TOL - BORDER:
                out.add("violated")
            elif self.margin >= -MARGIN_TOL + BORDER:
                out.add("held")
            else:
                out.update({"held", "violated"})
        return out


def _focus_values(wt: Weights, blocks, focus: int, q: float, s: float):
    others = [b for i, b in enumerate(blocks) if i != focus]
    rest = tuple(x for b in others for x in b)
    u_lhs = f_map(wt.c(blocks[focus], rest), q, s)
    u_pairs = [f_map(wt.c(blocks[focus], b), q, s) for b in others]
    return u_lhs, u_pairs


def squared(wt: Weights, blocks, focus: int, q: float, s: float) -> Expected:
    e = Expected()
    e.add_flag(in_region(q, s))
    if e.hyps[-1] < 0:
        return e
    u_lhs, u_pairs = _focus_values(wt, blocks, focus, q, s)
    e.lhs, e.rhs = u_lhs**2, sum(u**2 for u in u_pairs)
    e.margin = e.lhs - e.rhs
    return e


def power(wt: Weights, blocks, focus: int, q: float, s: float, alpha: float) -> Expected:
    e = Expected()
    e.add_flag(in_region(q, s))
    e.add_flag(alpha >= 2.0 or alpha <= 0.0)
    if alpha <= 0.0:
        e.add_flag(len(blocks) >= 3)
    if min(e.hyps) < 0:
        return e
    u_lhs, u_pairs = _focus_values(wt, blocks, focus, q, s)
    e.lhs, e.rhs = u_lhs**alpha, sum(u**alpha for u in u_pairs)
    e.margin = e.lhs - e.rhs if alpha >= 2.0 else e.rhs - e.lhs
    return e


def tightened(wt: Weights, blocks, q, s, mu, h, p, alpha) -> Expected:
    e = Expected()
    e.add_flag(in_region(q, s))
    if e.hyps[-1] < 0:
        return e
    u_lhs, (u12, u13) = _focus_values(wt, blocks, 0, q, s)
    e.add(u_lhs**2 - (u12**2 + mu * u13**2) + HYP_SLACK)
    e.add_flag(mu >= 1.0)
    e.add_flag(h >= 1.0)
    e.add_flag(alpha >= 2.0)
    e.add(u12**2 - h * u13**2 + HYP_SLACK)
    cap = 1.0 + mu * u13**2 / u12**2
    e.add(min(p - 1.0, cap - p) + HYP_SLACK)
    if min(e.hyps) < 0:
        return e
    half = alpha / 2.0
    bound = p ** (half - 1.0) * u12**alpha + (
        (mu + h) ** half - p ** (half - 1.0) * h**half
    ) * u13**alpha
    e.lhs, e.rhs = u_lhs**alpha, bound
    e.margin = e.lhs - e.rhs
    return e


def chained(wt: Weights, blocks, q, s, k, mus, hs, ps, alpha) -> Expected:
    """Chained bound with the first block as focus, folded step by step."""
    e = Expected()
    e.add_flag(in_region(q, s))
    if e.hyps[-1] < 0:
        return e
    focus, tails = blocks[0], blocks[1:]
    pair = [f_map(wt.c(focus, b), q, s) for b in tails]
    tail = [
        f_map(wt.c(focus, tuple(x for b in tails[t:] for x in b)), q, s)
        for t in range(len(tails))
    ]
    r = len(blocks)
    e.add_flag(alpha >= 2.0)
    e.add_flag(all(m >= 1.0 for m in mus))
    e.add_flag(all(x >= 1.0 for x in hs))
    for t in range(1, r - 1):
        mu_t, h_t, p_t = mus[t - 1], hs[t - 1], ps[t - 1]
        pair_sq, next_sq, this_sq = pair[t - 1] ** 2, tail[t] ** 2, tail[t - 1] ** 2
        if t <= k:
            e.add(pair_sq - h_t * next_sq + HYP_SLACK)
            e.add(this_sq - (pair_sq + mu_t * next_sq) + HYP_SLACK)
            cap = math.inf if pair_sq == 0.0 else 1.0 + mu_t * next_sq / pair_sq
        else:
            e.add(next_sq - h_t * pair_sq + HYP_SLACK)
            e.add(this_sq - (mu_t * pair_sq + next_sq) + HYP_SLACK)
            cap = math.inf if next_sq == 0.0 else mu_t * pair_sq / next_sq
        e.add(min(p_t - 1.0, cap - p_t) + HYP_SLACK)
    if min(e.hyps) < 0:
        return e
    half = alpha / 2.0
    gam = [(mus[t] + hs[t]) ** half - ps[t] ** (half - 1.0) * hs[t] ** half for t in range(r - 2)]
    acc = pair[r - 2] ** alpha
    for t in range(r - 2, 0, -1):
        if t > k:
            acc = gam[t - 1] * pair[t - 1] ** alpha + ps[t - 1] ** (half - 1.0) * acc
        else:
            acc = ps[t - 1] ** (half - 1.0) * pair[t - 1] ** alpha + gam[t - 1] * acc
    e.lhs, e.rhs = tail[0] ** alpha, acc
    e.margin = e.lhs - e.rhs
    return e


def beta(wt: Weights, a: int, b: int, beta_: float, s: float, upper: bool) -> Expected:
    e = Expected()
    e.add_flag(0.5 <= s <= 1.0)
    e.add_flag(0.0 <= beta_ <= 1.0)
    if min(e.hyps) < 0:
        return e
    q = 2.0
    others = [c for c in range(1, wt.n + 1) if c not in (a, b)]
    f_ab = f_map(wt.c((a,), (b,)), q, s)
    x_side = f_ab + sum(f_map(wt.c((a,), (c,)), q, s) for c in others)
    y_side = f_ab + sum(f_map(wt.c((b,), (c,)), q, s) for c in others)
    e.lhs = entropy(wt.pair_spectrum(a, b), q, s) ** beta_
    if upper:
        e.rhs = x_side**beta_ + y_side**beta_
        e.margin = e.rhs - e.lhs
    else:
        e.rhs = abs(x_side**beta_ - y_side**beta_)
        e.margin = e.lhs - e.rhs
    return e


def residual_chain(wt: Weights, n: int, m: int, a: int, b: int, q: float, s: float) -> Expected:
    e = Expected()
    e.add_flag(in_region(q, s))
    if e.hyps[-1] < 0:
        return e
    g2 = lambda bp, bq: f_map(wt.c(bp, bq), q, s) ** 2  # noqa: E731
    front1, back1 = tuple(range(1, a + 1)), tuple(range(a + 1, m + 1))
    front2, back2 = tuple(range(m + 1, b + 1)), tuple(range(b + 1, n + 1))
    block1, block2 = front1 + back1, front2 + back2
    tier1 = g2(block1, block2)
    tier2 = g2(front1, front2) + g2(back1, front2) + g2(front1, back2) + g2(back1, back2)
    tier3 = sum(g2((i,), (j,)) for i in block1 for j in block2)
    e.lhs, e.rhs = tier1, tier2
    e.margin = min(tier1 - tier2, tier2 - tier3)
    return e


def close(got: float, want: float, rel: float = 1e-7, abs_: float = 1e-11) -> bool:
    return abs(got - want) <= abs_ + rel * abs(want)
