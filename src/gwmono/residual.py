"""Partition-dependent residual entanglement for two-level block cuts.

The block residual is the slack of the squared-entanglement monogamy chain
for a cut of sites 1..n into blocks 1..m | m+1..n with inner split points
``a`` and ``b``:

* block form: top-cut value minus the four sub-block pair terms;
* pairwise form: top-cut value minus all cross site-pair terms.

Pair values come from one of two sources (see :mod:`gwmono.concurrence`):
``printed`` reproduces the published reference tables bit-for-bit, ``oracle``
uses the reduction pipeline and is the verified route.  Outputs always record
their source because the two disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .concurrence import (
    BlockCut,
    PairKind,
    PairSource,
    oracle_pair_concurrence_sq,
    printed_pair_concurrence_sq,
)
from .monogamy import Hypothesis, HypothesisNotMet, MonogamyReport, StateLike, _as_vector
from .states import to_state_vector, uniform_w_state
from .unified import UEParams, g_qs, in_region_r, region_lower_q, region_upper_q


@dataclass(frozen=True)
class PREResult:
    """One residual value with everything needed to reproduce it."""

    kind: str  # "block" or "pairwise"
    n: int
    m: int
    a: int | None
    b: int | None
    params: UEParams
    source: PairSource
    value: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "a": self.a,
            "b": self.b,
            "q": self.params.q,
            "s": self.params.s,
            "source": self.source.value,
            "value": self.value,
        }


def _require_region(params: UEParams) -> None:
    if not in_region_r(params):
        raise HypothesisNotMet(
            [
                Hypothesis(
                    "params_in_validity_region", False, f"q={params.q}, s={params.s}"
                )
            ]
        )


_SUB_PAIRS = (PairKind.FRONT_FRONT, PairKind.BACK_FRONT, PairKind.FRONT_BACK, PairKind.BACK_BACK)


def _uniform_w_pair_csq(
    n: int, pairs: Sequence[tuple[BlockCut, PairKind]], source: PairSource
) -> list[float]:
    """Squared concurrence of each ``(cut, kind)`` pair of the ``n``-site uniform W state.

    Empty blocks give 0.  The oracle source builds the dense vector once for
    the whole list.
    """
    if source is PairSource.PRINTED:
        return [printed_pair_concurrence_sq(cut, kind) for cut, kind in pairs]
    psi = to_state_vector(uniform_w_state(n))
    return [oracle_pair_concurrence_sq(psi, *cut.pair_blocks()[kind]) for cut, kind in pairs]


def block_residual(
    cut: BlockCut,
    params: UEParams,
    source: Union[PairSource, str] = PairSource.PRINTED,
) -> PREResult:
    """Block-form residual of the uniform W state of ``cut.n`` sites.

    ``g^2`` of the top-cut squared concurrence minus the four sub-block pair
    terms, with the pair values taken from the requested source.
    """
    source = PairSource(source)
    [[value]] = block_residual_table(
        [params.q], [cut.a], n=cut.n, m=cut.m, b=cut.b, s=params.s, source=source
    )
    return PREResult(
        kind="block", n=cut.n, m=cut.m, a=cut.a, b=cut.b,
        params=params, source=source, value=value,
    )


def pairwise_residual(
    n: int,
    m: int,
    params: UEParams,
    source: Union[PairSource, str] = PairSource.PRINTED,
) -> PREResult:
    """Pairwise-form residual of the uniform W state: all site pairs are identical.

    ``g^2`` of the top-cut value minus ``m (n - m)`` copies of the site-pair
    term.
    """
    source = PairSource(source)
    [[value]] = pairwise_residual_table([params.q], [m], n=n, s=params.s, source=source)
    return PREResult(
        kind="pairwise", n=n, m=m, a=None, b=None,
        params=params, source=source, value=value,
    )


def pairwise_residual_general(
    state: StateLike, m: int, params: UEParams
) -> float:
    """Pairwise-form residual of an arbitrary W-class state through the oracle.

    Splits sites 1..n at ``m`` and subtracts every cross site-pair term from
    the top-cut value explicitly: the ``pairwise_residual`` entry of
    :func:`residual_chain_check` on that cut.
    """
    psi = _as_vector(state)
    cut = BlockCut(n=psi.n_sites, m=m, a=m, b=psi.n_sites)
    return residual_chain_check(psi, cut, params).params["pairwise_residual"]


def block_residual_table(
    q_values: Sequence[float],
    a_values: Sequence[int],
    *,
    n: int,
    m: int,
    b: int,
    s: float = 1.0,
    source: Union[PairSource, str] = PairSource.PRINTED,
) -> list[list[float]]:
    """Block residuals on a (q, a) grid; one row per ``q``, one column per ``a``."""
    kinds = (PairKind.TOP,) + _SUB_PAIRS
    cuts = [BlockCut(n=n, m=m, a=a, b=b) for a in a_values]
    csq = _uniform_w_pair_csq(
        n, [(cut, kind) for cut in cuts for kind in kinds], PairSource(source)
    )
    columns = [csq[i : i + len(kinds)] for i in range(0, len(csq), len(kinds))]
    rows = []
    for q in q_values:
        params = UEParams(q=float(q), s=float(s))
        _require_region(params)
        rows.append(
            [
                float(g_qs(top, params) ** 2 - sum(g_qs(c, params) ** 2 for c in pairs))
                for top, *pairs in columns
            ]
        )
    return rows


def pairwise_residual_table(
    q_values: Sequence[float],
    m_values: Sequence[int],
    *,
    n: int,
    s: float = 1.0,
    source: Union[PairSource, str] = PairSource.PRINTED,
) -> list[list[float]]:
    """Pairwise residuals on a (q, m) grid; one row per ``q``, one column per ``m``."""
    # any site pair stands for all of them; only the top split of each cut matters
    pairs = [(BlockCut(n=n, m=1, a=1, b=2), PairKind.SITE_PAIR)]
    pairs += [(BlockCut(n=n, m=m, a=m, b=n), PairKind.TOP) for m in m_values]
    site_csq, *tops = _uniform_w_pair_csq(n, pairs, PairSource(source))
    rows = []
    for q in q_values:
        params = UEParams(q=float(q), s=float(s))
        _require_region(params)
        site_term = g_qs(site_csq, params) ** 2
        row = [
            float(g_qs(top, params) ** 2 - m * (n - m) * site_term)
            for m, top in zip(m_values, tops)
        ]
        rows.append(row)
    return rows


def region_q_grid(s: float, points: int = 50) -> np.ndarray:
    """Evenly spaced admissible ``q`` grid at a given ``s``."""
    hi = region_upper_q(s)
    if not math.isfinite(hi):
        raise ValueError("upper q bound is infinite at s = 0; choose the grid explicitly")
    return np.linspace(region_lower_q(s), hi, points)


def residual_chain_check(
    state: StateLike, cut: BlockCut, params: UEParams
) -> MonogamyReport:
    """Verify the three-tier squared-entanglement chain on an arbitrary W-class state.

    Tier 1 is the top block cut, tier 2 the four sub-block pairs, tier 3 all
    cross site pairs; the chain requires tier1 >= tier2 >= tier3.  All values
    go through the oracle.  The report carries each tier and the block and
    pairwise residuals; its margin is the smallest chain gap.
    """
    _require_region(params)
    psi = _as_vector(state)
    if psi.n_sites != cut.n:
        raise ValueError(f"cut is for {cut.n} sites but state has {psi.n_sites}")

    blocks = cut.pair_blocks()
    tier1 = g_qs(oracle_pair_concurrence_sq(psi, *blocks[PairKind.TOP]), params) ** 2
    tier2 = float(
        sum(
            g_qs(oracle_pair_concurrence_sq(psi, *blocks[kind]), params) ** 2
            for kind in _SUB_PAIRS
        )
    )
    tier3 = float(
        sum(
            g_qs(oracle_pair_concurrence_sq(psi, (i,), (j,)), params) ** 2
            for i in cut.block1
            for j in cut.block2
        )
    )
    block_gap = tier1 - tier2
    refine_gap = tier2 - tier3
    return MonogamyReport(
        inequality_id="residual-chain",
        lhs=tier1,
        rhs=tier2,
        margin=min(block_gap, refine_gap),
        hypotheses=(
            Hypothesis("params_in_validity_region", True, f"q={params.q}, s={params.s}"),
        ),
        params={
            "q": params.q,
            "s": params.s,
            "n": cut.n,
            "m": cut.m,
            "a": cut.a,
            "b": cut.b,
            "tier1": tier1,
            "tier2": tier2,
            "tier3": tier3,
            "block_residual": block_gap,
            "refine_gap": refine_gap,
            "pairwise_residual": tier1 - tier3,
        },
    )
