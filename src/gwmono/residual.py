"""Partition-dependent residual entanglement for two-level block cuts.

The block residual is the slack of the squared-entanglement monogamy chain
for a cut of sites 1..n into blocks 1..m | m+1..n with inner split points
``a`` and ``b``:

* block form: top-cut value minus the four sub-block pair terms;
* pairwise form: top-cut value minus all cross site-pair terms.

Each residual has one entry point.  For the uniform W state,
:func:`block_residual_table` and :func:`pairwise_residual_table` tabulate
them on a ``q`` grid (a single value is a 1x1 table), with pair values from
one of two sources (see :mod:`gwmono.concurrence`): ``printed`` reproduces
the published reference tables bit-for-bit, ``oracle`` uses the reduction
pipeline and is the verified route.  Outputs always record their source
because the two disagree.  For any GW or GWV state,
:func:`residual_chain_check` evaluates both forms through the oracle and
reports them as its ``block_residual`` and ``pairwise_residual`` params.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from .concurrence import (
    BlockCut,
    PairKind,
    PairSource,
    oracle_pair_concurrence_sq,
    printed_pair_concurrence_sq,
)
from .monogamy import MonogamyReport, _region_hypothesis, _require
from .states import GWState, to_state_vector, uniform_w_state
from .unified import UEParams, g_qs, region_lower_q, region_upper_q


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
        _require([_region_hypothesis(params)])
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
        _require([_region_hypothesis(params)])
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


def residual_chain_check(state: GWState, cut: BlockCut, params: UEParams) -> MonogamyReport:
    """Verify the three-tier squared-entanglement chain on a GW or GWV state.

    Tier 1 is the top block cut, tier 2 the four sub-block pairs, tier 3 all
    cross site pairs; the chain requires tier1 >= tier2 >= tier3.  All values
    go through the oracle.  The report carries each tier and the block and
    pairwise residuals; its margin is the smallest chain gap.
    """
    region = _region_hypothesis(params)
    _require([region])
    psi = to_state_vector(state)
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
        hypotheses=(region,),
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
