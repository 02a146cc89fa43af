"""Concurrence and unified-(q, s) entanglement monogamy toolkit for
generalized W-class qudit states."""

from .concurrence import (
    BlockCut,
    PairKind,
    PairSource,
    gw_block_concurrence_oracle,
    pair_concurrence,
    pair_matrix,
    pair_source_comparison,
    printed_pair_concurrence_sq,
    wootters_concurrence,
)
from .monogamy import (
    MARGIN_TOL,
    Hypothesis,
    HypothesisNotMet,
    MonogamyReport,
    baseline_lower_bound,
    bound_comparison_series,
    chained_lower_bound,
    check_beta_lower_bound,
    check_beta_upper_bound,
    check_chained,
    check_power_monogamy,
    check_squared_monogamy,
    check_tightened,
    tightened_lower_bound,
)
from .residual import (
    block_residual_table,
    pairwise_residual_table,
    region_q_grid,
    residual_chain_check,
)
from .states import (
    DensityMatrix,
    GWState,
    Partition,
    PureStateVector,
    load_state_json,
    make_gw_state,
    make_gwv_state,
    reduce,
    to_state_vector,
    uniform_w_state,
)
from .unified import (
    UEParams,
    convex_roof_ue_rank2,
    f_qs,
    f_qs_raw,
    g_qs,
    in_region_r,
    region_lower_q,
    region_upper_q,
    ue_gw_reduced,
    ue_pure,
    unified_entropy,
    unified_entropy_raw,
)

__version__ = "0.1.0"
