import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gwmono as gm
from gwmono import concurrence
from gwmono.concurrence import (
    _ZERO_WEIGHT,
    GW_FORM_TOL,
    BlockCut,
    PairKind,
    _block_excitation_vector,
    _block_sites,
)
from gwmono.states import _excitation_slot, _kept_by_traced
from conftest import (
    concurrence_pure,
    gw_states,
    pair_decomposition_residual,
    random_gw_state,
    random_partition,
)

SQRT2 = math.sqrt(2.0)


def bell_vector():
    return gm.PureStateVector((2, 2), np.array([1, 0, 0, 1]) / SQRT2)


def test_concurrence_pure_bell():
    assert concurrence_pure(bell_vector(), (1,)) == pytest.approx(1.0, abs=1e-12)


def test_concurrence_pure_top_cut_of_uniform_w():
    vec = gm.to_state_vector(gm.uniform_w_state(6))
    c = concurrence_pure(vec, (1, 2, 3, 4))
    assert c**2 == pytest.approx(8 / 9, abs=1e-12)


def test_concurrence_pure_product_state():
    vec = gm.PureStateVector((2, 2), np.array([1.0, 0, 0, 0]))
    assert concurrence_pure(vec, (1,)) == 0.0


def test_concurrence_pure_invalid_cut():
    with pytest.raises(ValueError):
        concurrence_pure(bell_vector(), (1, 2))
    with pytest.raises(ValueError):
        concurrence_pure(bell_vector(), ())


def test_concurrence_pure_complement_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(10):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        vec = gm.to_state_vector(st)
        k = int(rng.integers(1, st.n))
        side = [int(s) for s in rng.choice(np.arange(1, st.n + 1), size=k, replace=False)]
        comp = [i for i in range(1, st.n + 1) if i not in side]
        assert concurrence_pure(vec, side) == pytest.approx(
            concurrence_pure(vec, comp), abs=1e-10
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
            gm.wootters_concurrence(rho) - concurrence_pure(vec, (1,))
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


def _leak(vec, weight, rng):
    """``vec`` with ``weight`` moved onto random basis states of two or more excited sites."""
    excited = (np.indices(vec.dims).reshape(len(vec.dims), -1) > 0).sum(axis=0)
    leak = np.where(excited >= 2, rng.standard_normal(excited.size), 0.0)
    leak = leak / np.linalg.norm(leak)
    return gm.PureStateVector(vec.dims, np.sqrt(1.0 - weight) * vec.amps + np.sqrt(weight) * leak)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(state=gw_states(), seed=st.integers(0, 2**16))
def test_oracle_entry_test_is_its_one_w_class_gate(state, seed):
    # the entry weight alone decides: half the tolerance outside the subspace
    # passes and changes the concurrence only at the sqrt(weight) scale, twice
    # the tolerance is refused
    rng = np.random.default_rng(seed)
    sites = [int(s) for s in rng.permutation(np.arange(1, state.n + 1))]
    a = int(rng.integers(1, state.n))
    b = int(rng.integers(a + 1, state.n + 1))
    block_p, block_q = sites[:a], sites[a:b]
    vec = gm.to_state_vector(state)
    near = gm.gw_block_concurrence_oracle(_leak(vec, 0.5 * GW_FORM_TOL, rng), block_p, block_q)
    assert near == pytest.approx(gm.pair_concurrence(state, block_p, block_q), abs=1e-4)
    with pytest.raises(ValueError, match="not a W-class state"):
        gm.gw_block_concurrence_oracle(_leak(vec, 2.0 * GW_FORM_TOL, rng), block_p, block_q)


def test_oracle_block_validation(example1_vec):
    with pytest.raises(ValueError, match="disjoint"):
        gm.gw_block_concurrence_oracle(example1_vec, (1, 2), (2, 3))
    with pytest.raises(ValueError, match="non-empty"):
        gm.gw_block_concurrence_oracle(example1_vec, (), (1,))
    with pytest.raises(ValueError, match="range"):
        gm.gw_block_concurrence_oracle(example1_vec, (1,), (9,))


# (sigma_y (x) sigma_y) with the real dtype the oracle once used
_REAL_SPIN_FLIP = np.array(
    [[0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0]]
)


def _kron_basis_oracle(psi, block_p, block_q):
    """The oracle as it stood with its ``np.kron`` basis, and a W-form, block vectors and
    eigendecomposition built on every call."""
    n = psi.n_sites
    p_sites, q_sites = _block_sites(block_p, block_q, n)
    tensor = psi.amps.reshape(psi.dims)
    excitations = [tensor[_excitation_slot(n, t)] for t in range(n)]
    weight = sum(
        (float(np.sum(np.abs(e) ** 2)) for e in excitations),
        abs(complex(psi.amps[0])) ** 2,
    )
    if abs(weight - 1.0) > GW_FORM_TOL:
        raise ValueError("not a W-class state")
    p0 = [s - 1 for s in p_sites]
    q0 = [s - 1 for s in q_sites]
    e_p = _block_excitation_vector(excitations, p0)
    e_q = _block_excitation_vector(excitations, q0)
    x_p = float(np.linalg.norm(e_p))
    x_q = float(np.linalg.norm(e_q))
    if x_p**2 < _ZERO_WEIGHT or x_q**2 < _ZERO_WEIGHT:
        return 0.0
    vac_p = np.zeros(e_p.size, dtype=np.complex128)
    vac_p[0] = 1.0
    vac_q = np.zeros(e_q.size, dtype=np.complex128)
    vac_q[0] = 1.0
    u_p, u_q = e_p / x_p, e_q / x_q
    basis = np.column_stack(
        [np.kron(vac_p, vac_q), np.kron(vac_p, u_q), np.kron(u_p, vac_q), np.kron(u_p, u_q)]
    )
    coords = basis.conj().T @ _kept_by_traced(psi, p0 + q0)
    rho_eff = coords @ coords.conj().T
    rho_eff /= np.trace(rho_eff).real
    # Wootters' formula as it stood, on an eigendecomposition of its own
    evals, vecs = np.linalg.eigh(gm.DensityMatrix(dims=(2, 2), entries=rho_eff).entries)
    root = np.sqrt(np.clip(evals, 0.0, None))
    sym = (vecs.T @ _REAL_SPIN_FLIP @ vecs) * root[:, None] * root[None, :]
    lam = np.linalg.svd(sym, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


# 150 examples in tier-1; CI runs this test again under the cli-contract profile
@settings(
    max_examples=max(150, settings.default.max_examples),
    deadline=None,
    database=None,
    derandomize=True,
)
@given(state=gw_states(), data=st.data())
def test_oracle_matches_the_kron_basis_bit_for_bit(state, data):
    sites = data.draw(st.permutations(range(1, state.n + 1)))
    a = data.draw(st.integers(1, min(3, state.n - 1)))
    b = data.draw(st.integers(a + 1, min(a + 3, state.n)))
    block_p, block_q = sites[:a], sites[a:b]
    vec = gm.to_state_vector(state)
    assert gm.gw_block_concurrence_oracle(vec, block_p, block_q) == _kron_basis_oracle(
        vec, block_p, block_q
    )


@pytest.mark.parametrize("vacuum_weight", [1.0, 0.4])
def test_oracle_zero_weight_block_matches_the_kron_basis(vacuum_weight):
    table = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.48j, 0.64]])
    state = gm.make_gwv_state(gm.make_gw_state(4, 3, table), vacuum_weight)
    vec = gm.to_state_vector(state)
    for block_p, block_q in (((2,), (1,)), ((2, 3), (1, 4)), ((1,), (2, 3))):
        assert gm.gw_block_concurrence_oracle(vec, block_p, block_q) == 0.0
        assert _kron_basis_oracle(vec, block_p, block_q) == 0.0
    assert gm.gw_block_concurrence_oracle(vec, (1, 2), (3, 4)) == _kron_basis_oracle(
        vec, (1, 2), (3, 4)
    )


def _count_w_forms(monkeypatch) -> list:
    """Record each evaluation of the cached ``PureStateVector._w_form``."""
    cached = vars(gm.PureStateVector)["_w_form"]
    evaluate = cached.func
    evaluated = []

    def counting(psi):
        evaluated.append(psi)
        return evaluate(psi)

    monkeypatch.setattr(cached, "func", counting)  # fails unless it is a cached_property
    return evaluated


def test_checker_computes_the_w_form_once(example1, monkeypatch):
    evaluated = _count_w_forms(monkeypatch)
    oracle_calls = []
    oracle = gm.gw_block_concurrence_oracle

    def counting_oracle(psi, block_p, block_q):
        oracle_calls.append(psi)
        return oracle(psi, block_p, block_q)

    monkeypatch.setattr("gwmono.monogamy.gw_block_concurrence_oracle", counting_oracle)
    gm.check_squared_monogamy(example1, gm.Partition(((1,), (2,), (3,), (4,))), 0, gm.UEParams(2, 1))
    assert len(oracle_calls) == 4  # the focus block against the rest, then each other block
    assert len(evaluated) == 1 and evaluated[0] is oracle_calls[0]


def test_w_form_is_evaluated_once_per_vector(example1_vec, monkeypatch):
    evaluated = _count_w_forms(monkeypatch)
    pairs = [((1,), (2,)), ((1,), (3,)), ((2, 3), (4,)), ((1,), (2, 3, 4))]
    first = [gm.gw_block_concurrence_oracle(example1_vec, p, q) for p, q in pairs]
    again = [gm.gw_block_concurrence_oracle(example1_vec, p, q) for p, q in pairs]
    assert first == again
    assert evaluated == [example1_vec]
    other = gm.to_state_vector(gm.make_gw_state(4, 2, [math.sqrt(0.5), 0.5, 0.4, 0.3]))
    gm.gw_block_concurrence_oracle(other, (1,), (2,))
    assert len(evaluated) == 2  # a new vector computes its own


def _count_block_builds(monkeypatch) -> list:
    """Record the sorted 0-based sites of each block the oracle builds."""
    build = concurrence._build_block_side
    built = []

    def counting(excitations, block0):
        built.append(block0)
        return build(excitations, block0)

    monkeypatch.setattr(concurrence, "_build_block_side", counting)
    return built


def test_each_block_is_built_once_per_vector(example1_vec, monkeypatch):
    built = _count_block_builds(monkeypatch)
    pairs = [((1,), (2,)), ((1,), (3,)), ((2, 3), (4,)), ((1,), (2, 3, 4)), ((3, 2), (1,))]
    first = [gm.gw_block_concurrence_oracle(example1_vec, p, q) for p, q in pairs]
    again = [gm.gw_block_concurrence_oracle(example1_vec, p, q) for p, q in pairs]
    assert first == again
    # blocks are keyed by their sorted 0-based sites: (3, 2) is the block (2, 3)
    assert sorted(built) == [(0,), (1,), (1, 2), (1, 2, 3), (2,), (3,)]
    other = gm.to_state_vector(gm.make_gw_state(4, 2, [math.sqrt(0.5), 0.5, 0.4, 0.3]))
    gm.gw_block_concurrence_oracle(other, (1,), (2,))
    assert built[-2:] == [(0,), (1,)]  # a new vector builds its own


def test_checker_builds_each_block_once(example1, monkeypatch):
    built = _count_block_builds(monkeypatch)
    gm.check_squared_monogamy(example1, gm.Partition(((1,), (2,), (3,), (4,))), 0, gm.UEParams(2, 1))
    # the focus block (0,) enters all four oracle calls and is built once
    assert sorted(built) == [(0,), (1,), (1, 2, 3), (2,), (3,)]


def test_zero_weight_block_is_kept_as_none(monkeypatch):
    built = _count_block_builds(monkeypatch)
    table = np.array([[0.6, 0.0], [0.0, 0.0], [0.0, 0.0], [0.48j, 0.64]])
    vec = gm.to_state_vector(gm.make_gw_state(4, 3, table))
    for _ in range(2):
        assert gm.gw_block_concurrence_oracle(vec, (2,), (1,)) == 0.0
    assert built == [(1,), (0,)] and vec._block_table[(1,)] is None


def test_w_form_refusal_repeats_on_every_call():
    vec = gm.PureStateVector((2, 2, 2), np.ones(8) / math.sqrt(8))
    messages = []
    for block_p, block_q in (((1,), (2,)), ((1,), (2,)), ((2,), (1, 3))):
        with pytest.raises(ValueError, match="not a W-class state") as info:
            gm.gw_block_concurrence_oracle(vec, block_p, block_q)
        messages.append(str(info.value))
    assert messages == [
        "vector carries weight outside the single-excitation-plus-vacuum subspace "
        "(missing 5.000e-01); not a W-class state"
    ] * 3


def test_amplitudes_are_read_only(example1_vec):
    # the cached W-form holds views of `amps`; it stays valid only because they cannot change
    with pytest.raises(ValueError, match="read-only"):
        example1_vec.amps[1] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        example1_vec._w_form[0][0][0] = 0.0
    with pytest.raises(AttributeError):
        example1_vec.amps = np.zeros(16)


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


def _uniform_w_pair_negativity(n, u, v):
    """Negativity of ``a |00><00| + |psi><psi|``, a two-block reduction of the uniform W state.

    ``psi = (sqrt(u) |10> + sqrt(v) |01>) / sqrt(n)`` for blocks of ``u`` and
    ``v`` sites, and ``a = (n - u - v) / n`` is the weight left in the vacuum.
    """
    rho = np.zeros((4, 4))
    rho[0, 0] = (n - u - v) / n
    psi = np.array([0.0, math.sqrt(v / n), math.sqrt(u / n), 0.0])
    rho += np.outer(psi, psi)
    partial_transpose = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    eigs = np.linalg.eigvalsh(partial_transpose)
    return -float(eigs[eigs < 0.0].sum())


def test_printed_pair_values_are_squared_negativities():
    # the printed forms are (2N)^2 with 2N = sqrt(a^2 + 4uv/n^2) - a: exactly for
    # the top cut (a = 0), the site pair and the sub-pairs with u + v = m; the
    # sub-pair forms put a = (n - m)/n, so every other non-empty sub-pair misses
    cuts = [
        BlockCut(n, m, a, b)
        for n in range(2, 17)
        for m in range(1, n)
        for a in range(1, m + 1)
        for b in range(m + 1, n + 1)
    ]
    negativity = {}
    matched = missed = 0
    for cut in cuts:
        n, m = cut.n, cut.m
        for kind, (block_p, block_q) in cut.pair_blocks().items():
            u, v = len(block_p), len(block_q)
            a = (n - u - v) / n
            two_n = math.sqrt(a**2 + 4 * u * v / n**2) - a
            if (n, u, v) not in negativity:
                negativity[n, u, v] = _uniform_w_pair_negativity(n, u, v)
            assert 2 * negativity[n, u, v] == pytest.approx(two_n, abs=1e-15)
            printed = gm.printed_pair_concurrence_sq(cut, kind)
            if kind in (PairKind.TOP, PairKind.SITE_PAIR) or u + v == m or u * v == 0:
                assert printed == pytest.approx(two_n**2, abs=1e-15), (cut, kind)
                matched += 1
            else:
                assert abs(printed - two_n**2) > 0.1 * two_n**2, (cut, kind)
                missed += 1
    assert (matched, missed) == (9840, 8520)


def test_pair_decomposition_residual_three_qubit():
    vec = gm.to_state_vector(gm.uniform_w_state(3))
    part = gm.Partition.singletons((1, 2, 3))
    assert abs(pair_decomposition_residual(vec, part, 0)) < 1e-9


def test_pair_decomposition_residual_block_cut():
    vec = gm.to_state_vector(gm.uniform_w_state(6))
    part = BlockCut(6, 4, 2, 5).to_partition()
    assert abs(pair_decomposition_residual(vec, part, 0)) < 1e-9


def test_pair_decomposition_residual_two_blocks(example1_vec):
    part = gm.Partition(((1,), (2, 3, 4)))
    assert abs(pair_decomposition_residual(example1_vec, part, 0)) < 1e-12


def test_pair_decomposition_residual_random():
    rng = np.random.default_rng(31)
    for _ in range(60):
        st = random_gw_state(rng)
        vec = gm.to_state_vector(st)
        part = random_partition(rng, st.n)
        focus = int(rng.integers(0, part.r))
        assert abs(pair_decomposition_residual(vec, part, focus)) < 1e-8


def test_pair_source_comparison_rows():
    rows = gm.pair_source_comparison(BlockCut(6, 4, 1, 5))
    by_pair = {row["pair"]: row for row in rows}
    site = by_pair["site-site"]
    assert site["oracle_c_sq"] == pytest.approx(4 / 36, abs=1e-12)
    assert site["printed_c_sq"] == pytest.approx(0.0061920, abs=1e-6)
    assert site["abs_diff"] > 0.1
    top = by_pair["block1-block2"]
    assert top["abs_diff"] < 1e-12
