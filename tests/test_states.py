import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

import gwmono as gm
from conftest import gw_states, purity, random_gw_state, state_payload


def test_make_gw_state_uniform_six():
    st = gm.make_gw_state(6, 2, [1 / math.sqrt(6)] * 6)
    assert st.n == 6 and st.d == 2
    assert np.allclose(st.site_weights, 1 / 6)


def test_site_weights_computed_once_and_read_only():
    st = gm.make_gw_state(3, 3, [[0.6, 0.0], [0.0, 0.48j], [0.64, 0.0]])
    weights = st.site_weights
    assert st.site_weights is weights
    assert np.allclose(weights, [0.36, 0.2304, 0.4096])
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 1.0


def test_make_gw_state_example1_sites(example1):
    # amplitudes are site-major: site 1 carries sqrt(0.5), site 4 carries 0.3
    assert example1.coeffs[0, 0] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert example1.coeffs[3, 0] == pytest.approx(0.3, abs=1e-15)


def test_make_gw_state_rejects_zero_vector():
    with pytest.raises(ValueError, match="zero vector"):
        gm.make_gw_state(3, 2, [0.0, 0.0, 0.0])


def test_make_gw_state_norm_window():
    # within 1e-9: silently renormalised
    st = gm.make_gw_state(2, 2, [1 / math.sqrt(2) + 4e-10, 1 / math.sqrt(2)])
    assert np.linalg.norm(st.coeffs) == pytest.approx(1.0, abs=1e-14)
    # beyond the window: needs the explicit flag
    with pytest.raises(ValueError, match="renormalize"):
        gm.make_gw_state(2, 2, [1.0, 1.0])
    st = gm.make_gw_state(2, 2, [1.0, 1.0], renormalize=True)
    assert np.linalg.norm(st.coeffs) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_make_gw_state_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        gm.make_gw_state(3, 2, [bad, 0.5, 0.5])
    with pytest.raises(ValueError, match="not finite"):
        gm.make_gw_state(3, 2, [bad, 0.5, 0.5], renormalize=True)
    with pytest.raises(ValueError, match="not finite"):
        gm.GWState(3, 2, np.array([[bad], [0.5], [0.5]]))


def test_make_gw_state_shape_and_bounds():
    with pytest.raises(ValueError):
        gm.make_gw_state(1, 2, [1.0])
    with pytest.raises(ValueError):
        gm.make_gw_state(2, 1, [[1.0], [0.0]])
    with pytest.raises(ValueError, match="shape"):
        gm.make_gw_state(3, 3, [1.0, 0.0, 0.0])


def test_gwv_state_bounds():
    gw = gm.uniform_w_state(3)
    with pytest.raises(ValueError):
        gm.make_gwv_state(gw, 1.5)
    with pytest.raises(ValueError):
        gm.make_gwv_state(gw, -0.1)


def test_gwv_vector_limits():
    gw = gm.uniform_w_state(3)
    full = gm.to_state_vector(gm.make_gwv_state(gw, 1.0))
    assert np.allclose(full.amps, gm.to_state_vector(gw).amps)
    vac = gm.to_state_vector(gm.make_gwv_state(gw, 0.0))
    assert vac.amps[0] == 1.0 and np.count_nonzero(vac.amps) == 1


def test_gwv_half_mix_norm():
    vec = gm.to_state_vector(gm.make_gwv_state(gm.uniform_w_state(3), 0.5))
    assert np.linalg.norm(vec.amps) == pytest.approx(1.0, abs=1e-14)


def test_gwv_state_values_are_pinned_bits():
    # dyadic amplitudes keep every norm and weight exact, so the expected
    # floats below do not depend on the platform's summation order
    coeffs = [[0.5, 0.5j], [0.5, 0.25], [0.25j, -0.25 + 0.25j]]
    flat = np.ravel(coeffs).astype(complex)
    payload = {"n": 3, "d": 3, "coeffs": [[z.real, z.imag] for z in flat], "vacuum_weight": 0.7}
    big, small = 0.4183300132670378, 0.2091650066335189
    expected = np.zeros(27, dtype=complex)
    expected[[0, 1, 2, 3, 6, 9, 18]] = [
        0.5477225575051662, small * 1j, complex(-small, small), big, small, big, big * 1j
    ]
    pairs = (((1,), (2,)), ((1,), (3,)), ((2,), (3,)), ((1,), (2, 3)))
    for state in (
        gm.make_gwv_state(gm.make_gw_state(3, 3, coeffs), 0.7),
        gm.load_state_json(payload),
    ):
        assert type(state) is gm.GWState and state.vacuum_weight == 0.7
        assert gm.to_state_vector(state).amps.tobytes() == expected.tobytes()
        assert [gm.pair_concurrence(state, *pq) for pq in pairs] == [
            0.5533985905294664, 0.4286607049870562, 0.338886042793149, 0.7000000000000001
        ]


def test_states_compare_and_hash_by_value():
    a, b = gm.uniform_w_state(3), gm.uniform_w_state(3)
    assert a == b and hash(a) == hash(b)
    assert {a: "w3"}[b] == "w3"
    assert gm.make_gwv_state(a, 1.0) == a
    assert gm.make_gwv_state(a, 0.5) != a
    assert gm.make_gwv_state(a, 0.5) == gm.make_gwv_state(b, 0.5)
    assert a != gm.uniform_w_state(4) and a != gm.uniform_w_state(3, 3)
    assert a != a.coeffs.tolist()
    pos = gm.GWState(2, 2, [[1.0], [0.0]])
    neg = gm.GWState(2, 2, [[1.0], [-0.0]])
    assert pos.coeffs.tobytes() != neg.coeffs.tobytes()
    assert pos == neg and hash(pos) == hash(neg)


def test_to_state_vector_positions(example1):
    two = gm.to_state_vector(gm.make_gw_state(2, 2, [1 / math.sqrt(2)] * 2))
    # |10> is index 2, |01> is index 1 in big-endian site order
    assert two.amps[2] == pytest.approx(1 / math.sqrt(2))
    assert two.amps[1] == pytest.approx(1 / math.sqrt(2))

    vec = gm.to_state_vector(example1)
    assert vec.amps[0b1000] == pytest.approx(math.sqrt(0.5))
    assert vec.amps[0b0001] == pytest.approx(0.3)

    table = np.zeros((3, 2))
    table[0, 1] = 1.0  # site 1 raised to level 2
    qutrit = gm.to_state_vector(gm.make_gw_state(3, 3, table))
    assert qutrit.amps[2 * 9] == pytest.approx(1.0)


def test_to_state_vector_size_cap(monkeypatch):
    with pytest.raises(ValueError, match="cap of 16777216"):
        gm.to_state_vector(gm.uniform_w_state(25))
    # 2**20000 has more digits than int-to-str conversion allows
    with pytest.raises(ValueError, match=r"need 2\^20000 amplitudes, above the cap of 16777216"):
        gm.to_state_vector(gm.uniform_w_state(20000))
    monkeypatch.setattr(gm.states, "AMPLITUDE_CAP", 2**10)
    assert gm.to_state_vector(gm.uniform_w_state(10)).amps.size == 2**10
    with pytest.raises(ValueError, match="cap of 1024"):
        gm.to_state_vector(gm.uniform_w_state(11))


def test_reduce_keep_all_is_projector(example1_vec):
    rho = gm.reduce(example1_vec, (1, 2, 3, 4))
    expected = np.outer(example1_vec.amps, example1_vec.amps.conj())
    assert np.allclose(rho.entries, expected, atol=1e-14)


def test_reduce_single_site_of_uniform_w():
    vec = gm.to_state_vector(gm.uniform_w_state(3))
    rho = gm.reduce(vec, (1,))
    assert np.allclose(rho.entries, np.diag([2 / 3, 1 / 3]), atol=1e-14)


def test_reduce_example1_three_sites(example1_vec):
    rho = gm.reduce(example1_vec, (1, 2, 3))
    phi = np.zeros(8, dtype=complex)
    phi[0b001] = 0.4
    phi[0b010] = 0.5
    phi[0b100] = math.sqrt(0.5)
    expected = np.outer(phi, phi.conj())
    expected[0, 0] += 0.09
    assert np.allclose(rho.entries, expected, atol=1e-14)


def test_reduce_errors(example1_vec):
    with pytest.raises(ValueError):
        gm.reduce(example1_vec, ())
    with pytest.raises(ValueError):
        gm.reduce(example1_vec, (0, 1))
    with pytest.raises(ValueError):
        gm.reduce(example1_vec, (5,))


def test_purity_values(example1_vec):
    assert purity(gm.reduce(example1_vec, (1, 2, 3, 4))) == pytest.approx(1.0, abs=1e-12)
    rho = gm.reduce(gm.to_state_vector(gm.uniform_w_state(3)), (1,))
    assert purity(rho) == pytest.approx(5 / 9, abs=1e-12)
    mixed = gm.DensityMatrix((2,), np.eye(2) / 2)
    assert purity(mixed) == pytest.approx(0.5, abs=1e-15)


def test_reduce_properties_random():
    rng = np.random.default_rng(101)
    for _ in range(25):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        vec = gm.to_state_vector(st)
        n = st.n
        keep = sorted(rng.choice(np.arange(1, n + 1), size=rng.integers(1, n), replace=False))
        keep = [int(k) for k in keep]
        rho = gm.reduce(vec, keep)
        assert np.trace(rho.entries).real == pytest.approx(1.0, abs=1e-10)
        comp = [i for i in range(1, n + 1) if i not in keep]
        if comp:
            assert purity(rho) == pytest.approx(purity(gm.reduce(vec, comp)), abs=1e-10)


def test_proper_reductions_have_rank_two():
    # any reduction that drops at least one site keeps only the vacuum and
    # one excitation sector, hence matrix rank <= 2
    rng = np.random.default_rng(202)
    for _ in range(20):
        st = random_gw_state(rng, n_hi=6, d_hi=3)
        vec = gm.to_state_vector(st)
        k = int(rng.integers(1, st.n))
        sites = [int(s) for s in rng.choice(np.arange(1, st.n + 1), size=k, replace=False)]
        spectrum = gm.reduce(vec, sites).spectrum()
        assert np.all(spectrum[:-2] <= 1e-10)


def test_partition_validation():
    with pytest.raises(ValueError):
        gm.Partition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        gm.Partition(((1,), ()))  # empty block
    with pytest.raises(ValueError):
        gm.Partition(((0, 1),))  # sites are 1-based
    part = gm.Partition.singletons((3, 1, 2))
    assert part.r == 3 and part.covered_sites() == (1, 2, 3)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pure_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        gm.PureStateVector((2, 2), [bad, 0, 0, 0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_rejects_non_finite(bad):
    for i, j in ((0, 0), (0, 1)):
        m = np.eye(4, dtype=complex) / 4
        m[i, j] = m[j, i] = bad
        with pytest.raises(ValueError, match="finite"):
            gm.DensityMatrix((2, 2), m)


def test_density_matrix_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        gm.DensityMatrix((2,), np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="trace"):
        gm.DensityMatrix((2,), np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        gm.DensityMatrix((2,), np.diag([1.5, -0.5]))


def _with_smallest_eigenvalue(dims, smallest, seed=0):
    """A trace-1 Hermitian matrix over ``dims`` whose smallest eigenvalue is ``smallest``."""
    dim = math.prod(dims)
    rng = np.random.default_rng(seed)
    unitary, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    rest = np.arange(1.0, dim)
    evals = np.concatenate([[smallest], (1.0 - smallest) * rest / rest.sum()])
    m = unitary @ np.diag(evals) @ unitary.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("dims", [(2,), (2, 2)])
def test_density_matrix_psd_gate_is_at_minus_1e_10(dims):
    for smallest in (-2e-10, -1e-3):
        with pytest.raises(ValueError, match="negative eigenvalue beyond tolerance"):
            gm.DensityMatrix(dims, _with_smallest_eigenvalue(dims, smallest))
    rho = gm.DensityMatrix(dims, _with_smallest_eigenvalue(dims, -5e-11))
    assert np.linalg.eigvalsh(rho.entries)[0] == pytest.approx(-5e-11, abs=1e-15)
    assert rho.spectrum()[0] == 0.0  # clipped at zero


def test_two_qubit_density_matrix_keeps_its_eigendecomposition():
    # the PSD test and wootters_concurrence read one eigh; other shapes keep none
    rho = gm.DensityMatrix((2, 2), _with_smallest_eigenvalue((2, 2), 0.1, seed=3))
    evals, vecs = rho._eigh
    expected = np.linalg.eigh(rho.entries)
    assert np.array_equal(evals, expected[0]) and np.array_equal(vecs, expected[1])
    assert not evals.flags.writeable and not vecs.flags.writeable
    assert np.array_equal(rho.spectrum(), np.clip(np.linalg.eigvalsh(rho.entries), 0.0, None))
    for dims in ((2,), (4,), (3, 3), (2, 2, 2)):
        other = gm.DensityMatrix(dims, np.eye(math.prod(dims)) / math.prod(dims))
        assert not hasattr(other, "_eigh")


def test_state_json_roundtrip(tmp_path, example1):
    payload = {
        "n": 4,
        "d": 2,
        "coeffs": [[math.sqrt(0.5), 0.0], [0.5, 0.0], [0.4, 0.0], [0.3, 0.0]],
    }
    path = tmp_path / "state.json"
    path.write_text(json.dumps(payload))
    st = gm.load_state_json(path)
    assert isinstance(st, gm.GWState)
    assert np.allclose(st.coeffs, example1.coeffs)

    payload["vacuum_weight"] = 0.25
    gwv = gm.load_state_json(payload)
    assert gwv == gm.make_gwv_state(st, 0.25)
    assert gwv.vacuum_weight == 0.25


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(gw_states())
def test_state_json_roundtrip_property(state):
    # a dumped state's table is normalised already, so it loads bit for bit
    back = gm.load_state_json(json.loads(json.dumps(state_payload(state))))
    assert back == state


def test_state_json_malformed():
    with pytest.raises(ValueError):
        gm.load_state_json({"n": 2, "d": 2})
    with pytest.raises(ValueError, match="entries"):
        gm.load_state_json({"n": 3, "d": 2, "coeffs": [[1.0, 0.0]]})


def test_state_json_rejects_non_finite(tmp_path):
    # json.loads accepts the bare NaN and Infinity tokens
    path = tmp_path / "state.json"
    path.write_text('{"n": 3, "d": 2, "coeffs": [[NaN, 0.0], [0.5, 0.0], [0.5, 0.0]]}')
    with pytest.raises(ValueError, match="not finite"):
        gm.load_state_json(path)
    with pytest.raises(ValueError, match="not finite"):
        gm.load_state_json({"n": 2, "d": 2, "coeffs": [[1.0, math.inf], [0.0, 0.0]]})
