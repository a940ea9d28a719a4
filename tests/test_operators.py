import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csskit.model import MixingMatrix
from csskit.operators import (
    CoreOperator,
    MeasurementSet,
    NotTightFrame,
    SamplingOperator,
    SourceSpaceMap,
    _drop_null,
    add_noise,
    decorrelate_measurements,
    make_sampling_operator,
    operator_norm,
    verify_tight_frame,
)

RC = "random-convolution"


def random_mixing(rng, n2, rho):
    return MixingMatrix(rng.normal(size=(n2, rho)) + 2.0 * np.eye(n2, rho))


class IdentityCore:
    """Stub core with the CoreOperator interface and A = Id."""

    def __init__(self, n1):
        self.kind = "identity-stub"
        self.m_hat = n1
        self.n1 = n1
        self.nu = 1.0

    def forward(self, x):
        return np.asarray(x, dtype=np.float64).copy()

    def adjoint(self, y):
        return np.asarray(y, dtype=np.float64).copy()

    def as_matrix(self):
        return np.eye(self.n1)


# --- core operators ---------------------------------------------------------


def test_gaussian_energy_concentration():
    core = CoreOperator("gaussian", 64, 64, seed=0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=64)
    x /= np.linalg.norm(x)
    # E||Ax||^2 = ||x||^2; average over independent operator draws
    vals = []
    for seed in range(200):
        op = CoreOperator("gaussian", 64, 64, seed=seed)
        vals.append(np.sum(op.forward(x) ** 2))
    assert abs(np.mean(vals) - 1.0) < 0.1


def test_bernoulli_entries_and_scale():
    core = CoreOperator("bernoulli", 6, 10, seed=2)
    A = core.as_matrix()
    np.testing.assert_allclose(np.abs(A), 1.0 / np.sqrt(6.0), rtol=1e-15)


def test_rc_full_sampling_is_orthogonal():
    core = CoreOperator(RC, 16, 16, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.normal(size=16)
        assert abs(np.linalg.norm(core.forward(x)) - np.linalg.norm(x)) < 1e-10


def test_core_determinism():
    probe = np.random.default_rng(5).normal(size=32)
    a = CoreOperator(RC, 8, 32, seed=9).forward(probe)
    b = CoreOperator(RC, 8, 32, seed=9).forward(probe)
    np.testing.assert_array_equal(a, b)
    c = CoreOperator("gaussian", 8, 32, seed=9).forward(probe)
    d = CoreOperator("gaussian", 8, 32, seed=9).forward(probe)
    np.testing.assert_array_equal(c, d)


def test_core_as_matrix_matches_forward():
    rng = np.random.default_rng(6)
    for kind in ("gaussian", "bernoulli", RC):
        core = CoreOperator(kind, 8, 16, seed=7)
        A = core.as_matrix()
        for _ in range(3):
            x = rng.normal(size=16)
            np.testing.assert_allclose(core.forward(x), A @ x, atol=1e-12)
            y = rng.normal(size=8)
            np.testing.assert_allclose(core.adjoint(y), A.T @ y, atol=1e-12)


def test_core_validation():
    with pytest.raises(ValueError):
        CoreOperator("unknown", 4, 8, seed=0)
    with pytest.raises(ValueError):
        CoreOperator("gaussian", 9, 8, seed=0)
    with pytest.raises(ValueError):
        CoreOperator(RC, 4, 12, seed=0)  # not a power of two


@pytest.mark.parametrize("m_hat,n1", [(4, 8), (8, 16), (16, 16), (3, 32), (32, 64)])
def test_rc_tight_frame_constant(m_hat, n1):
    core = CoreOperator(RC, m_hat, n1, seed=11)
    nu = verify_tight_frame(core, tol=1e-8)
    assert nu == pytest.approx(n1 / m_hat, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(log_n1=st.integers(0, 10), data=st.data())
def test_rc_core_matches_its_matrix_and_is_a_tight_frame(log_n1, data):
    n1 = 2**log_n1
    m_hat = data.draw(st.integers(1, n1))
    q = data.draw(st.integers(1, 4))
    core = CoreOperator(RC, m_hat, n1, seed=data.draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    A, nu = core.as_matrix(), core.nu
    # rows of a unitary circulant, scaled: A A^T = nu * I for the matrix too
    np.testing.assert_allclose(A @ A.T, nu * np.eye(m_hat), rtol=0, atol=1e-12 * nu)
    for x in (rng.normal(size=n1), rng.normal(size=(n1, q))):
        got = core.forward(x)
        assert got.shape == (m_hat,) + x.shape[1:]
        np.testing.assert_allclose(got, A @ x, rtol=0, atol=1e-12 * np.sqrt(nu) * np.linalg.norm(x))
    for y in (rng.normal(size=m_hat), rng.normal(size=(m_hat, q))):
        got = core.adjoint(y)
        assert got.shape == (n1,) + y.shape[1:]
        np.testing.assert_allclose(got, A.T @ y, rtol=0, atol=1e-12 * np.sqrt(nu) * np.linalg.norm(y))
        np.testing.assert_allclose(core.forward(got), nu * y, rtol=0,
                                   atol=1e-12 * nu * np.linalg.norm(y))
    assert verify_tight_frame(core, tol=1e-12) == nu


def test_verify_tight_frame_rejects_gaussian():
    with pytest.raises(NotTightFrame):
        verify_tight_frame(CoreOperator("gaussian", 8, 16, seed=12))


def test_full_rc_nu_is_one():
    assert verify_tight_frame(CoreOperator(RC, 16, 16, seed=13)) == 1.0


def test_operator_norm_against_svd():
    core = CoreOperator("gaussian", 6, 12, seed=14)
    top = np.linalg.svd(core.as_matrix(), compute_uv=False)[0]
    est = operator_norm(core, (12,), iters=200)
    assert est == pytest.approx(top, rel=1e-6)


def test_operator_norm_needs_an_iteration():
    # zero iterations would return 1.0 whatever the map
    core = CoreOperator("gaussian", 6, 12, seed=14)
    with pytest.raises(ValueError):
        operator_norm(core, (12,), iters=0)


# --- sampling schemes -------------------------------------------------------


def test_uniform_identity_core_returns_cube():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(12, 3))
    op = SamplingOperator("uniform", IdentityCore(12), 12, 3)
    np.testing.assert_array_equal(op.forward(X).reshape(12, -1, order="F"), X)


def test_scheme_output_lengths():
    rng = np.random.default_rng(16)
    H = random_mixing(rng, 5, 2)
    uni = make_sampling_operator("uniform", RC, 16, 5, seed=1, m_hat=4)
    assert uni.m == 20
    dec = make_sampling_operator("decorrelating", RC, 16, 5, seed=1, m_hat=4, mixing=H)
    assert dec.m == 8
    dense = make_sampling_operator("dense", "gaussian", 16, 5, seed=1, m=30)
    assert dense.m == 30
    assert dense.nu is None and uni.nu == 4.0 and dec.nu is None


def test_decorrelation_identity_small():
    rng = np.random.default_rng(17)
    S = rng.random((16, 2))
    H = random_mixing(rng, 4, 2)
    X = S @ H.data.T
    op = make_sampling_operator("decorrelating", RC, 16, 4, seed=2, m_hat=8, mixing=H)
    via_cube = op.forward(X)
    per_source = op.core.forward(S).ravel(order="F")
    assert np.linalg.norm(via_cube - per_source) <= 1e-10 * np.linalg.norm(per_source)


def test_decorrelation_identity_matches_kron_oracle():
    rng = np.random.default_rng(18)
    S = rng.random((8, 2))
    H = random_mixing(rng, 3, 2)
    op = make_sampling_operator("decorrelating", RC, 8, 3, seed=3, m_hat=4, mixing=H)
    A_core = op.core.as_matrix()
    lhs = np.kron(H.pinv, A_core) @ np.kron(H.data, np.eye(8)) @ S.ravel(order="F")
    rhs = np.kron(np.eye(2), A_core) @ S.ravel(order="F")
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)
    np.testing.assert_allclose(op.forward(S @ H.data.T), rhs, atol=1e-10)


def test_sampling_operator_maps_cubes_only():
    rng = np.random.default_rng(20)
    H = random_mixing(rng, 2, 2)  # n2 == rho: a cube and a source matrix look alike
    op = make_sampling_operator("decorrelating", RC, 8, 2, seed=5, m_hat=4, mixing=H)
    X = rng.normal(size=(8, 2))
    np.testing.assert_allclose(
        op.forward(X), op.core.forward(X @ H.pinv.T).ravel(order="F"), atol=1e-14)
    wide = make_sampling_operator("decorrelating", RC, 8, 3, seed=5, m_hat=4,
                                  mixing=random_mixing(rng, 3, 2))
    with pytest.raises(ValueError):
        wide.forward(rng.normal(size=(8, 2)))  # rho columns are not a cube
    for space in ("sources", "bogus"):
        with pytest.raises(ValueError):
            op.forward(X, space=space)


def test_source_space_map_matches_composition():
    rng = np.random.default_rng(21)
    H = random_mixing(rng, 5, 3)
    for scheme in ("uniform", "dense"):
        kwargs = {"m": 24} if scheme == "dense" else {"m_hat": 6}
        op = make_sampling_operator(scheme, "gaussian", 16, 5, seed=6, **kwargs)
        L = SourceSpaceMap(op, H)
        S = rng.random((16, 3))
        np.testing.assert_allclose(
            L.forward(S), op.forward(S @ H.data.T), atol=1e-12)
        y = rng.normal(size=op.m)
        lhs = float(L.forward(S) @ y)
        rhs = float(np.sum(S * L.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-10 * (np.linalg.norm(S) * np.linalg.norm(y) + 1)
    dec = make_sampling_operator("decorrelating", RC, 16, 5, seed=7, m_hat=6, mixing=H)
    L = SourceSpaceMap(dec)
    assert L.nu == pytest.approx(16.0 / 6.0, rel=1e-12)
    S = rng.random((16, 3))
    np.testing.assert_allclose(
        L.forward(S), dec.core.forward(S).ravel(order="F"), atol=1e-14)


def test_rank_rule_scales_with_the_matrix_size():
    # the core's and the right factor's rank: a singular value counts as 0
    # up to sig_max * max(shape) * eps, so 3 eps on a 4-row matrix is 0
    eps = np.finfo(np.float64).eps
    assert _drop_null(np.array([1.0, 3.0 * eps]), (4, 2)).tolist() == [1.0, 0.0]
    assert _drop_null(np.array([1.0, 5.0 * eps]), (4, 2)).tolist() == [1.0, 5.0 * eps]


@pytest.mark.parametrize("rho", [2, 3])
@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", RC])
def test_decorrelating_source_map_takes_another_mixing(kind, rho):
    # a mixing other than the operator's reaches the data through the
    # operator: forward is op.forward(S H'^T), adjoint its transpose
    rng = np.random.default_rng(23)
    H = random_mixing(rng, 4, 2)
    op = make_sampling_operator("decorrelating", kind, 64, 4, seed=11, m_hat=16, mixing=H)
    other = random_mixing(rng, 4, rho)
    L = SourceSpaceMap(op, other)
    assert L.nu is None and L.m == op.m
    S = rng.normal(size=(64, rho))
    want = op.forward(S @ other.data.T)
    assert np.linalg.norm(L.forward(S) - want) <= 1e-12 * np.linalg.norm(want)
    y = rng.normal(size=op.m)
    want = op.adjoint(y) @ other.data
    assert np.linalg.norm(L.adjoint(y) - want) <= 1e-12 * np.linalg.norm(want)
    # a column outside the range of H makes B = pinv(H) H' singular, and the
    # basis says so with an exact zero
    outside = MixingMatrix(np.column_stack([H.data[:, 0], np.linalg.svd(H.data)[0][:, -1]]))
    assert SourceSpaceMap(op, outside).basis.lam.min() == 0.0
    # a copy with the same data is the own mixing: the core alone, same bytes
    own, copy = SourceSpaceMap(op), SourceSpaceMap(op, MixingMatrix(H.data.copy()))
    assert copy.B is None and copy.nu == own.nu == op.core.nu
    S = rng.normal(size=(64, 2))
    assert copy.forward(S).tobytes() == own.forward(S).tobytes()


@st.composite
def source_maps(draw, schemes=("dense", "uniform", "decorrelating"),
                spaces=("cube", "sources"), kinds=("gaussian", "bernoulli", RC)):
    """A cube map (the SamplingOperator itself) or a SourceSpaceMap on a
    random scheme, core kind and shape (the pixel count a power of two, as
    random-convolution cores need), with a seed."""
    scheme = draw(st.sampled_from(schemes))
    kind = draw(st.sampled_from(kinds))
    n1 = 2 ** draw(st.integers(2, 6))
    rho = draw(st.integers(1, 3))
    n2 = 2 ** draw(st.integers(max(rho - 1, 0), 3))
    seed = draw(st.integers(0, 2**31 - 1))
    H = random_mixing(np.random.default_rng(seed), n2, rho)
    if scheme == "dense":
        sizes = {"m": draw(st.integers(1, n1 * n2))}
    else:
        sizes = {"m_hat": draw(st.integers(1, n1))}
    op = make_sampling_operator(scheme, kind, n1, n2, seed=seed, mixing=H, **sizes)
    return (op if draw(st.sampled_from(spaces)) == "cube" else SourceSpaceMap(op, H)), seed


@pytest.mark.parametrize("scheme", ["dense", "uniform", "decorrelating"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_adjoint_dot_product(scheme, data):
    # the six maps: each scheme's cube map and source map
    L, seed = data.draw(source_maps(schemes=(scheme,)))
    rng = np.random.default_rng(seed + 1)
    S = rng.normal(size=L.shape_in)
    y = rng.normal(size=L.m)
    scale = np.linalg.norm(S) * np.linalg.norm(y) + 1.0
    assert abs(float(L.forward(S) @ y) - float(np.sum(S * L.adjoint(y)))) <= 1e-12 * scale
    # any other input shape is refused, not sampled
    with pytest.raises(ValueError):
        L.forward(rng.normal(size=(L.shape_in[0], L.shape_in[1] + 1)))
    with pytest.raises(ValueError):
        L.adjoint(rng.normal(size=L.m + 1))


def _check_gram(L, rng):
    # L L^T v is forward(adjoint(v)): back(lam * to(v)) in a Kronecker map's
    # Gram basis, and on a dense map, which has none, M (M^T v) to the byte;
    # L L^T is positive semidefinite
    v = rng.normal(size=L.m)
    want = L.forward(L.adjoint(v))
    assert want.shape == (L.m,)
    if L.basis is None:
        assert want.tobytes() == (L.M @ (L.M.T @ v)).tobytes()
    else:
        got = L.basis.back(L.basis.lam * L.basis.to(v))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert float(v @ want) >= 0.0


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", RC])
@pytest.mark.parametrize("space", ["cube", "sources"])
@pytest.mark.parametrize("scheme", ["dense", "uniform", "decorrelating"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gram_is_forward_of_adjoint(scheme, space, kind, data):
    L, seed = data.draw(source_maps(schemes=(scheme,), spaces=(space,), kinds=(kind,)))
    _check_gram(L, np.random.default_rng(seed + 4))


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", RC])
@pytest.mark.parametrize("scheme,space,n2,rho", [
    ("uniform", "sources", 3, 3),  # n2 = rho: H square
    ("decorrelating", "cube", 5, 2),  # B = pinv(H) is 2 x 5: mix first
    ("decorrelating", "cube", 3, 3),
])
def test_gram_on_square_and_mix_first_factors(kind, scheme, space, n2, rho):
    rng = np.random.default_rng(n2 * 10 + rho)
    H = random_mixing(rng, n2, rho)
    op = make_sampling_operator(scheme, kind, 16, n2, seed=5, m_hat=6, mixing=H)
    L = op if space == "cube" else SourceSpaceMap(op, H)
    assert L._mix_first == (scheme == "decorrelating" and rho < n2)
    _check_gram(L, rng)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", RC])
@pytest.mark.parametrize("space", ["cube", "sources"])
@pytest.mark.parametrize("scheme", ["uniform", "decorrelating"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kronecker_maps_diagonalize_their_gram(scheme, space, kind, data):
    # the basis Q_B (x) Q_A: orthonormal, L L^T = back(lam * to(.)) with
    # lam >= 0, and max(lam) = ||L||^2 of the materialized map
    L, seed = data.draw(source_maps(schemes=(scheme,), spaces=(space,), kinds=(kind,)))
    # built on first use, not at construction
    assert "basis" not in vars(L) and "_eig" not in vars(L.core)
    basis = L.basis
    rng = np.random.default_rng(seed + 5)
    v = rng.normal(size=L.m)
    w = basis.to(v)
    assert w.shape == (L.m,)
    assert abs(np.linalg.norm(w) - np.linalg.norm(v)) <= 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(basis.back(w) - v) <= 1e-12 * np.linalg.norm(v)
    assert basis.lam.shape == (L.m,) and np.all(basis.lam >= 0.0)
    want = L.forward(L.adjoint(v))
    got = basis.back(basis.lam * basis.to(v))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    n_in = L.shape_in[0] * L.shape_in[1]
    dense = np.stack([L.forward(e.reshape(L.shape_in, order="F")) for e in np.eye(n_in)],
                     axis=1)
    top = float(basis.lam.max())
    assert top == pytest.approx(np.linalg.norm(dense, 2) ** 2, rel=1e-10)
    # the power iteration is a lower bound, up to its own rounding
    assert top >= operator_norm(L, L.shape_in) ** 2 * (1.0 - 1e-12)


@pytest.mark.parametrize("space", ["cube", "sources"])
def test_dense_maps_offer_no_basis(space):
    H = random_mixing(np.random.default_rng(10), 4, 2)
    op = make_sampling_operator("dense", "gaussian", 16, 4, seed=8, m=20)
    L = op if space == "cube" else SourceSpaceMap(op, H)
    assert L.basis is None


@settings(max_examples=150, deadline=None)
@given(case=source_maps(schemes=("uniform",), spaces=("sources",)))
def test_uniform_source_map_matches_the_cube_path(case):
    L, seed = case
    S = np.random.default_rng(seed + 2).normal(size=L.shape_in)
    want = L.op.forward(S @ L.mixing.data.T)
    got = L.forward(S)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=150, deadline=None)
@given(case=source_maps(schemes=("dense",), spaces=("sources",)))
def test_dense_source_map_folds_the_mixing_into_the_matrix(case):
    L, seed = case
    rng = np.random.default_rng(seed + 3)
    S = rng.normal(size=L.shape_in)
    want = L.op.forward(S @ L.mixing.data.T)
    assert np.linalg.norm(L.forward(S) - want) <= 1e-12 * np.linalg.norm(want)
    y = rng.normal(size=L.m)
    want = L.op.adjoint(y) @ L.mixing.data
    assert np.linalg.norm(L.adjoint(y) - want) <= 1e-12 * np.linalg.norm(want)
    if S.shape[0] != S.shape[1]:
        # same size, wrong layout: the cube path rejected it, and so must the fold
        with pytest.raises(ValueError):
            L.forward(S.T)


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli"])
def test_dense_operator_shares_its_core_matrix(kind):
    op = make_sampling_operator("dense", kind, 16, 4, seed=8, m=20)
    assert np.shares_memory(op.M, op.core._mat)
    H = random_mixing(np.random.default_rng(9), 4, 2)
    # the folded source map is the one new matrix, m x n1*rho
    assert SourceSpaceMap(op, H).M.shape == (20, 32)


# --- decorrelation post-processing ------------------------------------------


def test_decorrelate_orthonormal_is_transpose():
    Q, _ = np.linalg.qr(np.random.default_rng(22).normal(size=(5, 2)))
    H = MixingMatrix(Q)
    Y = np.random.default_rng(23).normal(size=(7, 5))
    Y_star, z_gain = decorrelate_measurements(Y, H)
    np.testing.assert_allclose(Y_star, Y @ Q, atol=1e-12)
    assert z_gain == pytest.approx(1.0, rel=1e-12)


def test_decorrelate_recovers_core_samples():
    rng = np.random.default_rng(24)
    H = random_mixing(rng, 6, 2)
    core = CoreOperator(RC, 8, 16, seed=8)
    S = rng.random((16, 2))
    Y = core.forward(S @ H.data.T)
    Y_star, _ = decorrelate_measurements(Y, H)
    ref = core.forward(S)
    assert np.linalg.norm(Y_star - ref) <= 1e-10 * np.linalg.norm(ref)


def test_decorrelate_square_invertible_round_trip():
    rng = np.random.default_rng(25)
    H = MixingMatrix(rng.normal(size=(3, 3)) + 3.0 * np.eye(3))
    Y = rng.normal(size=(10, 3))
    Y_star, _ = decorrelate_measurements(Y, H)
    np.testing.assert_allclose(Y_star @ H.data.T, Y, atol=1e-10)


def test_decorrelate_z_gain_is_inverse_sigma_min():
    rng = np.random.default_rng(26)
    H = random_mixing(rng, 5, 3)
    _, z_gain = decorrelate_measurements(np.zeros((4, 5)), H)
    sig = np.linalg.svd(H.data, compute_uv=False)
    assert z_gain == pytest.approx(1.0 / sig[-1], rel=1e-12)


def test_post_processing_equals_decorrelating_scheme():
    rng = np.random.default_rng(27)
    H = random_mixing(rng, 6, 2)
    S = rng.random((16, 2))
    X = S @ H.data.T
    uni = make_sampling_operator("uniform", RC, 16, 6, seed=9, m_hat=8)
    dec = make_sampling_operator("decorrelating", RC, 16, 6, seed=9, m_hat=8, mixing=H)
    Y_star, _ = decorrelate_measurements(uni.forward(X).reshape(8, -1, order="F"), H)
    y_dec = dec.forward(X)
    assert np.linalg.norm(Y_star.ravel(order="F") - y_dec) <= 1e-9 * np.linalg.norm(y_dec)


# --- noise ------------------------------------------------------------------


def test_add_noise_infinite_snr():
    y = np.arange(5.0)
    mset = add_noise(y, np.inf, seed=0)
    np.testing.assert_array_equal(mset.y, y)
    assert mset.epsilon == 0.0 and mset.snr_db == np.inf


def test_add_noise_exact_snr():
    rng = np.random.default_rng(28)
    y = rng.normal(size=100)
    mset = add_noise(y, 20.0, seed=1)
    z = mset.y - y
    assert np.linalg.norm(z) / np.linalg.norm(y) == pytest.approx(0.1, abs=1e-12)
    assert mset.epsilon == pytest.approx(np.linalg.norm(z), rel=1e-15)


def test_add_noise_reproducible():
    y = np.ones(16)
    a = add_noise(y, 15.0, seed=7)
    b = add_noise(y, 15.0, seed=7)
    assert a.y.tobytes() == b.y.tobytes()
    assert add_noise(y, 15.0, seed=8).y.tobytes() != a.y.tobytes()


def test_add_noise_validation():
    with pytest.raises(ValueError):
        add_noise(np.ones(4), 0.0, seed=0)
    with pytest.raises(ValueError):
        add_noise(np.zeros(4), 10.0, seed=0)


def test_measurement_set_epsilon_snr_coupling():
    with pytest.raises(ValueError):
        MeasurementSet(np.ones(4), 0.0, 30.0, {})
    with pytest.raises(ValueError):
        MeasurementSet(np.ones(4), 0.5, np.inf, {})
    mset = MeasurementSet(np.ones(4), 0.0, np.inf, {})
    assert mset.epsilon == 0.0


def test_measurement_set_leaves_caller_array_writeable():
    y = np.ones(4)
    mset = MeasurementSet(y, 0.0, np.inf, {})
    assert y.flags.writeable
    assert not mset.y.flags.writeable
    y[0] = 5.0
    assert mset.y[0] == 1.0
