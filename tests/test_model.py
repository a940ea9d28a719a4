import numpy as np
import pytest

from csskit.model import (
    HsiCube,
    MixingMatrix,
    RankDeficient,
    SourceMatrix,
    mix,
    normalize_mixing,
    validate_sources,
)


def random_mixing(rng, n2, rho):
    return MixingMatrix(rng.normal(size=(n2, rho)) + np.eye(n2, rho) * 3.0)


def test_cube_shape_and_vec_layout():
    data = np.arange(12.0).reshape(6, 2)
    cube = HsiCube(2, 3, 2, data)
    assert cube.n1 == 6 and cube.n2 == 2
    # pixel-major: all of channel 0, then channel 1
    np.testing.assert_array_equal(cube.vec()[:6], data[:, 0])
    np.testing.assert_array_equal(cube.vec()[6:], data[:, 1])
    # row-major unflattening: pixel r*cols + c
    np.testing.assert_array_equal(cube.image(1), data[:, 1].reshape(2, 3))


def test_cube_rejects_bad_shapes():
    with pytest.raises(ValueError):
        HsiCube(2, 2, 2, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        HsiCube(2, 2, 2, np.full((4, 2), np.nan))
    with pytest.raises(ValueError):
        HsiCube(0, 2, 2, np.zeros((0, 2)))


def test_cube_data_is_immutable():
    cube = HsiCube(2, 2, 1, np.zeros((4, 1)))
    with pytest.raises(ValueError):
        cube.data[0, 0] = 1.0


def test_source_matrix_accepts_simplex_rows():
    S = SourceMatrix(np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))
    assert S.n1 == 3 and S.rho == 2


def test_source_matrix_rejects_bad_rows():
    with pytest.raises(ValueError):
        SourceMatrix(np.array([[0.6, 0.6]]))
    with pytest.raises(ValueError):
        SourceMatrix(np.array([[1.5, -0.5]]))
    with pytest.raises(ValueError):
        SourceMatrix(np.array([[0.5, 0.5]]), disjoint=True)
    for bad in (np.array([[np.nan, 1.0]]), np.zeros((0, 2)), np.array([0.5, 0.5])):
        with pytest.raises(ValueError):
            SourceMatrix(bad)
    SourceMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), disjoint=True)


def test_mix_matches_triple_loop_oracle():
    rng = np.random.default_rng(0)
    S = SourceMatrix(np.array([[0.2, 0.8], [1.0, 0.0], [0.4, 0.6], [0.0, 1.0]]))
    H = random_mixing(rng, 3, 2)
    cube = mix(S, H, shape=(2, 2))
    expected = np.zeros((4, 3))
    for p in range(4):
        for ch in range(3):
            for j in range(2):
                expected[p, ch] += S.data[p, j] * H.data[ch, j]
    np.testing.assert_allclose(cube.data, expected, rtol=1e-12)


def test_mix_shape_validation():
    S = SourceMatrix(np.ones((6, 1)))
    H = MixingMatrix(np.ones((2, 1)))
    with pytest.raises(ValueError):
        mix(S, H, shape=(2, 2))
    assert mix(S, H).rows == 6  # default (n1, 1)


def test_normalize_orthonormal_columns():
    Q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 3)))
    H_norm, diag = normalize_mixing(Q)
    assert abs(diag.scale - 1.0) < 1e-12
    assert abs(diag.eta) < 1e-12
    np.testing.assert_allclose(H_norm.data, Q, rtol=1e-12)


def test_normalize_diag_3_1():
    H_norm, diag = normalize_mixing(np.diag([3.0, 1.0]))
    assert diag.scale == pytest.approx(2.0, abs=1e-14)
    np.testing.assert_allclose(H_norm.data, np.diag([1.5, 0.5]), rtol=1e-14)
    assert diag.xi == pytest.approx(3.0, abs=1e-12)
    assert diag.eta == pytest.approx(1.25, abs=1e-12)


def test_normalize_random_matrix_against_svd_oracle():
    rng = np.random.default_rng(6)
    H = rng.normal(size=(6, 3)) + 2.0 * np.eye(6, 3)
    H_norm, diag = normalize_mixing(H)
    sig = np.linalg.svd(H_norm.data, compute_uv=False)
    assert 1.0 <= sig[0] + 1e-12 and sig[0] < 2.0
    assert 0.0 < sig[-1] <= 1.0 + 1e-12
    assert diag.sigma_max == pytest.approx(sig[0], rel=1e-12)
    assert diag.sigma_min == pytest.approx(sig[-1], rel=1e-12)
    # condition number is scale invariant
    orig = np.linalg.svd(H, compute_uv=False)
    assert diag.xi == pytest.approx(orig[0] / orig[-1], rel=1e-10)


def test_normalize_is_idempotent():
    rng = np.random.default_rng(7)
    H = rng.normal(size=(5, 2)) + np.eye(5, 2)
    H_norm, _ = normalize_mixing(H)
    _, diag2 = normalize_mixing(H_norm)
    assert abs(diag2.scale - 1.0) < 1e-12


def test_rank_deficient_rejected():
    col = np.arange(1.0, 5.0)[:, None]
    with pytest.raises(RankDeficient):
        MixingMatrix(np.hstack([col, 2.0 * col]))
    with pytest.raises(RankDeficient):
        normalize_mixing(np.hstack([col, 2.0 * col]))


def test_mixing_requires_enough_channels():
    with pytest.raises(ValueError):
        MixingMatrix(np.ones((2, 3)))


def test_validate_sources_reports():
    good = validate_sources(np.array([[0.3, 0.7], [1.0, 0.0]]))
    assert good.ok and good.violations == ()
    bad = validate_sources(np.array([[0.6, 0.6]]))
    assert not bad.ok
    assert bad.max_row_sum_deviation == pytest.approx(0.2, abs=1e-12)
    one_hot = validate_sources(np.eye(3), disjoint=True)
    assert one_hot.ok
    soft = validate_sources(np.array([[0.5, 0.5], [1.0, 0.0]]), disjoint=True)
    assert soft.bad_disjoint_rows == (0,)
    assert not soft.ok
    nan = validate_sources(np.array([[np.nan, 1.0], [1.0, 0.0]]))
    assert not nan.ok
    assert any("non-finite" in v for v in nan.violations)
    # report-only: bad shapes are reported, not raised
    for shape in [(0, 2), (2,), (0,)]:
        assert not validate_sources(np.full(shape, 0.5)).ok



def test_mixing_names_roundtrip():
    H = MixingMatrix(np.eye(3, 2), names=("grass", "rock"))
    assert H.names == ("grass", "rock")
    with pytest.raises(ValueError):
        MixingMatrix(np.eye(3, 2), names=("only-one",))
