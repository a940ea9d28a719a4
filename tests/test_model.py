import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csskit.model import (
    HsiCube,
    MixingMatrix,
    RankDeficient,
    SourceMatrix,
    mix,
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


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 4), rho=st.integers(1, 3),
       extra=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_mix_takes_sources_or_their_array(rows, cols, rho, extra, seed):
    # the same bytes from a SourceMatrix and from its array; a wrong column
    # count, a non-matrix or a shape that does not factor n1 is refused
    rng = np.random.default_rng(seed)
    n1 = rows * cols
    S = SourceMatrix(rng.dirichlet(np.ones(rho), size=n1))
    H = random_mixing(rng, rho + extra, rho)
    a = mix(S, H, shape=(rows, cols))
    b = mix(np.array(S.data), H, shape=(rows, cols))
    assert (a.rows, a.cols, a.channels) == (b.rows, b.cols, b.channels)
    assert a.channels == rho + extra
    assert a.data.tobytes() == b.data.tobytes()
    # an array is not held to the simplex
    np.testing.assert_array_equal(mix(-S.data, H, shape=(rows, cols)).data, -a.data)
    with pytest.raises(ValueError):
        mix(rng.random((n1, rho + 1)), H, shape=(rows, cols))
    with pytest.raises(ValueError):
        mix(SourceMatrix(rng.dirichlet(np.ones(rho + 1), size=n1)), H)
    with pytest.raises(ValueError):
        mix(S.data[:, 0], H)
    with pytest.raises(ValueError):
        mix(S, H, shape=(rows, cols + 1))
    with pytest.raises(ValueError):
        mix(S.data, H, shape=(rows + 1, cols))


def test_rank_deficient_rejected():
    col = np.arange(1.0, 5.0)[:, None]
    with pytest.raises(RankDeficient):
        MixingMatrix(np.hstack([col, 2.0 * col]))


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
