import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csskit import wavelets
from csskit.wavelets import FAMILIES, Wavelet2D


# --- reference: the per-image, per-column transform with one roll per tap ---


def _ref_analyze(a, filt, axis):
    acc = filt[0] * a
    for k in range(1, filt.size):
        acc = acc + filt[k] * np.roll(a, -k, axis=axis)
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(0, None, 2)
    return acc[tuple(sl)]


def _ref_synthesize(c, filt, axis):
    shape = list(c.shape)
    shape[axis] *= 2
    z = np.zeros(shape, dtype=c.dtype)
    sl = [slice(None)] * c.ndim
    sl[axis] = slice(0, None, 2)
    z[tuple(sl)] = c
    acc = filt[0] * z
    for k in range(1, filt.size):
        acc = acc + filt[k] * np.roll(z, k, axis=axis)
    return acc


def _filters(wav):
    h = wavelets._SCALING[wav.family]
    return h, wavelets._qmf(h)


def reference_forward(wav, image):
    h, g = _filters(wav)
    out = np.array(image, dtype=np.float64)
    r, c = wav.rows, wav.cols
    for _ in range(wav.levels):
        block = out[:r, :c]
        lo = _ref_analyze(block, h, axis=0)
        hi = _ref_analyze(block, g, axis=0)
        r2, c2 = r // 2, c // 2
        out[:r2, :c2] = _ref_analyze(lo, h, axis=1)
        out[:r2, c2:c] = _ref_analyze(lo, g, axis=1)
        out[r2:r, :c2] = _ref_analyze(hi, h, axis=1)
        out[r2:r, c2:c] = _ref_analyze(hi, g, axis=1)
        r, c = r2, c2
    return out


def reference_inverse(wav, coeffs):
    h, g = _filters(wav)
    out = np.array(coeffs, dtype=np.float64)
    r, c = wav.rows >> wav.levels, wav.cols >> wav.levels
    for _ in range(wav.levels):
        r2, c2 = 2 * r, 2 * c
        lo = _ref_synthesize(out[:r, :c], h, 1) + _ref_synthesize(out[:r, c:c2], g, 1)
        hi = _ref_synthesize(out[r:r2, :c], h, 1) + _ref_synthesize(out[r:r2, c:c2], g, 1)
        out[:r2, :c2] = _ref_synthesize(lo, h, 0) + _ref_synthesize(hi, g, 0)
        r, c = r2, c2
    return out


def _ref_cols(wav, mat, transform):
    mat = np.asarray(mat, dtype=np.float64)
    out = np.empty_like(mat)
    for j in range(mat.shape[1]):
        out[:, j] = transform(wav, mat[:, j].reshape(wav.rows, wav.cols)).ravel()
    return out


def reference_forward_cols(wav, mat):
    return _ref_cols(wav, mat, reference_forward)


def reference_inverse_cols(wav, mat):
    return _ref_cols(wav, mat, reference_inverse)


def dense_matrix(wav):
    """Materialize the analysis map: column j is the transform of e_j."""
    return wav.forward_cols(np.eye(wav.n1))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (8, 4), (24, 16)])
def test_round_trip(family, shape):
    rng = np.random.default_rng(0)
    wav = Wavelet2D(*shape, family)
    img = rng.normal(size=(wav.n1, 1))
    back = wav.inverse_cols(wav.forward_cols(img))
    assert np.max(np.abs(back - img)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_parseval(family):
    rng = np.random.default_rng(1)
    wav = Wavelet2D(16, 16, family)
    img = rng.normal(size=(256, 1))
    coeffs = wav.forward_cols(img)
    assert abs(np.linalg.norm(coeffs) - np.linalg.norm(img)) < 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_analysis_matrix_is_orthonormal(family):
    wav = Wavelet2D(8, 8, family)
    W = dense_matrix(wav)
    np.testing.assert_allclose(W @ W.T, np.eye(64), atol=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_adjoint_identity(family):
    rng = np.random.default_rng(2)
    wav = Wavelet2D(8, 8, family)
    for _ in range(5):
        x = rng.normal(size=(64, 1))
        theta = rng.normal(size=(64, 1))
        lhs = float(np.sum(wav.inverse_cols(theta) * x))
        rhs = float(np.sum(theta * wav.forward_cols(x)))
        assert abs(lhs - rhs) < 1e-12 * (np.linalg.norm(x) * np.linalg.norm(theta) + 1)


def test_constant_image_haar_single_coefficient():
    wav = Wavelet2D(16, 16, "haar")
    coeffs = wav.forward_cols(np.full((256, 1), 3.0)).reshape(16, 16)
    # all energy in the coarsest scaling coefficient, stored top-left
    assert coeffs[0, 0] == pytest.approx(3.0 * 16.0, rel=1e-12)
    rest = coeffs.copy()
    rest[0, 0] = 0.0
    assert np.max(np.abs(rest)) < 1e-12


def test_levels_default_and_validation():
    wav = Wavelet2D(16, 4, "haar")
    assert wav.levels == 2  # log2 of the smaller side
    # the deepest level both dims divide, where log2 of the smaller is too deep
    assert Wavelet2D(12, 16, "haar").levels == 2
    assert Wavelet2D(24, 16, "haar").levels == 3
    with pytest.raises(ValueError):
        Wavelet2D(12, 16, "haar", levels=3)  # 12 not divisible by 2^levels
    with pytest.raises(ValueError):
        Wavelet2D(12, 18, "haar", levels=2)
    with pytest.raises(ValueError):
        Wavelet2D(3, 5, "haar")  # no level divides odd dims
    with pytest.raises(ValueError):
        Wavelet2D(16, 16, "haar", levels=5)
    with pytest.raises(ValueError):
        Wavelet2D(16, 16, "unknown-family")


def test_single_level_haar_quadrants():
    # one level: the ll quadrant of a constant image carries everything
    wav = Wavelet2D(4, 4, "haar", levels=1)
    coeffs = wav.forward_cols(np.ones((16, 1))).reshape(4, 4)
    np.testing.assert_allclose(coeffs[:2, :2], 2.0 * np.ones((2, 2)), atol=1e-14)
    assert np.max(np.abs(coeffs[2:, :])) < 1e-14
    assert np.max(np.abs(coeffs[:, 2:])) < 1e-14


def test_forward_cols_matches_per_column_transform():
    rng = np.random.default_rng(3)
    wav = Wavelet2D(8, 4, "db4")
    S = rng.normal(size=(32, 3))
    out = wav.forward_cols(S)
    for j in range(3):
        expected = wav.forward_cols(S[:, [j]])[:, 0]
        np.testing.assert_allclose(out[:, j], expected, rtol=1e-12)
    np.testing.assert_allclose(wav.inverse_cols(out), S, atol=1e-12)


# --- batched transforms against the per-column reference ------------------

# The matmuls sum the wrapped taps in another order than the reference's one
# roll per tap, and a batched GEMM in another order than a one-column call:
# the same linear map to rounding. Largest deviation seen: 9.2e-16 relative.
REL = 1e-14


def _same_layout(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    # one layout as well as one map: the solvers' reductions follow it
    assert got.strides == want.strides
    assert np.max(np.abs(got - want), initial=0.0) <= REL * np.max(np.abs(want), initial=0.0)


@st.composite
def column_stacks(draw):
    """A wavelet and an (n1, q) matrix, often strided or Fortran-ordered,
    with exact +0 and -0 entries mixed in."""
    family = draw(st.sampled_from(FAMILIES))
    rows, cols = draw(st.sampled_from([(4, 4), (8, 8), (16, 16), (8, 4), (16, 4), (4, 16), (2, 8),
                                        (32, 32), (64, 16)]))
    levels = draw(st.integers(1, int(np.log2(min(rows, cols)))))
    q = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["C", "F", "column-slice", "row-slice"]))
    base = rng.normal(size=(rows * cols * (2 if layout == "row-slice" else 1), 2 * q))
    base[rng.random(base.shape) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    base[rng.random(base.shape) < 0.2] *= -0.0
    if layout == "column-slice":
        mat = base[:, 1::2]
    elif layout == "row-slice":
        mat = base[::2, :q]
    else:
        mat = np.array(base[:, :q], order=layout)
    return Wavelet2D(rows, cols, family, levels), mat


@settings(max_examples=200, deadline=None)
@given(case=column_stacks())
def test_batched_transforms_match_per_column_reference(case):
    wav, mat = case
    before = mat.copy(order="A")
    for transform, reference in ((wav.forward_cols, reference_forward_cols),
                                 (wav.inverse_cols, reference_inverse_cols)):
        want = reference(wav, mat)
        got = transform(mat)
        _same_layout(got, want)
        # each column as its own one-column call, within the same bound
        bound = REL * np.max(np.abs(want), initial=0.0)
        for j in range(mat.shape[1]):
            assert np.max(np.abs(got[:, j] - transform(mat[:, [j]])[:, 0])) <= bound
    # the input reshapes to the stack without a copy; nothing writes through
    assert mat.tobytes(order="A") == before.tobytes(order="A")
    assert mat.flags.writeable


@settings(max_examples=60, deadline=None)
@given(case=column_stacks(), seed=st.integers(0, 2**32 - 1))
def test_stacked_adjoint_identity(case, seed):
    wav, x = case
    theta = np.random.default_rng(seed).normal(size=x.shape)
    lhs = float(np.sum(wav.inverse_cols(theta) * x))
    rhs = float(np.sum(theta * wav.forward_cols(x)))
    assert abs(lhs - rhs) <= 1e-12 * (np.linalg.norm(x) * np.linalg.norm(theta) + 1)


def test_read_only_input_is_left_read_only():
    wav = Wavelet2D(8, 4, "db4")
    mat = np.random.default_rng(4).normal(size=(32, 3))
    mat.setflags(write=False)
    coeffs = wav.forward_cols(mat)
    np.testing.assert_allclose(wav.inverse_cols(coeffs), mat, atol=1e-12)
    assert coeffs.flags.writeable and not mat.flags.writeable


# --- the cached level matrices ---------------------------------------------


@pytest.mark.parametrize("key", [(32, 32, "haar", 5), (64, 16, "db4", 4), (16, 16, "db4", 2),
                                 (8, 4, "haar", 2), (4, 4, "db4", 2), (2, 8, "db4", 1)])
def test_plan_matrices_are_orthonormal_and_read_only(key):
    steps, fold = Wavelet2D(*key)._matrices
    matrices = [A for pair in steps for A in pair] + ([] if fold is None else [fold])
    assert matrices
    for A in matrices:
        eye = np.eye(A.shape[0])
        assert np.max(np.abs(A @ A.T - eye)) <= 1e-14
        assert np.max(np.abs(A.T @ A - eye)) <= 1e-14
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 1.0


def test_plan_is_shared_by_key_and_built_on_first_transform():
    wavelets._plan.cache_clear()
    a = Wavelet2D(32, 32, "db4")
    b = Wavelet2D(32, 32, "db4")
    assert wavelets._plan.cache_info().currsize == 0  # construction builds nothing
    a.forward_cols(np.ones((1024, 1)))
    assert wavelets._plan.cache_info().currsize == 1
    (steps_a, fold_a), (steps_b, fold_b) = a._matrices, b._matrices
    assert fold_a is fold_b
    assert all(x is y for pa, pb in zip(steps_a, steps_b) for x, y in zip(pa, pb))
    # another depth is another plan
    assert Wavelet2D(32, 32, "db4", 2)._matrices[0][0][0] is not steps_a[0][0]


@pytest.mark.parametrize("shape", [(2, 8), (4, 4)])
def test_db4_matches_the_reference_where_taps_wrap_more_than_once(shape):
    # 8 taps on an axis of 2 or 4 samples wrap 4 or 2 times
    wav = Wavelet2D(*shape, "db4")
    mat = np.random.default_rng(5).normal(size=(wav.n1, 3))
    _same_layout(wav.forward_cols(mat), reference_forward_cols(wav, mat))
    _same_layout(wav.inverse_cols(mat), reference_inverse_cols(wav, mat))
