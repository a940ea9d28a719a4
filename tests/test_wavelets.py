import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_forward(wav, image):
    h, g = wav._h, wav._g
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
    h, g = wav._h, wav._g
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
@pytest.mark.parametrize("shape", [(8, 8), (16, 16), (8, 4)])
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
    with pytest.raises(ValueError):
        Wavelet2D(12, 16, "haar")  # 12 not divisible by 2^levels
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


# --- batched transforms against the per-column reference, byte for byte ----


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    # one layout as well as one value: the solvers' reductions follow it
    assert got.strides == want.strides
    assert got.tobytes(order="A") == want.tobytes(order="A")


@st.composite
def column_stacks(draw):
    """A wavelet and an (n1, q) matrix, often strided or Fortran-ordered,
    with exact +0 and -0 entries mixed in (they exercise signed-zero sums)."""
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
    _same_bytes(wav.forward_cols(mat), reference_forward_cols(wav, mat))
    _same_bytes(wav.inverse_cols(mat), reference_inverse_cols(wav, mat))
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
