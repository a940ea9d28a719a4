import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from csskit.model import MixingMatrix
from csskit.operators import (
    CoreOperator,
    NotTightFrame,
    SamplingOperator,
    SourceSpaceMap,
    make_sampling_operator,
    operator_norm,
)
from csskit.proximal import (
    TV_DUAL_STEP,
    _fb_noiseless_capped,
    hard_threshold_topk,
    l2ball_project_eig,
    l2ball_project_fb,
    l2ball_project_tightframe,
    simplex_project_rows,
    soft_threshold,
    tv_norm,
    tv_prox,
)
from csskit.wavelets import Wavelet2D
from oracles import (
    CountingCore,
    kkt_ball_projection,
    reference_hard_threshold_topk,
    reference_l2ball_project_fb,
    reference_simplex_project_rows,
    reference_tv_prox,
)


class DenseOp:
    """Plain matrix as a forward/adjoint pair (no tight-frame constant)."""

    nu = None

    def __init__(self, A):
        self.A = A

    def forward(self, x):
        return self.A @ x

    def adjoint(self, r):
        return self.A.T @ r


def test_soft_threshold_examples():
    np.testing.assert_array_equal(
        soft_threshold(np.array([3.0, -0.5, 0.0]), 1.0), [2.0, 0.0, 0.0])
    v = np.array([1.5, -2.0, 0.25])
    np.testing.assert_array_equal(soft_threshold(v, 0.0), v)
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


def test_soft_threshold_matches_grid_prox():
    ts = np.linspace(-5, 5, 200001)
    for x in np.arange(-2.0, 2.5, 0.5):
        objective = np.abs(ts) + 0.5 * (ts - x) ** 2
        best = ts[np.argmin(objective)]
        got = float(soft_threshold(np.array([x]), 1.0)[0])
        assert abs(got - best) <= ts[1] - ts[0]


def test_hard_threshold_examples():
    np.testing.assert_array_equal(
        hard_threshold_topk(np.array([1.0, -3.0, 2.0]), 2), [0.0, -3.0, 2.0])
    v = np.array([0.3, -0.1, 2.0])
    np.testing.assert_array_equal(hard_threshold_topk(v, 3), v)
    np.testing.assert_array_equal(hard_threshold_topk(v, 0), np.zeros(3))
    # tie broken toward the lowest index
    np.testing.assert_array_equal(
        hard_threshold_topk(np.array([1.0, 1.0, 0.0]), 1), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        hard_threshold_topk(v, 4)


@settings(max_examples=150, deadline=None)
@given(
    v=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 6)),
             elements=st.sampled_from([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])),
    data=st.data(),
)
def test_hard_threshold_breaks_ties_toward_the_lowest_flat_index(v, data):
    # few distinct magnitudes, so most draws tie at the cut; no zeros, so
    # the kept entries are exactly the nonzero ones
    k = data.draw(st.integers(0, v.size))
    out = hard_threshold_topk(v, k)
    flat, kept = v.ravel(), out.ravel() != 0.0
    assert out.shape == v.shape and kept.sum() == k
    np.testing.assert_array_equal(out.ravel()[kept], flat[kept])
    mags = np.abs(flat)
    for i in np.flatnonzero(kept):
        for j in np.flatnonzero(~kept):
            assert mags[i] > mags[j] or (mags[i] == mags[j] and i < j)


@settings(max_examples=150, deadline=None)
@given(
    v=arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 7)),
             elements=st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.inf, np.nan])),
    order=st.sampled_from(["C", "F"]),
)
def test_hard_threshold_matches_the_stable_sort(v, order):
    # heavy ties, signed zeros, inf and NaN; every k from 0 to n
    v = np.array(v, order=order)
    for k in range(v.size + 1):
        got = hard_threshold_topk(v, k)
        want = reference_hard_threshold_topk(v, k)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_tv_norm_oracle():
    img = np.array([[0.0, 1.0], [2.0, 3.0]])
    # per-pixel forward differences: sqrt(5) + 2 + 1 + 0
    assert tv_norm(img) == pytest.approx(3.0 + np.sqrt(5.0), rel=1e-14)
    assert tv_norm(np.full((5, 7), 2.5)) == 0.0


def test_tv_prox_constant_fixed_point():
    img = np.full((8, 8), 1.25)
    np.testing.assert_array_equal(tv_prox(img, 0.7), img)


def test_tv_prox_two_pixel_grid_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=2) * 3.0
        lam = rng.uniform(0.05, 2.0)
        got = tv_prox(x.reshape(2, 1), lam, max_iters=3000, tol=1e-12).ravel()
        # exact prox of lam*|u1-u0|: move both ends toward each other
        d = x[1] - x[0]
        t = np.sign(d) * min(lam, abs(d) / 2.0)
        exact = np.array([x[0] + t, x[1] - t])
        assert np.max(np.abs(got - exact)) < 1e-3


def test_tv_prox_large_lambda_approaches_mean():
    rng = np.random.default_rng(1)
    img = rng.uniform(0.0, 1.0, size=(8, 8))
    out = tv_prox(img, 1e3, max_iters=5000, tol=1e-13)
    assert np.max(np.abs(out - img.mean())) < 1e-3


def test_tv_prox_never_increases_rof_objective():
    rng = np.random.default_rng(2)
    for _ in range(10):
        img = rng.normal(size=(12, 12))
        lam = rng.uniform(0.01, 1.0)
        out = tv_prox(img, lam, max_iters=30)  # deliberately few iterations
        before = lam * tv_norm(img)
        after = lam * tv_norm(out) + 0.5 * np.sum((out - img) ** 2)
        assert after <= before + 1e-12


@st.composite
def image_stacks(draw):
    k = draw(st.integers(1, 4))
    rows = draw(st.integers(1, 10))
    cols = draw(st.sampled_from([1, 2, 3, 7, 8, 8, 9]))  # 8 columns twice as often
    values = st.floats(-10.0, 10.0, allow_nan=False, width=64)
    stack = draw(arrays(np.float64, (k, rows, cols), elements=values))
    # images at very different scales stop at very different iterations
    scales = draw(st.lists(st.sampled_from([1e-2, 1.0, 1e2]), min_size=k, max_size=k))
    return stack * np.array(scales)[:, None, None]


TWO_SCALES = np.stack([
    100.0 * np.random.default_rng(5).uniform(size=(8, 8)),
    0.01 * np.random.default_rng(6).uniform(size=(8, 8)),
])


@settings(max_examples=150, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    max_iters=st.integers(0, 60),
    tol=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
)
@example(stack=TWO_SCALES, lam=0.5, max_iters=100, tol=1e-3)
# the second image stops on iteration 74: the last allowed one, then one past the cap
@example(stack=TWO_SCALES, lam=0.5, max_iters=74, tol=1e-3)
@example(stack=TWO_SCALES, lam=0.5, max_iters=73, tol=1e-3)
def test_tv_prox_stack_equals_separate_calls(stack, lam, max_iters, tol):
    flags = set()
    got = tv_prox(stack, lam, max_iters, tol, flags=flags)
    assert got.shape == stack.shape
    for i, image in enumerate(stack):
        single = tv_prox(image, lam, max_iters, tol)
        reference, _, _ = reference_tv_prox(image, lam, max_iters, tol)
        assert got[i].tobytes() == single.tobytes() == reference.tobytes()
    # capped exactly when some image would still iterate past max_iters; an
    # image that stops on the last allowed iteration does not count (the
    # reference runs no iteration at lam = 0 or on a one-pixel image)
    capped = any(reference_tv_prox(image, lam, max_iters + 1, tol)[1] > max_iters
                 for image in stack)
    assert ("tv-prox-capped" in flags) == capped


def test_two_scale_example_stops_at_different_iterations():
    # the premise of the @examples above: one image stops long before the
    # other, which stops on iteration 74
    stops = [reference_tv_prox(image, 0.5, 100, 1e-3)[1] for image in TWO_SCALES]
    assert stops == [10, 74]


def unit_ball_dual(rng, shape):
    """A random dual field inside the pointwise unit ball, some of it on
    the boundary."""
    p = rng.normal(size=shape)
    return p / np.maximum(np.hypot(p[0], p[1]), 1.0)


@settings(max_examples=150, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    max_iters=st.integers(0, 60),
    tol=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(stack=TWO_SCALES, lam=0.5, max_iters=100, tol=1e-3, seed=0)
def test_tv_prox_warm_stack_equals_separate_calls(stack, lam, max_iters, tol, seed):
    dual = unit_ball_dual(np.random.default_rng(seed), (2,) + stack.shape)
    duals = [dual[:, i].copy() for i in range(stack.shape[0])]
    got = tv_prox(stack, lam, max_iters, tol, dual=dual)
    for i, image in enumerate(stack):
        single = tv_prox(image, lam, max_iters, tol, dual=duals[i])
        assert got[i].tobytes() == single.tobytes()
        assert dual[:, i].tobytes() == duals[i].tobytes()
    # Chambolle's step maps the pointwise unit ball into itself
    assert np.hypot(dual[0], dual[1]).max(initial=0.0) <= 1.0 + 1e-12


@settings(max_examples=150, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    max_iters=st.integers(0, 60),
    tol=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@example(stack=TWO_SCALES, lam=0.5, max_iters=100, tol=1e-3, seed=0)
def test_tv_prox_warm_stack_matches_the_reference(stack, lam, max_iters, tol, seed):
    dual = unit_ball_dual(np.random.default_rng(seed), (2,) + stack.shape)
    start = dual.copy()
    got = tv_prox(stack, lam, max_iters, tol, dual=dual)
    for i, image in enumerate(stack):
        reference, _, final = reference_tv_prox(image, lam, max_iters, tol, dual=start[:, i])
        assert got[i].tobytes() == reference.tobytes()
        assert dual[:, i].tobytes() == final.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.floats(1e-3, 1e3),
    max_iters=st.integers(0, 60),
    warm=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(stack=TWO_SCALES, lam=0.5, max_iters=60, warm=False, seed=0)
@example(stack=np.array([[[0.0], [600.0], [600.0]]]), lam=0.0078125, max_iters=2, warm=False,
         seed=0)
def test_tv_prox_matches_the_textbook_iteration(stack, lam, max_iters, warm, seed):
    # tv_prox folds the dual step into the divergence term, which moves only
    # the rounding; at tol = 0 both loops run max_iters iterations
    shape = (2,) + stack.shape
    start = unit_ball_dual(np.random.default_rng(seed), shape) if warm else np.zeros(shape)
    dual = start.copy()
    got = tv_prox(stack, lam, max_iters, 0.0, dual=dual)
    for i, image in enumerate(stack):
        want, _, final = reference_tv_prox(image, lam, max_iters, 0.0, dual=start[:, i],
                                           folded=False)
        # both orders round div p - image/lam on the scale of its terms,
        # which a flat image's cancelling gradient does not shrink
        scale = np.linalg.norm(image) / lam + np.linalg.norm(final)
        assert np.linalg.norm(dual[:, i] - final) <= 1e-12 * scale
        assert np.linalg.norm(got[i] - want) <= 1e-12 * lam * scale


@settings(max_examples=100, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    max_iters=st.integers(0, 60),
    tol=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tv_prox_zeroes_the_dual_entries_div_ignores(stack, lam, max_iters, tol, seed):
    # the last row of px and the last column of py never reach div p: any
    # values there are dropped on entry and come back as zero
    rng = np.random.default_rng(seed)
    zeroed = unit_ball_dual(rng, (2,) + stack.shape)
    zeroed[0, :, -1, :] = 0.0
    zeroed[1, :, :, -1] = 0.0
    noisy = zeroed.copy()
    noisy[0, :, -1, :] = rng.normal(size=noisy[0, :, -1, :].shape)
    noisy[1, :, :, -1] = rng.normal(size=noisy[1, :, :, -1].shape)
    want = tv_prox(stack, lam, max_iters, tol, dual=zeroed)
    got = tv_prox(stack, lam, max_iters, tol, dual=noisy)
    assert got.tobytes() == want.tobytes()
    assert noisy.tobytes() == zeroed.tobytes()
    assert not np.signbit(noisy[0, :, -1, :]).any() and not noisy[0, :, -1, :].any()
    assert not np.signbit(noisy[1, :, :, -1]).any() and not noisy[1, :, :, -1].any()


@settings(max_examples=100, deadline=None)
@given(
    stack=image_stacks(),
    lam=st.floats(1e-3, 1e3),
    max_iters=st.integers(1, 60),
    tol=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.3]),
    bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    where=st.tuples(st.integers(0, 3), st.integers(0, 9), st.integers(0, 8)),
)
# one NaN in the first image of two 6x6 images
@example(stack=np.random.default_rng(7).normal(size=(2, 6, 6)), lam=1.0, max_iters=100,
         tol=1e-5, bad=np.nan, where=(0, 2, 3))
def test_tv_prox_non_finite_pixels_stay_in_their_image(stack, lam, max_iters, tol, bad, where):
    # a NaN or inf pixel spoils its own image only: every other image of the
    # stack equals its separate call, output and dual, and every image's
    # ignored dual entries come back +0.0
    k, rows, cols = stack.shape
    assume(k >= 2)
    i, r, c = (v % s for v, s in zip(where, stack.shape))
    stack = stack.copy()
    stack[i, r, c] = bad
    dual = np.zeros((2,) + stack.shape)
    with np.errstate(invalid="ignore"):
        got = tv_prox(stack, lam, max_iters, tol, dual=dual)
    for j, image in enumerate(stack):
        if j != i:
            single_dual = np.zeros((2, rows, cols))
            single = tv_prox(image, lam, max_iters, tol, dual=single_dual)
            assert got[j].tobytes() == single.tobytes()
            assert dual[:, j].tobytes() == single_dual.tobytes()
    ignored = np.concatenate([dual[0, :, -1, :].ravel(), dual[1, :, :, -1].ravel()])
    assert not np.signbit(ignored).any() and not ignored.any()


def test_tv_prox_warm_start_from_a_converged_dual_reproduces_the_cold_prox():
    rng = np.random.default_rng(13)
    stack = rng.normal(size=(3, 12, 10)) * np.array([0.1, 1.0, 10.0])[:, None, None]
    lam = 0.4
    dual = np.zeros((2,) + stack.shape)
    cold = tv_prox(stack, lam, max_iters=5000, tol=1e-10, dual=dual)
    np.testing.assert_array_equal(cold, tv_prox(stack, lam, max_iters=5000, tol=1e-10))
    tol = 1e-6
    warm = tv_prox(stack, lam, max_iters=5000, tol=tol, dual=dual)
    for w, c in zip(warm, cold):
        assert np.linalg.norm(w - c) <= tol * np.linalg.norm(c)


def test_tv_prox_resets_the_dual_of_a_guarded_image():
    # no iterations: the output is image - lam*div(dual); for a constant
    # image any nonzero divergence raises the ROF objective, so the guard
    # returns the image and drops its dual, while a converged dual of a
    # non-constant image is kept
    rng = np.random.default_rng(14)
    image = rng.normal(size=(8, 8))
    converged = np.zeros((2, 8, 8))
    tv_prox(image, 0.3, max_iters=5000, tol=1e-12, dual=converged)
    stack = np.stack([np.zeros((8, 8)), image])
    dual = np.stack([unit_ball_dual(rng, (2, 8, 8)), converged], axis=1)
    kept = dual[:, 1].copy()
    out = tv_prox(stack, 0.3, max_iters=0, dual=dual)
    np.testing.assert_array_equal(out[0], stack[0])
    np.testing.assert_array_equal(dual[:, 0], 0.0)
    np.testing.assert_array_equal(dual[:, 1], kept)


def test_tv_prox_rejects_a_misshapen_dual():
    with pytest.raises(ValueError):
        tv_prox(np.ones((2, 4, 4)), 0.5, dual=np.zeros((2, 4, 4)))
    with pytest.raises(ValueError):
        tv_prox(np.ones((4, 4)), 0.5, dual=np.zeros((2, 4, 4), dtype=np.float32))


def test_tv_prox_reports_a_capped_loop():
    image = np.random.default_rng(15).normal(size=(2, 8, 8))
    flags = set()
    tv_prox(image, 0.3, max_iters=1, flags=flags)
    assert flags == {"tv-prox-capped"}
    flags = set()
    tv_prox(image, 0.3, max_iters=5000, tol=1e-3, flags=flags)
    assert flags == set()


@settings(max_examples=30, deadline=None)
@given(shape=st.one_of(
    st.just(()),
    st.lists(st.integers(1, 3), min_size=1, max_size=1),
    st.lists(st.integers(1, 3), min_size=4, max_size=5),
))
def test_tv_prox_rejects_other_ranks(shape):
    with pytest.raises(ValueError):
        tv_prox(np.ones(shape), 0.5)


def test_simplex_rows_examples():
    np.testing.assert_allclose(
        simplex_project_rows(np.array([[0.3, 0.7]])), [[0.3, 0.7]], atol=1e-15)
    np.testing.assert_allclose(
        simplex_project_rows(np.array([[2.0, 0.0]])), [[1.0, 0.0]], atol=1e-15)
    np.testing.assert_allclose(
        simplex_project_rows(np.array([[0.4, 0.4, 0.4]])),
        np.full((1, 3), 1.0 / 3.0), atol=1e-15)


def test_simplex_rows_matches_support_enumeration():
    # exact oracle: try every active support, keep the KKT-consistent one
    def project_row(x):
        best = None
        d = len(x)
        for mask in range(1, 2**d):
            T = [i for i in range(d) if mask >> i & 1]
            theta = (sum(x[i] for i in T) - 1.0) / len(T)
            w = np.zeros(d)
            ok = True
            for i in range(d):
                if i in T:
                    w[i] = x[i] - theta
                    ok &= w[i] >= -1e-12
                else:
                    ok &= x[i] - theta <= 1e-12
            if ok:
                best = w
        return best

    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 4)) * 2.0
    got = simplex_project_rows(X)
    for i in range(X.shape[0]):
        np.testing.assert_allclose(got[i], project_row(X[i]), atol=1e-10)


def test_simplex_rows_idempotent_and_feasible():
    rng = np.random.default_rng(4)
    P = simplex_project_rows(rng.normal(size=(30, 5)))
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert P.min() >= 0.0
    np.testing.assert_allclose(simplex_project_rows(P), P, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    S=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 5)),
             elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)),
    seed=st.integers(0, 2**32 - 1),
)
def test_simplex_rows_variational_inequality(S, seed):
    # <S_i - P_i, X_i - P_i> <= 0 for every point X_i of the simplex
    P = simplex_project_rows(S)
    X = np.random.default_rng(seed).dirichlet(np.ones(S.shape[1]), size=(8, S.shape[0]))
    X[0] = np.eye(S.shape[1])[np.arange(S.shape[0]) % S.shape[1]]  # vertices
    inner = np.sum((S - P) * (X - P), axis=-1)
    scale = np.sum(np.abs(S - P), axis=-1) + 1.0
    assert np.all(inner <= 1e-12 * scale)


@st.composite
def simplex_inputs(draw):
    """``(n, d)`` matrices in C or F order at one of thirteen scales: small
    integers and halves (ties), exact +0.0 and -0.0, or any float."""
    n, d = draw(st.integers(1, 40)), draw(st.integers(1, 10))
    elements = st.one_of(st.integers(-6, 6).map(lambda i: i / 2.0),
                         st.sampled_from([0.0, -0.0]),
                         st.floats(-4.0, 4.0, allow_nan=False, width=64))
    S = draw(arrays(np.float64, (n, d), elements=elements))
    S = S * 10.0 ** draw(st.integers(-6, 6))
    return np.asarray(S, order=draw(st.sampled_from("CF")))


@settings(max_examples=400, deadline=None)
@given(S=simplex_inputs())
@example(S=np.asfortranarray([[0.5, 0.5, -0.0], [0.0, -0.0, 0.0]]))
@example(S=np.array([[1.0, 1.0, 1.0, 1.0]]))
def test_simplex_rows_match_the_sort_reference(S):
    # the network and row adds do np.sort's and np.cumsum's float operations
    got, want = simplex_project_rows(S), reference_simplex_project_rows(S)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@settings(max_examples=60, deadline=None)
@given(S=simplex_inputs(), data=st.data())
def test_simplex_rows_nan_stays_in_its_row(S, data):
    i = data.draw(st.integers(0, S.shape[0] - 1))
    j = data.draw(st.integers(0, S.shape[1] - 1))
    want = simplex_project_rows(S)
    bad = S.copy(order="K")
    bad[i, j] = np.nan
    with np.errstate(invalid="ignore"):
        got = simplex_project_rows(bad)
    assert np.delete(got, i, axis=0).tobytes() == np.delete(want, i, axis=0).tobytes()
    assert np.all(np.isnan(got[i]))  # the network spreads it along the row


def _read_only(a, order):
    a = np.array(a, dtype=np.float64, order=order)
    a.flags.writeable = False
    return a


def _ball_case(scheme, kind, n1):
    """``(L, s, y, epsilon)`` on the ``(n1, 2)`` source map of a 3-channel
    scheme, with ``s`` off the ball."""
    rng = np.random.default_rng(n1)
    H = MixingMatrix(0.5 * rng.normal(size=(3, 2)) + 2.0 * np.eye(3, 2))
    op = make_sampling_operator(scheme, kind, n1, 3, seed=5, m_hat=max(n1 // 2, 1),
                                mixing=H)
    L = SourceSpaceMap(op, H)
    s = rng.normal(size=L.shape_in)
    y = L.forward(rng.normal(size=L.shape_in))
    return L, s, y, 0.1 * float(np.linalg.norm(y - L.forward(s)))


def _ball(project, scheme, kind):
    def call(order, thin):
        L, s, y, epsilon = _ball_case(scheme, kind, 1 if thin else 8)
        return project(_read_only(s, order), _read_only(y, "C"), L, epsilon)
    return call


def _matrix(fn):
    def call(order, thin):
        X = np.random.default_rng(2).normal(size=(1 if thin else 6, 3))
        return fn(_read_only(X, order))
    return call


def _tv_image(order, thin):
    image = np.random.default_rng(3).normal(size=(1 if thin else 5, 7))
    dual = np.zeros((2,) + image.shape)  # in/out by contract
    return tv_prox(_read_only(image, order), 0.3, 20, 1e-5, dual=dual)


def _wavelet(name):
    def call(order, thin):
        # a transform's one-image form is a single column
        X = np.random.default_rng(4).normal(size=(64, 1 if thin else 3))
        return getattr(Wavelet2D(8, 8), name)(_read_only(X, order))
    return call


# one call per public prox, projection and wavelet transform, taking the
# memory order of its read-only input and whether that input is thin: one
# row, or one column for the wavelet transforms
NO_WRITE_CALLS = {
    "soft_threshold": _matrix(lambda X: soft_threshold(X, 0.3)),
    "hard_threshold_topk": _matrix(lambda X: hard_threshold_topk(X, 2)),
    "simplex_project_rows": _matrix(simplex_project_rows),
    "l2ball_project_tightframe": _ball(l2ball_project_tightframe, "decorrelating",
                                       "random-convolution"),
    "l2ball_project_eig": _ball(l2ball_project_eig, "decorrelating", "gaussian"),
    "l2ball_project_fb": _ball(lambda *a: l2ball_project_fb(*a, max_iters=20)[0],
                               "uniform", "gaussian"),
    "tv_prox": _tv_image,
    "forward_cols": _wavelet("forward_cols"),
    "inverse_cols": _wavelet("inverse_cols"),
}


@pytest.mark.parametrize("thin", [False, True], ids=["matrix", "thin"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", sorted(NO_WRITE_CALLS))
def test_no_prox_or_transform_writes_its_input(name, order, thin):
    # every input array is read-only, so any write into it raises; a
    # transpose that is already contiguous (one row, or F order) is a view
    out = NO_WRITE_CALLS[name](order, thin)
    assert np.all(np.isfinite(out))


def test_tightframe_ball_feasible_input_unchanged():
    core = CoreOperator("random-convolution", 4, 8, seed=0)
    rng = np.random.default_rng(5)
    s = rng.normal(size=(8, 1))
    y = core.forward(s).ravel() + 0.0

    class CoreVec:
        nu = core.nu

        def forward(self, x):
            return core.forward(x).ravel()

        def adjoint(self, r):
            return core.adjoint(r.reshape(-1, 1))

    out = l2ball_project_tightframe(s, y, CoreVec(), 1e-3)
    np.testing.assert_array_equal(out, s)


def test_tightframe_ball_affine_case_orthogonal():
    core = CoreOperator("random-convolution", 16, 16, seed=1)
    rng = np.random.default_rng(6)
    s = rng.normal(size=16)
    y = rng.normal(size=16)
    out = l2ball_project_tightframe(s, y, core, 0.0)
    assert np.linalg.norm(core.forward(out) - y) < 1e-9


@pytest.mark.parametrize("epsilon", [0.0, 0.3])
def test_tightframe_ball_matches_kkt_oracle(epsilon):
    core = CoreOperator("random-convolution", 4, 8, seed=2)
    A = core.as_matrix()
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = rng.normal(size=8)
        y = rng.normal(size=4) * 2.0
        got = l2ball_project_tightframe(s, y, core, epsilon)
        oracle = kkt_ball_projection(A, s, y, epsilon)
        assert np.max(np.abs(got - oracle)) < 1e-8


def test_tightframe_ball_requires_nu():
    A = np.random.default_rng(8).normal(size=(4, 8))
    with pytest.raises(NotTightFrame):
        l2ball_project_tightframe(np.zeros(8), np.ones(4), DenseOp(A), 0.1)


@settings(max_examples=150, deadline=None)
@given(
    log_n1=st.integers(1, 5),
    m_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
    regime=st.sampled_from(["zero", "infeasible"]),
    frac=st.floats(0.05, 0.95),
)
def test_tightframe_ball_variational_inequality(log_n1, m_frac, seed, regime, frac):
    n1 = 2**log_n1
    m_hat = 1 + int(m_frac * (n1 - 1))
    core = CoreOperator("random-convolution", m_hat, n1, seed=seed)
    rng = np.random.default_rng(seed)
    s = rng.normal(size=n1)
    y = 2.0 * rng.normal(size=m_hat)
    r0 = float(np.linalg.norm(y - core.forward(s)))
    epsilon = 0.0 if regime == "zero" else r0 * frac
    P = l2ball_project_tightframe(s, y, core, epsilon)
    assert np.linalg.norm(y - core.forward(P)) <= epsilon + 1e-9 * (np.linalg.norm(y) + 1.0)
    # feasible points: A^T (y - e) / nu with ||e|| <= epsilon, plus any
    # null-space part (A A^T = nu I)
    for _ in range(5):
        e = rng.normal(size=m_hat)
        e *= epsilon * rng.uniform() / max(np.linalg.norm(e), 1e-300)
        z = rng.normal(size=n1)
        x = (core.adjoint(y - e) - core.adjoint(core.forward(z))) / core.nu + z
        scale = max(s @ s, P @ P, x @ x)
        assert (s - P) @ (x - P) <= 1e-9 * scale


def test_fb_ball_feasible_input_unchanged():
    A = np.random.default_rng(9).normal(size=(4, 8))
    s = np.zeros(8)
    y = A @ s  # residual 0 <= epsilon
    out, converged = l2ball_project_fb(s, y, DenseOp(A), 0.5)
    assert converged
    np.testing.assert_array_equal(out, s)


def test_fb_ball_agrees_with_tightframe_closed_form():
    core = CoreOperator("random-convolution", 8, 16, seed=3)
    rng = np.random.default_rng(10)
    s = rng.normal(size=16)
    y = rng.normal(size=8) * 2.0
    exact = l2ball_project_tightframe(s, y, core, 0.2)
    approx, converged = l2ball_project_fb(
        s, y, core, 0.2, max_iters=5000, tol=1e-12)
    assert converged
    assert np.max(np.abs(approx - exact)) < 1e-5


def test_fb_ball_matches_kkt_oracle_dense():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(8, 16)) / np.sqrt(8.0)
    op = DenseOp(A)
    for _ in range(3):
        s = rng.normal(size=16)
        y = rng.normal(size=8) * 2.0
        eps = 0.25
        got, converged = l2ball_project_fb(s, y, op, eps, max_iters=8000, tol=1e-12)
        assert converged
        oracle = kkt_ball_projection(A, s, y, eps)
        assert np.max(np.abs(got - oracle)) < 1e-4
        # terminal residual honors the ball up to the documented slack
        assert np.linalg.norm(y - A @ got) <= eps * (1.0 + 1e-3)


# the maps with a full-rank Gram basis: I (x) A as the decorrelating source
# map and the uniform cube map, pinv(H) (x) A, and H (x) A with H square
EIG_MAPS = [("decorrelating", "sources"), ("uniform", "cube"), ("decorrelating", "cube"),
            ("uniform", "sources")]


def _dense(L):
    n_in = L.shape_in[0] * L.shape_in[1]
    return np.stack([L.forward(e.reshape(L.shape_in, order="F")) for e in np.eye(n_in)],
                    axis=1)


@settings(max_examples=150, deadline=None)
@given(
    scheme_space=st.sampled_from(EIG_MAPS),
    kind=st.sampled_from(["gaussian", "bernoulli", "random-convolution"]),
    n1=st.sampled_from([2, 4, 8, 16, 32]),
    rate=st.floats(0.0, 0.5),
    rho=st.integers(1, 3),
    extra=st.integers(0, 2),
    seed=st.integers(0, 2**31 - 1),
    regime=st.sampled_from(["zero", "feasible", "infeasible"]),
    frac=st.floats(0.05, 0.95),
)
def test_eig_ball_matches_kkt_oracle_and_is_optimal(scheme_space, kind, n1, rate, rho,
                                                    extra, seed, regime, frac):
    scheme, space = scheme_space
    n2 = rho if scheme_space == ("uniform", "sources") else rho + extra
    rng = np.random.default_rng(seed)
    H = MixingMatrix(0.5 * rng.normal(size=(n2, rho)) + 2.0 * np.eye(n2, rho))
    op = make_sampling_operator(scheme, kind, n1, n2, seed=seed, mixing=H,
                                m_hat=1 + int(rate * (n1 - 1)))
    L = op if space == "cube" else SourceSpaceMap(op, H)
    # the oracle's well-conditioned regime; a full-rank basis follows
    dense = _dense(L)
    U, sig, Vt = np.linalg.svd(dense, full_matrices=False)
    assume(L.m <= dense.shape[1] and sig[L.m - 1] >= 0.01 * sig[0])
    assert L.basis.lam.min() > 0.0
    S = rng.normal(size=L.shape_in)
    y = 2.0 * rng.normal(size=L.m)
    S0, y0 = S.copy(), y.copy()
    r0 = float(np.linalg.norm(y - L.forward(S)))
    epsilon = {"zero": 0.0, "feasible": r0 * (1.0 + frac), "infeasible": r0 * frac}[regime]

    P = l2ball_project_eig(S, y, L, epsilon)
    np.testing.assert_array_equal(S, S0)
    np.testing.assert_array_equal(y, y0)
    if regime == "feasible":
        np.testing.assert_array_equal(P, S)
        assert P is not S
        return
    oracle = kkt_ball_projection(
        dense, S.ravel(order="F"), y, epsilon).reshape(L.shape_in, order="F")
    assert np.max(np.abs(P - oracle)) <= 1e-8 * max(1.0, float(np.max(np.abs(oracle))))
    assert np.linalg.norm(y - L.forward(P)) <= epsilon + 1e-9 * (np.linalg.norm(y) + 1.0)
    # variational inequality <S - P, X - P> <= 0 over feasible points X: the
    # minimum-norm solution L^+ (y - E) with ||E|| <= epsilon, plus any
    # null-space part. Rounding scales with the largest of the three points.
    pinv = Vt.T @ (U.T / sig[:, None])
    s, p = S.ravel(order="F"), P.ravel(order="F")
    for _ in range(5):
        E = rng.normal(size=L.m)
        E *= epsilon * rng.uniform() / max(np.linalg.norm(E), 1e-300)
        Z = rng.normal(size=s.size)
        X = pinv @ (y - E) + Z - pinv @ (dense @ Z)
        scale = max(s @ s, p @ p, X @ X)
        assert np.dot(s - p, X - p) <= 1e-9 * scale


@pytest.mark.parametrize("space", ["cube", "sources"])
def test_eig_ball_is_accurate_on_ill_conditioned_cores(space):
    # square gaussian cores, condition numbers up to ~1e3: at epsilon = 0
    # the projection is s + pinv(A) (Y - A s) per column. The core's
    # eigenpairs come from its SVD; eigh(A A^T) would square the
    # condition number and miss this bound
    conds = []
    for seed in range(30):
        n1 = 8 + seed
        H = MixingMatrix(np.eye(2))
        scheme = "uniform" if space == "cube" else "decorrelating"
        op = make_sampling_operator(scheme, "gaussian", n1, 2, seed=seed, m_hat=n1,
                                    mixing=H)
        L = op if space == "cube" else SourceSpaceMap(op, H)
        A = op.core.as_matrix()
        rng = np.random.default_rng(seed)
        S, Y = rng.normal(size=(n1, 2)), rng.normal(size=(n1, 2))
        P = l2ball_project_eig(S, Y.ravel(order="F"), L, 0.0)
        want = S + np.linalg.pinv(A) @ (Y - A @ S)
        assert np.linalg.norm(P - want) <= 1e-11 * np.linalg.norm(want)
        sig = np.linalg.svd(A, compute_uv=False)
        conds.append(sig[0] / sig[-1])
    assert max(conds) > 500.0


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_eig_ball_rejects_maps_it_cannot_project_on(epsilon):
    # H (x) A with n2 > rho has zero eigenvalues in its Gram basis; the
    # dense maps and a plain forward/adjoint pair have no basis at all
    rng = np.random.default_rng(21)
    H = MixingMatrix(rng.normal(size=(4, 2)) + 2.0 * np.eye(4, 2))
    uni = make_sampling_operator("uniform", "gaussian", 16, 4, seed=3, m_hat=8, mixing=H)
    dense = make_sampling_operator("dense", "gaussian", 16, 4, seed=3, m=20, mixing=H)
    rank_deficient = SourceSpaceMap(uni, H)
    assert rank_deficient.basis.lam.min() == 0.0
    plain = DenseOp(rng.normal(size=(6, 20)))
    plain.shape_in, plain.m = (20,), 6
    for L in (rank_deficient, dense, SourceSpaceMap(dense, H), plain):
        S, y = rng.normal(size=L.shape_in), 3.0 * rng.normal(size=L.m)
        with pytest.raises(ValueError):
            l2ball_project_eig(S, y, L, epsilon)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 8),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    regime=st.sampled_from(["zero", "infeasible"]),
    frac=st.floats(0.05, 0.95),
)
def test_fb_ball_satisfies_the_variational_inequality(m, extra, seed, regime, frac):
    # wide gaussian maps (n >= 2m) have full row rank and a moderate
    # condition number, so the dual iteration converges well inside the cap
    tol = 1e-12
    n = 2 * m + extra
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n))
    U, sig, Vt = np.linalg.svd(A, full_matrices=False)
    assume(sig[-1] >= 0.2 * sig[0])
    s = rng.normal(size=n)
    y = 2.0 * rng.normal(size=m)
    s0, y0 = s.copy(), y.copy()
    epsilon = 0.0 if regime == "zero" else frac * float(np.linalg.norm(y - A @ s))

    P, converged = l2ball_project_fb(s, y, DenseOp(A), epsilon, max_iters=20000, tol=tol)
    np.testing.assert_array_equal(s, s0)
    np.testing.assert_array_equal(y, y0)
    assert converged
    assert np.linalg.norm(y - A @ P) <= epsilon + 1e-9 * (np.linalg.norm(y) + 1.0)
    # <s - P, X - P> <= 0 over feasible X = A^+ (y - E) + (I - A^+ A) Z
    # with ||E|| <= epsilon, as in the Gram-basis projection's test
    pinv = Vt.T @ (U.T / sig[:, None])
    for _ in range(5):
        E = rng.normal(size=m)
        E *= epsilon * rng.uniform() / max(np.linalg.norm(E), 1e-300)
        Z = rng.normal(size=n)
        X = pinv @ (y - E) + Z - pinv @ (A @ Z)
        scale = max(s @ s, P @ P, X @ X)
        assert np.dot(s - P, X - P) <= tol * scale


# the maps FB runs on in the solvers (dense, the uniform source map H (x) A
# and the decorrelating cube map pinv(H) (x) A), and the uniform cube map
FB_MAPS = [("dense", "cube"), ("dense", "sources"), ("uniform", "cube"),
           ("uniform", "sources"), ("decorrelating", "cube")]


@st.composite
def fb_problems(draw, well_posed):
    """``(L, s, y, epsilon)``: a map of ``FB_MAPS`` on a random core kind and
    shape, a point, measurements and a radius that leaves the point
    infeasible. ``well_posed`` draws a map of full row rank with
    ``sigma_min >= 0.15 sigma_max``, on which the dual iteration converges
    well inside a large cap (the uniform source map then has n2 = rho)."""
    scheme, space = draw(st.sampled_from(FB_MAPS))
    kind = draw(st.sampled_from(["gaussian", "bernoulli", "random-convolution"]))
    n1 = 2 ** draw(st.integers(2, 5))
    rho = draw(st.integers(1, 3))
    n2 = 2 ** draw(st.integers(max(rho - 1, 0), 2))
    if well_posed and (scheme, space) == ("uniform", "sources"):
        n2 = rho
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    H = MixingMatrix(0.5 * rng.normal(size=(n2, rho)) + 2.0 * np.eye(n2, rho))
    rate = draw(st.floats(0.05, 0.25 if well_posed else 1.0))
    if scheme == "dense":
        n_in = n1 * (n2 if space == "cube" else rho)
        sizes = {"m": max(1, int(rate * n_in))}
    else:
        sizes = {"m_hat": max(1, int(rate * n1))}
    op = make_sampling_operator(scheme, kind, n1, n2, seed=seed, mixing=H, **sizes)
    L = op if space == "cube" else SourceSpaceMap(op, H)
    if well_posed:
        n_in = L.shape_in[0] * L.shape_in[1]
        dense = np.stack([L.forward(e.reshape(L.shape_in, order="F"))
                          for e in np.eye(n_in)], axis=1)
        sig = np.linalg.svd(dense, compute_uv=False)
        assume(L.m <= n_in and sig[L.m - 1] >= 0.15 * sig[0])
    s = rng.normal(size=L.shape_in)
    y = 2.0 * rng.normal(size=L.m)
    r0 = float(np.linalg.norm(y - L.forward(s)))
    epsilon = 0.0 if draw(st.booleans()) else draw(st.floats(0.05, 0.95)) * r0
    return L, s, y, epsilon


@settings(max_examples=150, deadline=None)
@given(case=fb_problems(well_posed=False), max_iters=st.integers(1, 60),
       tol=st.sampled_from([1e-2, 1e-4, 1e-6]))
def test_fb_ball_matches_the_primal_form_when_capped(case, max_iters, tol):
    # the measurement-space loop runs the primal form's iterates: stopped
    # at the cap or by the test, it returns the same point and flag
    L, s, y, epsilon = case
    s0, y0 = s.copy(), y.copy()
    norm = operator_norm(L, L.shape_in)
    got, converged = l2ball_project_fb(s, y, L, epsilon, max_iters, tol, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, epsilon, max_iters, tol, norm)
    np.testing.assert_array_equal(s, s0)
    np.testing.assert_array_equal(y, y0)
    assert converged == want_converged
    scale = max(np.linalg.norm(s), np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= 1e-10 * scale


@settings(max_examples=40, deadline=None)
@given(case=fb_problems(well_posed=True))
def test_fb_ball_matches_the_primal_form_when_converged(case):
    L, s, y, epsilon = case
    norm = operator_norm(L, L.shape_in)
    got, converged = l2ball_project_fb(s, y, L, epsilon, 20000, 1e-10, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, epsilon, 20000, 1e-10, norm)
    assert converged and want_converged
    scale = max(np.linalg.norm(s), np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= 1e-9 * scale


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "random-convolution"])
def test_fb_ball_stops_when_the_projection_is_the_origin(kind):
    # s = 1e3 L^T z and the ball {x : L x = 0}: u = s - L^T v tends to 0, so
    # ||s||^2 - 2 <v, b> + <v, G v> cancels to rounding noise of either sign
    rng = np.random.default_rng(0)
    H = MixingMatrix(0.3 * rng.normal(size=(3, 3)) + 2.0 * np.eye(3))
    op = make_sampling_operator("uniform", kind, 16, 3, seed=3, m_hat=4, mixing=H)
    L = SourceSpaceMap(op, H)
    s = 1e3 * L.adjoint(rng.normal(size=L.m))
    y = np.zeros(L.m)
    norm = operator_norm(L, L.shape_in)
    got, converged = l2ball_project_fb(s, y, L, 0.0, 5000, 1e-10, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, 0.0, 5000, 1e-10, norm)
    assert converged and want_converged
    assert np.max(np.abs(got)) <= 1e-8 * np.max(np.abs(s))
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(s))


@pytest.mark.parametrize("kind", ["gaussian", "bernoulli", "random-convolution"])
def test_fb_ball_runs_on_where_the_dual_has_a_null_space(kind):
    # H (x) A with n2 > rho has range of dimension rho*m_hat < m: for y off
    # that range and epsilon = 0 the dual iterate drifts along the null
    # space while u settles, so <dv, G v_k - G v_{k-1}> is rounding of
    # either sign; the loop runs to its cap as the primal form does
    rng = np.random.default_rng(5)
    H = MixingMatrix(0.5 * rng.normal(size=(4, 2)) + 2.0 * np.eye(4, 2))
    op = make_sampling_operator("uniform", kind, 16, 4, seed=1, mixing=H, m_hat=5)
    L = SourceSpaceMap(op, H)
    s, y = rng.normal(size=L.shape_in), 2.0 * rng.normal(size=L.m)
    norm = operator_norm(L, L.shape_in)
    got, converged = l2ball_project_fb(s, y, L, 0.0, 300, 0.0, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, 0.0, 300, 0.0, norm)
    assert not converged and not want_converged
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(s))


def test_fb_ball_applies_the_gram_once_per_step():
    # one forward before the loop, one adjoint after it, and L L^T as
    # forward(adjoint(v)) once per step after the first (v = 0 there)
    class CountingOp(DenseOp):
        def __init__(self, A):
            super().__init__(A)
            self.calls = {"forward": 0, "adjoint": 0}

        def forward(self, x):
            self.calls["forward"] += 1
            return super().forward(x)

        def adjoint(self, r):
            self.calls["adjoint"] += 1
            return super().adjoint(r)

    rng = np.random.default_rng(14)
    A = rng.normal(size=(6, 20))
    s, y = rng.normal(size=20), 3.0 * rng.normal(size=6)
    norm = float(np.linalg.norm(A, 2))
    op = CountingOp(A)
    P, _ = l2ball_project_fb(s, y, op, 0.5, 30, 0.0, norm)
    assert op.calls == {"forward": 30, "adjoint": 30}
    want, _ = reference_l2ball_project_fb(s, y, DenseOp(A), 0.5, 30, 0.0, norm)
    np.testing.assert_allclose(P, want, rtol=0, atol=1e-12 * np.linalg.norm(s))


@pytest.mark.parametrize("max_iters", [1, 7, 60])
def test_fb_ball_on_a_kronecker_map_runs_the_core_twice(max_iters):
    # in the Gram eigenbasis each step is elementwise: one core forward for
    # b = L(s) and one core adjoint at the end, whatever the step count
    rng = np.random.default_rng(15)
    H = MixingMatrix(0.5 * rng.normal(size=(4, 2)) + 2.0 * np.eye(4, 2))
    core = CountingCore("gaussian", 6, 16, 2)
    L = SourceSpaceMap(SamplingOperator("uniform", core, 16, 4), H)
    s, y = rng.normal(size=L.shape_in), 2.0 * rng.normal(size=L.m)
    norm = operator_norm(L, L.shape_in)
    core.calls.update(forward=0, adjoint=0)
    got, converged = l2ball_project_fb(s, y, L, 0.0, max_iters, 0.0, norm)
    assert core.calls == {"forward": 1, "adjoint": 1}
    assert not converged
    want, _ = reference_l2ball_project_fb(s, y, L, 0.0, max_iters, 0.0, norm)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(s))


@st.composite
def noiseless_kron_problems(draw):
    """``(L, s, y)``: the uniform source map ``H (x) A`` with ``n2 > rho``
    on a random core kind and shape, whose Gram basis has zero eigenvalues,
    a point, and measurements on or off the map's range."""
    kind = draw(st.sampled_from(["gaussian", "bernoulli", "random-convolution"]))
    n1 = 2 ** draw(st.integers(2, 5))
    rho = draw(st.integers(1, 3))
    n2 = draw(st.integers(rho + 1, 5))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    H = MixingMatrix(0.5 * rng.normal(size=(n2, rho)) + 2.0 * np.eye(n2, rho))
    m_hat = max(1, int(draw(st.floats(0.05, 1.0)) * n1))
    op = make_sampling_operator("uniform", kind, n1, n2, seed=seed, mixing=H, m_hat=m_hat)
    L = SourceSpaceMap(op, H)
    s = rng.normal(size=L.shape_in)
    if draw(st.booleans()):
        y = L.forward(rng.uniform(size=L.shape_in))
    else:
        y = 2.0 * rng.normal(size=L.m)
    return L, s, y


@settings(max_examples=150, deadline=None)
@given(case=noiseless_kron_problems(), max_iters=st.integers(0, 400),
       tol=st.sampled_from([0.0, 1e-6, 1e-2]))
def test_fb_ball_noiseless_closed_form_matches_the_primal_form(case, max_iters, tol):
    # at epsilon = 0 on a map with a basis FB may skip its loop; whether it
    # does or not, it returns the primal form's point and flag
    L, s, y = case
    s0, y0 = s.copy(), y.copy()
    norm = operator_norm(L, L.shape_in)
    got, converged = l2ball_project_fb(s, y, L, 0.0, max_iters, tol, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, 0.0, max_iters, tol, norm)
    np.testing.assert_array_equal(s, s0)
    np.testing.assert_array_equal(y, y0)
    assert converged == want_converged
    scale = max(np.linalg.norm(s), np.linalg.norm(want), 1.0)
    assert np.linalg.norm(got - want) <= 1e-10 * scale


def _noiseless_coordinates(L, s, y, norm):
    """``(c, lam, sigma, ss)`` as ``l2ball_project_fb`` forms them at
    epsilon = 0 on a map with a basis."""
    basis = L.basis
    c = basis.to(L.forward(s)) - basis.to(y)
    return c, basis.lam, 1.0 / norm**2, float(np.vdot(s, s))


def test_fb_noiseless_closed_form_certifies_a_uniform_solve_projection():
    # the uniform ppxa-l1 cell of the nontight-ball benchmark: 16x16, n2 = 8,
    # rho = 2, gaussian m_hat = 192 (384 of 1536 eigenvalues nonzero), the
    # default cap and tolerance; the loop runs to its cap, so the closed
    # form stands in for it
    rng = np.random.default_rng(18)
    H = MixingMatrix(0.5 * rng.normal(size=(8, 2)) + 2.0 * np.eye(8, 2))
    op = make_sampling_operator("uniform", "gaussian", 256, 8, seed=4, mixing=H, m_hat=192)
    L = SourceSpaceMap(op, H)
    assert np.count_nonzero(L.basis.lam) == 384
    y = L.forward(rng.uniform(size=L.shape_in))
    s = rng.uniform(size=L.shape_in)
    norm = operator_norm(L, L.shape_in)
    c, lam, sigma, ss = _noiseless_coordinates(L, s, y, norm)
    v = _fb_noiseless_capped(c, lam, sigma, ss, 200, 1e-6)
    assert v is not None
    got, converged = l2ball_project_fb(s, y, L, 0.0, 200, 1e-6, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, 0.0, 200, 1e-6, norm)
    assert not converged and not want_converged
    np.testing.assert_array_equal(got, s - L.adjoint(L.basis.back(v)))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_fb_noiseless_closed_form_declines_when_the_loop_stops():
    # y on the range of L: the loop settles well inside its cap, so the
    # closed form gives way and the loop runs, reporting convergence
    rng = np.random.default_rng(19)
    H = MixingMatrix(0.5 * rng.normal(size=(4, 2)) + 2.0 * np.eye(4, 2))
    op = make_sampling_operator("uniform", "gaussian", 16, 4, seed=2, mixing=H, m_hat=8)
    L = SourceSpaceMap(op, H)
    y = L.forward(rng.uniform(size=L.shape_in))
    s = rng.uniform(size=L.shape_in)
    norm = operator_norm(L, L.shape_in)
    c, lam, sigma, ss = _noiseless_coordinates(L, s, y, norm)
    assert _fb_noiseless_capped(c, lam, sigma, ss, 2000, 1e-6) is None
    got, converged = l2ball_project_fb(s, y, L, 0.0, 2000, 1e-6, norm)
    want, want_converged = reference_l2ball_project_fb(s, y, L, 0.0, 2000, 1e-6, norm)
    assert converged and want_converged
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
def test_fb_ball_rejects_a_step_it_cannot_converge_with(epsilon):
    # op_norm at half of ||L||: sigma * ||L||^2 = 4, past the bound of 2
    rng = np.random.default_rng(20)
    H = MixingMatrix(0.5 * rng.normal(size=(4, 2)) + 2.0 * np.eye(4, 2))
    op = make_sampling_operator("uniform", "gaussian", 16, 4, seed=2, mixing=H, m_hat=6)
    L = SourceSpaceMap(op, H)
    s, y = rng.normal(size=L.shape_in), 2.0 * rng.normal(size=L.m)
    with pytest.raises(ValueError, match="op_norm"):
        l2ball_project_fb(s, y, L, epsilon, 200, 1e-6, 0.5 * np.sqrt(L.basis.lam.max()))


def test_prox_maps_are_nonexpansive():
    rng = np.random.default_rng(12)
    core = CoreOperator("random-convolution", 8, 16, seed=4)
    y = rng.normal(size=8)
    for _ in range(10):
        a = rng.normal(size=16)
        b = rng.normal(size=16)
        gap = np.linalg.norm(a - b)
        assert np.linalg.norm(
            soft_threshold(a, 0.4) - soft_threshold(b, 0.4)) <= gap + 1e-10
        assert np.linalg.norm(
            simplex_project_rows(a[None, :]) - simplex_project_rows(b[None, :])
        ) <= gap + 1e-10
        assert np.linalg.norm(
            l2ball_project_tightframe(a, y, core, 0.3)
            - l2ball_project_tightframe(b, y, core, 0.3)) <= gap + 1e-10
    for _ in range(5):
        a = rng.normal(size=(8, 8))
        b = rng.normal(size=(8, 8))
        pa = tv_prox(a, 0.3, max_iters=5000, tol=1e-13)
        pb = tv_prox(b, 0.3, max_iters=5000, tol=1e-13)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10
