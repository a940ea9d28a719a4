import math

import numpy as np
import pytest

from csskit.bounds import (
    BoundQuery,
    InvalidRegime,
    empirical_rip,
    gamma_prime,
    kron_rip_bound,
    measurement_bound,
    theorem1_constants,
)
from csskit.operators import CoreOperator


# --- measurement-count scaling laws -----------------------------------------
# Frozen values computed by hand from the documented formulas (natural logs).


def test_bound_frozen_values():
    cases = {
        ("decorrelating-ss", 2): 33.27106466687737,
        ("decorrelating-ss-decoupled", 2): 19.408121055678468,
        ("dense-bpdn", 2): 99.81319400063211,
        ("uniform-ss", 2): 99.81319400063211,
        ("dense-ss", 2): 45.04101570301809,
    }
    for (scheme, rho), expected in cases.items():
        q = BoundQuery(scheme=scheme, k=4, n1=256, n2=6, rho=rho, xi=1.0)
        est = measurement_bound(q)
        assert est.m == pytest.approx(expected, rel=1e-12), scheme
        assert est.formula


def test_uniform_vs_decorrelating_ratio_is_channels_over_sources():
    # both share the k*ln(n1/k) factor; the prefactor drops from n2 to rho
    uni = measurement_bound(BoundQuery("uniform-ss", k=8, n1=512, n2=24, rho=3))
    dec = measurement_bound(BoundQuery("decorrelating-ss", k=8, n1=512, n2=24, rho=3))
    assert uni.m / dec.m == pytest.approx(24 / 3, rel=1e-12)


def test_bound_scales_linearly_in_leading_constant():
    base = measurement_bound(BoundQuery("dense-bpdn", k=4, n1=128, n2=4, rho=2))
    scaled = measurement_bound(BoundQuery("dense-bpdn", k=4, n1=128, n2=4, rho=2, c=2.5))
    assert scaled.m == pytest.approx(2.5 * base.m, rel=1e-12)


def test_bound_monotone_in_sparsity_below_saturation():
    # k * ln(n1/k) increases while k < n1/e
    vals = [
        measurement_bound(BoundQuery("decorrelating-ss", k=k, n1=256, n2=4, rho=2)).m
        for k in range(1, 90)
    ]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_bound_invalid_regime():
    with pytest.raises(InvalidRegime):
        measurement_bound(BoundQuery("decorrelating-ss", k=256, n1=256, n2=4, rho=2))
    with pytest.raises(InvalidRegime):
        # inflated sparsity gamma'*k exceeds rho*n1
        measurement_bound(BoundQuery("dense-ss", k=200, n1=128, n2=4, rho=2, xi=3.0))


def test_bound_query_validation():
    with pytest.raises(ValueError):
        BoundQuery("nope", k=1, n1=8, n2=2, rho=1)
    with pytest.raises(ValueError):
        BoundQuery("uniform-ss", k=0, n1=8, n2=2, rho=1)
    with pytest.raises(ValueError):
        BoundQuery("uniform-ss", k=1, n1=8, n2=2, rho=1, xi=0.5)
    with pytest.raises(ValueError):
        BoundQuery("uniform-ss", k=1, n1=8, n2=2, rho=1, c=0.0)


def test_gamma_prime():
    assert gamma_prime(1.0) == 3.0
    assert gamma_prime(2.0) == 9.0
    with pytest.raises(ValueError):
        gamma_prime(0.9)
    # boundary identity: xi chosen so the inflated sparsity fills the cube
    n, k = 512, 4
    xi = math.sqrt((n / k - 1.0) / 2.0)
    assert gamma_prime(xi) * k == pytest.approx(n, rel=1e-12)


# --- recovery-guarantee constants -------------------------------------------


def test_theorem_constants_frozen_reference_point():
    g = theorem1_constants(0.0, 1.0, 1.0, 2.0)
    assert g.valid
    assert g.gamma == 3.0
    assert g.alpha == pytest.approx(4.828427124746189, rel=1e-12)
    assert g.beta == pytest.approx(6.828427124746189, rel=1e-12)
    assert g.c0p == pytest.approx(9.656854249492378, rel=1e-12)
    assert g.c1p == pytest.approx(11.656854249492378, rel=1e-12)


def test_theorem_constants_invalid_regimes():
    # isometry defect at the 1/3 edge
    g = theorem1_constants(1.0 / 3.0, 1.0, 1.0, 2.0)
    assert not g.valid and g.alpha is None and g.c1p is None
    # support inflation below 2*xi^2
    assert not theorem1_constants(0.0, 1.0, 1.0, 1.9).valid
    assert not theorem1_constants(0.0, 1.0, 2.0, 7.9).valid
    assert theorem1_constants(0.0, 1.0, 2.0, 8.0).valid
    with pytest.raises(ValueError):
        theorem1_constants(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        theorem1_constants(0.1, -1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        theorem1_constants(0.1, 2.0, 1.0, 2.0)


def test_theorem_constants_validity_boundary_by_bisection():
    # at tau = 2*xi^2 both validity conditions pinch at delta = 1/3
    lo, hi = 0.0, 0.99
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if theorem1_constants(mid, 1.0, 1.0, 2.0).valid:
            lo = mid
        else:
            hi = mid
    assert abs(lo - 1.0 / 3.0) < 1e-9


def test_theorem_constants_monotone_in_isometry_defect():
    vals = [theorem1_constants(d, 1.0, 1.0, 4.0) for d in np.linspace(0.0, 0.33, 12)]
    assert all(g.valid for g in vals)
    alphas = [g.alpha for g in vals]
    betas = [g.beta for g in vals]
    assert all(b > a for a, b in zip(alphas, alphas[1:]))
    assert all(b > a for a, b in zip(betas, betas[1:]))


# --- product isometry constants ---------------------------------------------


def test_kron_rip_bound():
    assert kron_rip_bound([0.0]) == 0.0
    assert kron_rip_bound([0.3]) == pytest.approx(0.3, rel=1e-15)
    assert kron_rip_bound([0.1, 0.2]) == pytest.approx(0.32, rel=1e-12)
    assert kron_rip_bound([0.2, 0.1]) == kron_rip_bound([0.1, 0.2])
    with pytest.raises(ValueError):
        kron_rip_bound([])
    with pytest.raises(ValueError):
        kron_rip_bound([0.1, -0.2])


# --- empirical isometry estimation ------------------------------------------


def test_empirical_rip_orthogonal_map_is_exact_isometry():
    Q, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(8, 8)))
    lo, hi, delta = empirical_rip(Q, k=3, trials=100, seed=1)
    assert abs(lo - 1.0) < 1e-10 and abs(hi - 1.0) < 1e-10 and delta < 1e-9


def test_empirical_rip_diagonal_exact():
    # 1-sparse unit probes hit the diagonal entries exactly
    lo, hi, delta = empirical_rip(np.diag([1.5, 0.5]), k=1, trials=50, seed=2)
    assert lo == pytest.approx(0.5, abs=1e-12)
    assert hi == pytest.approx(1.5, abs=1e-12)
    assert delta == pytest.approx(1.25, abs=1e-12)


def test_empirical_rip_lower_bounds_exhaustive_constant():
    # exact k=2 isometry constant by support enumeration
    rng = np.random.default_rng(3)
    A = rng.normal(size=(8, 12)) / np.sqrt(8)
    true_delta = 0.0
    for i in range(12):
        for j in range(i + 1, 12):
            G = A[:, [i, j]].T @ A[:, [i, j]]
            w = np.linalg.eigvalsh(G)
            true_delta = max(true_delta, 1.0 - w[0], w[-1] - 1.0)
    _, _, delta_hat = empirical_rip(A, k=2, trials=3000, seed=4)
    assert delta_hat <= true_delta + 1e-12
    assert delta_hat > 0.5 * true_delta  # sanity: the sample is not vacuous


def test_empirical_rip_accepts_operator_objects():
    core = CoreOperator("random-convolution", 16, 16, seed=5)
    lo, hi, delta = empirical_rip(core, k=4, trials=50, seed=6)
    # full-rate random convolution is orthogonal
    assert delta < 1e-10


def test_empirical_rip_block_dictionary_matches_eta():
    # mixing-as-dictionary with singular values {1.5, 0.5}: probes confined
    # to one block realize the extremes, so delta converges to 1.25
    D = np.kron(np.diag([1.5, 0.5]), np.eye(8))
    _, _, delta = empirical_rip(np.eye(16), k=2, trials=2000, seed=11, dictionary=D)
    assert delta == pytest.approx(1.25, abs=0.05)


def test_empirical_rip_dictionary_composition():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 10))
    W = rng.normal(size=(10, 10))
    lo1 = empirical_rip(A @ W, k=2, trials=200, seed=8)
    lo2 = empirical_rip(A, k=2, trials=200, seed=8, dictionary=W)
    assert lo1 == pytest.approx(lo2, rel=1e-12)


def test_empirical_rip_reproducible_and_validated():
    A = np.random.default_rng(9).normal(size=(4, 6))
    assert empirical_rip(A, 2, 40, 10) == empirical_rip(A, 2, 40, 10)
    with pytest.raises(ValueError):
        empirical_rip(A, 0, 10, 0)
    with pytest.raises(ValueError):
        empirical_rip(A, 7, 10, 0)
    with pytest.raises(ValueError):
        empirical_rip(A, 2, 0, 0)
