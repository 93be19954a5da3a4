"""Tests for the q-deformed math: identities, closed-form divergence vs a
quadrature oracle, and the sparsification condition chain."""

import math

import numpy as np
import pytest
from scipy import integrate

from minreal.errors import ConfigError
from minreal.tsallis import (
    DiagGaussian,
    QParams,
    check_sparsity_condition,
    exponent_saturation_count,
    gaussian_log_prob,
    pseudo_add,
    q_exp,
    q_log,
    q_log_from_log,
    standard_kl_diag_gaussian,
    tsallis_kl_diag_gaussian,
)


def tsallis_divergence_quad(mu1, s1, mu2, s2, q):
    """Oracle: adaptive quadrature of -int p1 ln_q(p2/p1) dx.

    The integrand is combined in log space (exp(q*lp1 + (1-q)*lp2)) so the
    tails do not overflow; this is the literal definition, not the
    closed form under test.
    """

    def integrand(x):
        lp1 = -0.5 * ((x - mu1) / s1) ** 2 - np.log(s1) - 0.5 * np.log(2 * np.pi)
        lp2 = -0.5 * ((x - mu2) / s2) ** 2 - np.log(s2) - 0.5 * np.log(2 * np.pi)
        if q == 1.0:
            return -np.exp(lp1) * (lp2 - lp1)
        return -(np.exp(q * lp1 + (1 - q) * lp2) - np.exp(lp1)) / (1 - q)

    lo = min(mu1 - 12 * s1, mu2 - 12 * s2)
    hi = max(mu1 + 12 * s1, mu2 + 12 * s2)
    val, _ = integrate.quad(integrand, lo, hi, limit=300, epsabs=1e-13, epsrel=1e-12)
    return val


class TestQLog:
    def test_unit_input_is_zero(self):
        assert q_log(1.0, 0.7) == 0.0

    def test_half_q_example(self):
        assert q_log(4.0, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_natural_log_branch(self):
        assert q_log(math.e, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_finite_lower_bound_near_zero(self):
        v = q_log(1e-300, 0.5)
        assert v >= -2.0
        assert v == pytest.approx(-2.0, abs=1e-12)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                q_log(bad, 0.5)

    def test_array_input(self):
        out = q_log(np.array([1.0, 4.0]), 0.5)
        np.testing.assert_allclose(out, [0.0, 2.0], atol=1e-12)


class TestQLogFromLog:
    def test_zero_log(self):
        assert q_log_from_log(0.0, 0.3) == 0.0

    def test_matches_q_log(self):
        assert q_log_from_log(math.log(4.0), 0.5) == pytest.approx(2.0, rel=1e-12)

    def test_large_log_extended_precision_value(self):
        # (e^1 - 1)/0.001 evaluated with 50-digit arithmetic.
        expected = 1718.2818284590452354
        assert q_log_from_log(1000.0, 0.999) == pytest.approx(expected, rel=1e-12)

    def test_q1_identity(self):
        assert q_log_from_log(-123.4, 1.0) == -123.4

    def test_exponent_clamp_and_saturation(self):
        # (1-q)*ell = 100 > 50: clamped, flagged.
        clamped = q_log_from_log(1000.0, 0.9)
        assert clamped == pytest.approx(np.expm1(50.0) / 0.1, rel=1e-12)
        assert exponent_saturation_count(1000.0, 0.9) == 1
        assert exponent_saturation_count(np.array([1000.0, 0.0, 600.0]), 0.9) == 2
        assert exponent_saturation_count(1000.0, 1.0) == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            q_log_from_log(float("inf"), 0.5)


class TestQExp:
    def test_examples(self):
        assert q_exp(0.0, 0.5) == pytest.approx(1.0)
        assert q_exp(2.0, 0.5) == pytest.approx(4.0, rel=1e-12)
        assert q_exp(1.0, 1.0) == pytest.approx(math.e, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            q_exp(-3.0, 0.5)  # 1 + 0.5*(-3) < 0

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = rng.uniform(0.05, 1.0)
            x = np.exp(rng.uniform(-5, 5))
            assert q_log(q_exp(q_log(x, q), q), q) == pytest.approx(
                q_log(x, q), rel=1e-12, abs=1e-12
            )


class TestPseudoAdd:
    def test_product_example(self):
        assert pseudo_add(2.0, 4.0, 0.5) == pytest.approx(10.0)
        assert q_log(36.0, 0.5) == pytest.approx(10.0)

    def test_identity_element(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            y = rng.normal()
            q = rng.uniform(0.1, 1.0)
            assert pseudo_add(0.0, y, q) == pytest.approx(y, rel=1e-14, abs=1e-14)

    def test_additivity_at_q1(self):
        assert pseudo_add(1.5, -2.5, 1.0) == pytest.approx(-1.0)


class TestIdentitySuite:
    """Randomized identity checks; also exercised at acceptance scale."""

    def test_pseudo_additivity_consistency(self):
        rng = np.random.default_rng(21)
        a = np.exp(rng.uniform(-8, 8, size=2000))
        b = np.exp(rng.uniform(-8, 8, size=2000))
        q = rng.uniform(0.05, 0.999, size=2000)
        for ai, bi, qi in zip(a, b, q):
            lhs = pseudo_add(q_log(ai, qi), q_log(bi, qi), qi)
            rhs = q_log(ai * bi, qi)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_reciprocal_rule(self):
        rng = np.random.default_rng(22)
        for _ in range(2000):
            x = np.exp(rng.uniform(-8, 8))
            q = rng.uniform(0.05, 0.999)
            lhs = q_log(1.0 / x, q)
            rhs = -(x ** (q - 1.0)) * q_log(x, q)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_monotonicity_in_q(self):
        rng = np.random.default_rng(23)
        for _ in range(2000):
            x = np.exp(rng.uniform(-6, 6))
            qa = rng.uniform(0.05, 0.999)
            qb = rng.uniform(qa, 1.0)
            assert q_log(x, qa) >= q_log(x, qb) - 1e-12
        # equality only at x = 1
        assert q_log(1.0, 0.2) == q_log(1.0, 0.9) == 0.0

    def test_finite_lower_bound(self):
        # Strictly above the bound in exact arithmetic; in float64 the value
        # lands exactly on -1/(1-q) once x^(1-q) underflows, never below it.
        rng = np.random.default_rng(24)
        for _ in range(2000):
            x = np.exp(rng.uniform(-300, 10))
            q = rng.uniform(0.05, 0.999)
            assert q_log(x, q) >= -1.0 / (1.0 - q)
        assert q_log(1e-6, 0.5) > -2.0

    def test_q_to_1_continuity(self):
        xs = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 500))
        diff = np.abs(q_log(xs, 1.0 - 1e-8) - np.log(xs))
        assert diff.max() <= 1e-6


class TestTsallisDivergence:
    def test_identical_distributions_zero(self):
        p = DiagGaussian(np.array([0.3, -1.2]), np.array([0.1, -0.5]))
        assert tsallis_kl_diag_gaussian(p, p, 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_standard_kl_at_q1(self):
        p1 = DiagGaussian(np.array([0.0]), np.array([0.0]))
        p2 = DiagGaussian(np.array([1.0]), np.array([0.0]))
        assert tsallis_kl_diag_gaussian(p1, p2, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_frozen_oracle_value(self):
        # Computed with the quadrature oracle below (abs err < 1e-13).
        p1 = DiagGaussian(np.array([0.0]), np.array([0.0]))
        p2 = DiagGaussian(np.array([1.0]), np.array([0.0]))
        assert tsallis_kl_diag_gaussian(p1, p2, 0.5) == pytest.approx(
            0.2350061948308093, rel=1e-10
        )

    def test_against_quadrature_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            mu1, mu2 = rng.normal(0, 2, size=2)
            s1, s2 = np.exp(rng.uniform(-2, 1, size=2))
            q = rng.uniform(0.2, 0.99)
            p1 = DiagGaussian(np.array([mu1]), np.array([np.log(s1)]))
            p2 = DiagGaussian(np.array([mu2]), np.array([np.log(s2)]))
            closed = tsallis_kl_diag_gaussian(p1, p2, q)
            oracle = tsallis_divergence_quad(mu1, s1, mu2, s2, q)
            assert closed == pytest.approx(oracle, rel=1e-6)

    def test_nonnegative(self):
        rng = np.random.default_rng(32)
        for _ in range(300):
            d = rng.integers(1, 6)
            p1 = DiagGaussian(rng.normal(0, 2, d), rng.uniform(-2, 1, d))
            p2 = DiagGaussian(rng.normal(0, 2, d), rng.uniform(-2, 1, d))
            q = rng.uniform(0.1, 1.0)
            assert tsallis_kl_diag_gaussian(p1, p2, q) >= -1e-12

    def test_multidim_matches_1d_composition(self):
        # Product of per-dimension integrals composed outside the closed form.
        rng = np.random.default_rng(33)
        d = 5
        mu1, mu2 = rng.normal(0, 1.5, d), rng.normal(0, 1.5, d)
        ls1, ls2 = rng.uniform(-1.5, 0.8, d), rng.uniform(-1.5, 0.8, d)
        q = 0.7
        p1 = DiagGaussian(mu1, ls1)
        p2 = DiagGaussian(mu2, ls2)
        prod = 1.0
        for k in range(d):
            one1 = DiagGaussian(mu1[k : k + 1], ls1[k : k + 1])
            one2 = DiagGaussian(mu2[k : k + 1], ls2[k : k + 1])
            kl_1d = tsallis_kl_diag_gaussian(one1, one2, q)
            prod *= 1.0 - (1.0 - q) * kl_1d  # back out I_d from the 1-D value
        composed = (1.0 - prod) / (1.0 - q)
        assert tsallis_kl_diag_gaussian(p1, p2, q) == pytest.approx(composed, rel=1e-6)

    def test_dimension_mismatch(self):
        p1 = DiagGaussian(np.zeros(2), np.zeros(2))
        p2 = DiagGaussian(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            tsallis_kl_diag_gaussian(p1, p2, 0.5)


class TestGaussianLogProb:
    def test_standard_normal_at_zero(self):
        p = DiagGaussian(np.zeros(1), np.zeros(1))
        assert gaussian_log_prob(p.mean, p.log_std, np.zeros(1)) == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_at_mean(self):
        rng = np.random.default_rng(5)
        mu = rng.normal(0, 1, 4)
        ls = rng.uniform(-1, 1, 4)
        p = DiagGaussian(mu, ls)
        expected = -ls.sum() - 2.0 * np.log(2 * np.pi)
        assert gaussian_log_prob(p.mean, p.log_std, mu) == pytest.approx(expected, rel=1e-12)


class TestDiagGaussian:
    def test_log_std_clamped(self):
        p = DiagGaussian(np.zeros(2), np.array([-100.0, 100.0]))
        np.testing.assert_allclose(p.log_std, [-6.0, 2.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.array([np.nan]), np.zeros(1))


class TestSparsityCondition:
    def test_highway_style_equality_chain(self):
        params = QParams(
            q=0.99, class_qs=(0.99, 0.999), class_weights=(10.0, 1.0), beta=10.0, gamma=3.0
        )
        report = check_sparsity_condition(params)
        assert report.satisfied
        np.testing.assert_allclose(report.chain, (10.0, 10.0, 10.0))

    def test_reach_style_equality_chain(self):
        params = QParams(
            q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0), beta=50.0, gamma=3.0
        )
        report = check_sparsity_condition(params)
        assert report.satisfied
        np.testing.assert_allclose(report.chain, (50.0, 50.0, 50.0))

    def test_violated_chain(self):
        params = QParams(
            q=0.99, class_qs=(0.99, 0.999), class_weights=(10.0, 1.0), beta=5.0, gamma=3.0
        )
        report = check_sparsity_condition(params)
        assert not report.satisfied
        assert report.chain[0] == 5.0 and report.chain[1] == pytest.approx(10.0)

    def test_exact_vae_vacuous(self):
        params = QParams(q=1.0, class_qs=(1.0, 1.0), class_weights=(50.0, 1.0), beta=0.3, gamma=0.3)
        report = check_sparsity_condition(params)
        assert report.satisfied and report.exact_vae

    def test_qparams_validation(self):
        with pytest.raises(ConfigError):
            QParams(q=0.0, class_qs=(0.5,), class_weights=(1.0,), beta=1.0, gamma=1.0)
        with pytest.raises(ConfigError):
            QParams(q=0.9, class_qs=(0.8,), class_weights=(1.0,), beta=1.0, gamma=1.0)
        with pytest.raises(ConfigError):  # decreasing class_qs
            QParams(q=0.9, class_qs=(0.99, 0.95), class_weights=(1.0, 1.0), beta=1.0, gamma=1.0)
        with pytest.raises(ConfigError):  # q_c = 1 with q < 1
            QParams(q=0.9, class_qs=(1.0,), class_weights=(1.0,), beta=1.0, gamma=1.0)
        with pytest.raises(ConfigError):  # length mismatch
            QParams(q=0.9, class_qs=(0.95,), class_weights=(1.0, 2.0), beta=1.0, gamma=1.0)
        with pytest.raises(ConfigError):  # nonpositive weight
            QParams(q=0.9, class_qs=(0.95,), class_weights=(0.0,), beta=1.0, gamma=1.0)


def test_standard_kl_matches_quadrature():
    rng = np.random.default_rng(41)
    for _ in range(10):
        mu1, mu2 = rng.normal(0, 2, 2)
        s1, s2 = np.exp(rng.uniform(-1.5, 1, 2))
        p1 = DiagGaussian(np.array([mu1]), np.array([np.log(s1)]))
        p2 = DiagGaussian(np.array([mu2]), np.array([np.log(s2)]))
        oracle = tsallis_divergence_quad(mu1, s1, mu2, s2, 1.0)
        assert standard_kl_diag_gaussian(p1, p2) == pytest.approx(oracle, rel=1e-8)
