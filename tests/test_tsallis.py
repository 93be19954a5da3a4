"""Tests for the q-deformed math: q_log identities, the diagonal Gaussian,
and the sparsification condition chain."""

import math

import numpy as np
import pytest

from minreal.errors import ConfigError
from minreal.tsallis import DiagGaussian, QParams, q_log


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


class TestIdentitySuite:
    """Randomized identity checks; also exercised at acceptance scale."""

    def test_pseudo_additivity_consistency(self):
        # ln_q(ab) = ln_q(a) + ln_q(b) + (1-q) ln_q(a) ln_q(b)
        rng = np.random.default_rng(21)
        a = np.exp(rng.uniform(-8, 8, size=2000))
        b = np.exp(rng.uniform(-8, 8, size=2000))
        q = rng.uniform(0.05, 0.999, size=2000)
        for ai, bi, qi in zip(a, b, q):
            la, lb = q_log(ai, qi), q_log(bi, qi)
            lhs = la + lb + (1.0 - qi) * la * lb
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


class TestDiagGaussian:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            DiagGaussian(np.array([np.nan]), np.zeros(1))


class TestSparsityCondition:
    def test_highway_style_equality_chain(self):
        params = QParams(
            q=0.99, class_qs=(0.99, 0.999), class_weights=(10.0, 1.0), beta=10.0, gamma=3.0
        )
        assert params.sparsifying
        np.testing.assert_allclose(params.chain, (10.0, 10.0, 10.0))

    def test_reach_style_equality_chain(self):
        params = QParams(
            q=0.95, class_qs=(0.95, 0.999), class_weights=(50.0, 1.0), beta=50.0, gamma=3.0
        )
        assert params.sparsifying
        np.testing.assert_allclose(params.chain, (50.0, 50.0, 50.0))

    def test_violated_chain(self):
        params = QParams(
            q=0.99, class_qs=(0.99, 0.999), class_weights=(10.0, 1.0), beta=5.0, gamma=3.0
        )
        assert not params.sparsifying
        assert params.chain[0] == 5.0 and params.chain[1] == pytest.approx(10.0)

    def test_exact_vae_vacuous(self):
        params = QParams(q=1.0, class_qs=(1.0, 1.0), class_weights=(50.0, 1.0), beta=0.3, gamma=0.3)
        assert params.chain == (0.3,)
        assert params.sparsifying

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

    @pytest.mark.parametrize("field", ["beta", "gamma", "class_weight"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_objective_weight_rejected(self, field, value):
        # Each once passed, and the sparsity check called its chain
        # satisfied: NaN compares False, and (50, inf, 50) hid behind an
        # infinite slack.
        kwargs = {"q": 0.95, "class_qs": (0.95, 0.999), "class_weights": (50.0, 1.0),
                  "beta": 50.0, "gamma": 3.0}
        if field == "class_weight":
            kwargs["class_weights"] = (value, 1.0)
        else:
            kwargs[field] = value
        with pytest.raises(ConfigError, match="finite"):
            QParams(**kwargs)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_class_q_rejected(self, value):
        # NaN once passed every ordering check, so the sparsity check
        # called the chain (1.0, nan) satisfied and training aborted at step 1.
        with pytest.raises(ConfigError, match="finite"):
            QParams(0.5, (value,), (1.0,), 1.0, 1.0)
