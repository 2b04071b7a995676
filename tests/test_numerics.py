"""Kernel tests: jets, Gamma, operator powers, calibrated periods, ODE driver."""

import cmath
import math

import numpy as np
import pytest

from qstokes.numerics import (
    Jet,
    LogBranchPoint,
    calibrated_period,
    calibrated_periods,
    continue_linear_ode,
    operator_power,
    rgamma,
)

# Frozen with mpmath at 40 digits.
GAMMA_1_PLUS_I = complex(0.49801566811835604271, -0.15494982830181068512)
GAMMA_I = complex(-0.15494982830181068512, -0.49801566811835604271)
GAMMA_M1_5 = 2.3632718012073547031
GAMMA_HALF_14I = complex(-4.0537030780372814884e-10, -5.7732998345536051632e-10)
GAMMA_M43_21I = complex(0.00023232125929837568307, 0.00026310302149071699191)
GAMMA_305_M8I = complex(-9.4779925537041994255e30, -1.3876409960465173063e31)
# Taylor coefficients of 1/Gamma at z = 0: z + g z^2 + ...
RGAMMA_SERIES_AT_0 = [
    0.0,
    1.0,
    0.57721566490153286061,
    -0.65587807152025388108,
    -0.042002635034095235529,
]
RGAMMA_TAYLOR_AT_03 = [
    0.33427275256419055398,
    1.1707984126775890302,
    0.0037290433686709413263,
    -0.58100443650528442127,
]
RGAMMA_TAYLOR_AT_M22_07I = [
    complex(0.2109796122229656841, 3.1640978742422045667),
    complex(8.9856706086387288426, -4.1092613180719554747),
    complex(-10.294121610857270144, -10.094454096043969272),
    complex(-5.4383147621963983219, 13.572450007879860791),
]

P1_THETA = np.diag([0.5, -0.5]).astype(complex)
P1_RHO = np.array([[0.0, 0.0], [2.0, 0.0]], dtype=complex)


def gamma(z):
    return 1.0 / rgamma(complex(z))


def rel_err(got, want):
    want = complex(want)
    return abs(complex(got) - want) / max(1.0, abs(want))


class TestJet:
    def test_polynomial_product(self):
        a = Jet([1.0, 2.0, 3.0])
        b = Jet([4.0, 5.0, 6.0])
        # (1+2x+3x^2)(4+5x+6x^2) = 4 + 13x + 28x^2 + O(x^3)
        assert np.allclose((a * b).c, [4.0, 13.0, 28.0])

    def test_reciprocal_roundtrip(self):
        a = Jet([2.0 + 1.0j, -0.7, 0.3, 1.1])
        one = a * a.reciprocal()
        assert np.allclose(one.c, [1.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_exp_log_roundtrip(self):
        a = Jet([0.4 - 0.2j, 1.0, -0.5, 0.25])
        back = a.exp().log()
        assert np.allclose(back.c, a.c, atol=1e-13)

    def test_exp_matches_scalar_derivatives(self):
        # d^l/dm^l exp(c m) = c^l exp(c m)
        c = 0.7 + 0.3j
        m0 = 0.2 - 0.1j
        jet = (Jet.variable(m0, 4) * c).exp()
        for l in range(4):
            want = c**l * cmath.exp(c * m0) / math.factorial(l)
            assert abs(jet.c[l] - want) < 1e-14 * abs(want)

    def test_sin_value(self):
        z = 0.3 + 0.4j
        jet = Jet.variable(z, 3).sin()
        assert abs(jet.value - cmath.sin(z)) < 1e-14
        assert abs(jet.c[1] - cmath.cos(z)) < 1e-14

    def test_order_mismatch_raises(self):
        with pytest.raises(ValueError):
            Jet([1.0, 2.0]) * Jet([1.0, 2.0, 3.0])


class TestGamma:
    def test_factorial_point(self):
        assert rel_err(gamma(2.0), 1.0) < 1e-13

    def test_half_integer(self):
        assert rel_err(gamma(0.5), math.sqrt(math.pi)) < 1e-13

    def test_one_plus_i(self):
        assert rel_err(gamma(1 + 1j), GAMMA_1_PLUS_I) < 1e-12

    def test_i(self):
        assert rel_err(gamma(1j), GAMMA_I) < 1e-12

    def test_reflection_region(self):
        assert rel_err(gamma(-1.5), GAMMA_M1_5) < 1e-12
        assert rel_err(gamma(-4.3 + 2.1j), GAMMA_M43_21I) < 1e-12

    def test_large_imaginary(self):
        got = gamma(0.5 + 14j)
        assert abs(got - GAMMA_HALF_14I) < 1e-12 * abs(GAMMA_HALF_14I)

    def test_large_modulus(self):
        got = gamma(30.5 - 8j)
        assert abs(got - GAMMA_305_M8I) < 1e-12 * abs(GAMMA_305_M8I)

    def test_rgamma_vanishes_at_poles(self):
        assert rgamma(0.0) == 0.0
        assert abs(rgamma(-3.0)) < 1e-15

    def test_reflection_identity_grid(self):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            if abs(z) > 10 or abs(z - round(z.real)) < 0.1 or abs(z.imag) < 0.1 and abs(z.real - round(z.real)) < 0.1:
                continue
            lhs = gamma(z) * gamma(1 - z) * cmath.sin(math.pi * z) / math.pi
            assert abs(lhs - 1.0) < 1e-10
            count += 1

    def test_rgamma_jet_series_at_zero(self):
        jet = rgamma(Jet.variable(0.0, 5))
        assert np.allclose(jet.c, RGAMMA_SERIES_AT_0, atol=1e-13)

    def test_rgamma_jet_at_03(self):
        jet = rgamma(Jet.variable(0.3, 4))
        assert np.allclose(jet.c, RGAMMA_TAYLOR_AT_03, atol=1e-13)

    def test_rgamma_jet_complex_center(self):
        jet = rgamma(Jet.variable(-2.2 + 0.7j, 4))
        assert np.allclose(jet.c, RGAMMA_TAYLOR_AT_M22_07I, atol=5e-13)


class TestLogBranchPoint:
    def test_principal(self):
        p = LogBranchPoint.principal(-2.0)
        assert p.log == pytest.approx(complex(math.log(2.0), math.pi))

    def test_from_polar_lifted_angle(self):
        p = LogBranchPoint.from_polar(3.0, 2 * math.pi + 0.25)
        assert p.log.imag == pytest.approx(2 * math.pi + 0.25)
        assert abs(p.value - 3.0 * cmath.exp(0.25j)) < 1e-12

    def test_inconsistent_log_rejected(self):
        with pytest.raises(ValueError):
            LogBranchPoint(1.0 + 0j, 0.5j)


class TestOperatorPower:
    def test_identity_at_one(self):
        lam = LogBranchPoint.principal(1.0)
        got = operator_power(lam, P1_THETA, P1_RHO)
        assert np.allclose(got, np.eye(2), atol=1e-14)

    def test_diagonal_scalar_powers(self):
        lam = LogBranchPoint.principal(4.0)
        got = operator_power(lam, P1_THETA, np.zeros((2, 2)))
        assert np.allclose(got, np.diag([2.0, 0.5]), atol=1e-13)

    def test_nilpotent_factor_series(self):
        lam = LogBranchPoint.principal(math.e)
        got = operator_power(lam, P1_THETA, P1_RHO)
        want = np.diag([math.e**0.5, math.e**-0.5]) @ (np.eye(2) - P1_RHO)
        assert np.allclose(got, want, atol=1e-13)

    def test_branch_shift_group_law(self):
        lam = LogBranchPoint.principal(1.7 - 0.4j)
        shifted = LogBranchPoint(lam.value, lam.log + 2j * math.pi)
        lhs = operator_power(shifted, P1_THETA, P1_RHO)
        factor = np.diag(np.exp(2j * math.pi * np.diagonal(P1_THETA))) @ (
            np.eye(2) - 2j * math.pi * P1_RHO
        )
        rhs = operator_power(lam, P1_THETA, P1_RHO) @ factor
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_non_nilpotent_rejected(self):
        lam = LogBranchPoint.principal(2.0)
        with pytest.raises(ValueError):
            operator_power(lam, P1_THETA, np.eye(2))

    def test_non_diagonal_theta_rejected(self):
        lam = LogBranchPoint.principal(2.0)
        theta = np.array([[0.5, 0.1], [0.0, -0.5]])
        with pytest.raises(ValueError, match="diagonal"):
            operator_power(lam, theta, P1_RHO)
        with pytest.raises(ValueError, match="diagonal"):
            next(calibrated_periods(theta, P1_RHO, 0.3, lam))


class TestCalibratedPeriod:
    def test_zero_rho_collapses_to_scalars(self):
        theta = np.diag([0.3, -0.2]).astype(complex)
        m = 0.1 + 0.05j
        lam = LogBranchPoint.principal(2.0 * cmath.exp(0.3j))
        got = calibrated_period(theta, np.zeros((2, 2)), m, lam)
        for i, a in enumerate([0.3, -0.2]):
            s = a - m - 0.5
            want = cmath.exp(s * lam.log) * rgamma(s + 1.0)
            assert abs(got[i, i] - want) < 1e-13
        assert abs(got[0, 1]) == 0.0 and abs(got[1, 0]) == 0.0

    def test_p1_hand_expansion_at_m0(self):
        # For the 2x2 cup-product data the only surviving correction is
        # -rho d_lambda d_m acting on the first eigen block, which yields
        # the off-diagonal entry 2/lambda; the rest collapses to
        # diag(1, 0) because 1/Gamma kills the integer spectrum.
        for lam_val in (2.0, 3.0 * cmath.exp(0.62j)):
            lam = LogBranchPoint.principal(lam_val)
            got = calibrated_period(P1_THETA, P1_RHO, 0.0, lam)
            want = np.array([[1.0, 0.0], [2.0 / lam_val, 0.0]], dtype=complex)
            assert np.abs(got - want).max() < 1e-13

    def test_translation_in_m_matches_lambda_derivative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5))
            lam_val = cmath.rect(rng.uniform(1.0, 4.0), rng.uniform(-2.5, 2.5))
            h = 1e-5
            plus = calibrated_period(P1_THETA, P1_RHO, m, LogBranchPoint.principal(lam_val + h))
            minus = calibrated_period(P1_THETA, P1_RHO, m, LogBranchPoint.principal(lam_val - h))
            shifted = calibrated_period(P1_THETA, P1_RHO, m + 1.0, LogBranchPoint.principal(lam_val))
            fd = (plus - minus) / (2 * h)
            assert np.abs(fd - shifted).max() < 1e-8

    def test_branch_matters(self):
        lam = LogBranchPoint.principal(2.0)
        wound = LogBranchPoint(2.0 + 0j, lam.log + 2j * math.pi)
        a = calibrated_period(P1_THETA, P1_RHO, 0.3, lam)
        b = calibrated_period(P1_THETA, P1_RHO, 0.3, wound)
        assert np.abs(a - b).max() > 1e-3


class TestCalibratedPeriods:
    @staticmethod
    def pn_grading(n):
        theta = np.diag([n / 2.0 - k for k in range(n + 1)]).astype(complex)
        rho = np.diag(np.full(n, n + 1.0), -1).astype(complex)
        return theta, rho

    def test_terms_match_calibrated_period_at_shifted_m(self):
        # the Gamma shift must reproduce the direct Stirling evaluation
        # at m + k, on the principal and on a wound branch
        lams = (
            LogBranchPoint.principal(7.5),
            LogBranchPoint(3.0 * cmath.exp(0.4j), complex(math.log(3.0), 0.4 + 2.0 * math.pi)),
        )
        for n in (1, 4):
            theta, rho = self.pn_grading(n)
            for m in (0.0, 0.3, -3.7, 0.2 + 0.3j):
                for lam in lams:
                    terms = calibrated_periods(theta, rho, m, lam)
                    for k in range(25):
                        got = next(terms)
                        want = calibrated_period(theta, rho, m + k, lam)
                        scale = np.abs(want).max()
                        assert np.abs(got - want).max() <= 1e-11 * scale

    def test_first_term_is_calibrated_period(self):
        lam = LogBranchPoint.principal(2.0 * cmath.exp(0.3j))
        first = next(calibrated_periods(P1_THETA, P1_RHO, 0.3, lam))
        assert np.array_equal(first, calibrated_period(P1_THETA, P1_RHO, 0.3, lam))


class TestContinueLinearOde:
    def test_zero_rhs_is_constant(self):
        y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
        got = continue_linear_ode(lambda lam: np.zeros((2, 2)), y0, [1.0, 2.0 + 1.0j], 1e-10)
        assert np.allclose(got, y0, atol=1e-14)

    def test_scalar_power_along_segment(self):
        a = 0.3 + 0.2j
        rhs = lambda lam: np.array([[a / lam]])
        got = continue_linear_ode(rhs, np.array([[1.0 + 0j]]), [1.0, 2.0], 1e-12)
        assert abs(got[0, 0] - 2.0**a) < 1e-11

    def test_full_loop_monodromy(self):
        a = 0.25 - 0.4j
        rhs = lambda lam: np.array([[a / lam]])
        verts = [cmath.exp(2j * math.pi * k / 12) for k in range(13)]
        got = continue_linear_ode(rhs, np.array([[1.0 + 0j]]), verts, 1e-11)
        want = cmath.exp(2j * math.pi * a)
        assert abs(got[0, 0] - want) < 1e-10

    def test_non_semisimple_coefficient(self):
        # y' = (A/lambda) y with A = 0.3 + N, so y(2) = 2^0.3 (I + N log 2)
        A = np.array([[0.3, 1.0], [0.0, 0.3]], dtype=complex)
        rhs = lambda lam: A / lam
        got = continue_linear_ode(rhs, np.eye(2, dtype=complex), [1.0, 2.0], 1e-12)
        want = 2.0**0.3 * np.array([[1.0, math.log(2.0)], [0.0, 1.0]])
        assert np.abs(got - want).max() < 1e-11

    def test_homotopic_paths_agree(self):
        a = 0.3 + 0.2j
        rhs = lambda lam: np.array([[a / lam]])
        tol = 1e-11
        y0 = np.array([[1.0 + 0j]])
        upper = continue_linear_ode(rhs, y0, [1.0, 1.0 + 1.0j, -1.0 + 1.0j, -1.0], tol)
        zigzag = continue_linear_ode(
            rhs, y0, [1.0, 1.2 + 0.7j, 0.3 + 1.4j, -0.8 + 0.9j, -1.0 + 0.4j, -1.0], tol
        )
        assert np.abs(upper - zigzag).max() < 10 * tol

    def test_clearance_violation_raises(self):
        rhs = lambda lam: np.array([[1.0 / lam]])
        with pytest.raises(RuntimeError):
            continue_linear_ode(
                rhs,
                np.array([[1.0 + 0j]]),
                [1.0, 0.001, 1.0 + 1.0j],
                1e-10,
                singularities=[0.0, 10.0],
            )

    def test_step_capped_near_singularity(self):
        # passing at distance 0.05 from the pole still integrates accurately
        a = 0.4
        rhs = lambda lam: np.array([[a / lam]])
        got = continue_linear_ode(
            rhs,
            np.array([[1.0 + 0j]]),
            [-1.0 + 0.05j, 1.0 + 0.05j],
            1e-11,
            singularities=[0.0, 1000.0],
            min_clearance=1e-3,
        )
        z0 = complex(-1.0, 0.05)
        z1 = complex(1.0, 0.05)
        want = cmath.exp(a * (cmath.log(z1) - cmath.log(z0)))
        assert abs(got[0, 0] - want) < 1e-9


@pytest.mark.slow
class TestAgainstMpmath:
    def test_gamma_random_grid(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(3)
        for _ in range(60):
            z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
            if abs(z - round(z.real)) < 0.05:
                continue
            want = complex(mp.gamma(z))
            got = gamma(z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
