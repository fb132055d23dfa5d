import math
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelifespan.core import ModelParams, RegimeKind
from wavelifespan.theory import (
    BlowupSequenceState,
    D_a,
    E_ab,
    INFTY,
    K1,
    K2,
    S_p2,
    _log_C1,
    _log_C2,
    a_n_closed_form,
    blowup_sequence,
    classify_regime,
    con1_lhs,
    con2_lhs,
    dt_table,
    epsilon_thresholds,
    invert_lifespan_bound,
    k1_minorant,
    k2_minorant,
    lifespan_bound,
    phase_diagram,
    phase_diagram_csv,
    u_nonzero_table,
    u_zero_table,
)


WIDE = st.floats(allow_nan=False, allow_infinity=False)


class TestClassification:
    @pytest.mark.parametrize(
        "p, a, b, kind, exponent",
        [
            (2, 1.0, 0.0, RegimeKind.global_, None),
            (2, 0.0, 0.0, RegimeKind.exp_p_minus_1, None),
            (2, 0.0, -2.0, RegimeKind.exp_p_minus_1, None),
            (2, 0.5, -3.0, RegimeKind.exp_p_p_minus_1, None),
            (2, -0.5, 0.0, RegimeKind.poly_a, 2.0),
            (2, -0.5, -2.0, RegimeKind.poly_a, 2.0),
            (2, -0.5, -3.0, RegimeKind.poly_pab, 1.0),
            (3, -1.0, -3.0, RegimeKind.poly_a, 2.0),
            (2, 0.25, -4.0, RegimeKind.poly_pab, 4.0 / 3.0),
        ],
    )
    def test_pinned_cases(self, p, a, b, kind, exponent):
        regime = classify_regime(p, a, b)
        assert regime.kind is kind
        if exponent is None:
            assert regime.exponent is None
        else:
            assert regime.exponent == pytest.approx(exponent, rel=1e-12)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            classify_regime(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("p, a, b", [(2.0, math.nan, 0.0), (2.0, 0.0, math.inf), (math.nan, 0.0, 0.0)])
    def test_rejects_non_finite_exponents(self, p, a, b):
        with pytest.raises(ValueError):
            classify_regime(p, a, b)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(min_value=1.01, max_value=5.0),
        a=st.floats(min_value=-4.0, max_value=4.0),
        b=st.floats(min_value=-8.0, max_value=4.0),
    )
    def test_partition_is_total(self, p, a, b):
        regime = classify_regime(p, a, b)
        assert regime.kind in RegimeKind


class TestLifespanBound:
    def test_polynomial_value(self):
        assert lifespan_bound(2, -0.5, 0, 0.1, 1.0) == pytest.approx(100.0)
        assert lifespan_bound(2, -0.5, -3, 0.1, 2.0) == pytest.approx(20.0)

    def test_exponential_values(self):
        assert math.log(lifespan_bound(2, 0, 0, 0.5, 1.0)) == pytest.approx(2.0)
        assert math.log(lifespan_bound(2, 0.5, -3, 0.5, 1.0)) == pytest.approx(4.0)

    def test_global_is_infinite(self):
        assert lifespan_bound(2, 1, 0, 0.05, 1.0) == math.inf

    @pytest.mark.parametrize(
        "p, a, b, eps",
        [
            (2.0, 0.0, 0.0, 1e-4),  # exp overflows
            (2.0, -0.5, 0.0, 1e-200),  # polynomial: eps^-2 overflows
            (2.0, 0.25, -2.75, 1e-200),  # polynomial p(1+a)+b < 0: eps^-8 overflows
            (3.0, 0.0, 0.0, 1e-200),  # exponential: eps^-(p-1) overflows before exp
            (2.0, 0.5, -3.0, 1e-200),  # exponential p(p-1): eps^-2 overflows before exp
        ],
    )
    def test_overflow_saturates_to_inf(self, p, a, b, eps):
        assert lifespan_bound(p, a, b, eps, 1.0) == math.inf

    @pytest.mark.parametrize("a, b", [(-0.5, 0.0), (-0.5, -3.0), (0.0, 0.0), (0.5, -3.0)])
    def test_invert_roundtrip(self, a, b):
        for eps in (0.3, 0.8):
            T = lifespan_bound(2, a, b, eps, 1.0)
            assert invert_lifespan_bound(2, a, b, T, 1.0) == pytest.approx(eps, rel=1e-12)

    def test_invert_rejects_global(self):
        with pytest.raises(ValueError):
            invert_lifespan_bound(2, 1, 0, 100.0)

    @pytest.mark.parametrize("a, b", [(0.0, 0.0), (0.5, -3.0)])
    @pytest.mark.parametrize("T", [1.0, 0.5, 0.0])
    def test_invert_rejects_exponential_T_at_most_one(self, a, b, T):
        # exp(c eps^-r) > 1 for every eps > 0, so no eps predicts T <= 1
        with pytest.raises(ValueError, match="must exceed 1"):
            invert_lifespan_bound(2, a, b, T)

    @pytest.mark.parametrize("a, b", [(-0.5, 0.0), (-0.5, -3.0)])
    @pytest.mark.parametrize("T", [0.0, -4.0, math.nan])
    def test_invert_polynomial_rejects_T_at_most_zero(self, a, b, T):
        # (T/c)^(-1/r) divides by zero at T = 0 and is complex for T < 0
        with pytest.raises(ValueError, match="lifespan is positive"):
            invert_lifespan_bound(2, a, b, T)

    def test_invert_polynomial_accepts_T_below_one(self):
        eps = invert_lifespan_bound(2, -0.5, 0, 0.25)
        assert lifespan_bound(2, -0.5, 0, eps, 1.0) == pytest.approx(0.25, rel=1e-12)


class TestAprioriFunctions:
    def test_E_ab_five_cases(self):
        T, R = 10.0, 1.0
        assert E_ab(T, 2, 1.0, 0.0, R) == 1.0
        assert E_ab(T, 2, 0.0, 0.0, R) == pytest.approx(math.log(13.0) ** 2, rel=1e-13)
        assert E_ab(T, 2, 0.5, -3.0, R) == pytest.approx(math.log(13.0), rel=1e-13)
        assert E_ab(T, 2, -0.5, 0.0, R) == pytest.approx(12.0, rel=1e-13)
        assert E_ab(T, 2, -0.5, -3.0, R) == pytest.approx(12.0 ** 2.0, rel=1e-13)

    def test_E_ab_validation(self):
        with pytest.raises(ValueError):
            E_ab(-1.0, 2, 0, 0, 1.0)
        with pytest.raises(ValueError):
            E_ab(1.0, 2, 0, 0, 0.5)

    def test_D_a_three_cases(self):
        assert D_a(10.0, 1.0, 1.0) == 1.0
        assert D_a(10.0, 0.0, 1.0) == pytest.approx(math.log(13.0), rel=1e-13)
        assert D_a(10.0, -0.5, 1.0) == pytest.approx(math.sqrt(12.0), rel=1e-13)
        for T, R in ((-1.0, 1.0), (1.0, 0.5)):
            with pytest.raises(ValueError, match="need T >= 0, R >= 1"):
                D_a(T, -0.5, R)


class TestSeries:
    def test_S_p2_closed_form_at_two(self):
        assert abs(S_p2(2.0) - 4.0 / 9.0) < 1e-12
        for p in (1.0, 0.5):
            with pytest.raises(ValueError, match="p must exceed 1"):
                S_p2(p)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_S_p2_against_partial_sums(self, p):
        oracle = sum(j * p ** (-2 * j) for j in range(1, 2000))
        assert S_p2(p) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("p", [1 + 1.6e-8, 1 + 3e-7, 1.001])
    def test_S_p2_near_one_against_exact_value(self, p):
        # p^2 - 1 in floats cancels here: 2.1e-9, 2.4e-10 and 8.2e-14 relative
        P = Fraction(p)
        exact = P**2 / (P**2 - 1) ** 2
        assert abs(Fraction(S_p2(p)) - exact) <= Fraction(1, 10**15) * exact

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_S_p2_where_p_squared_minus_1_is_exact(self, p):
        assert S_p2(p) == p**2 / (p**2 - 1) ** 2

    @pytest.mark.parametrize("p", [1 + 1.6e-8, 1 + 3e-7, 1.001])
    def test_k1_minorant_near_one_against_exact_arithmetic(self, p):
        # every log is the float one k1_minorant takes; the rest is exact
        t0, M1 = math.exp(4.0), 0.01
        P = Fraction(p)
        S = P**2 / (P**2 - 1) ** 2
        exact = (
            Fraction(math.log(0.5 * math.log(t0))) / (P - 1)
            + Fraction(_log_C1(p, 0.0, 0.0)) / (P**2 - 1)
            - S * 2 * P * Fraction(math.log(p))
            + Fraction(math.log(M1))
        )
        k = k1_minorant(t0, ModelParams(p, 0.0, 0.0, 0.1), M1)
        assert abs(Fraction(k) - exact) <= Fraction(1, 10**15) * abs(exact)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_n_recursion_matches_closed_form(self, p):
        assert a_n_closed_form(p, 1) == 0
        a_n = Fraction(0)
        for n in range(1, 13):
            assert a_n == a_n_closed_form(p, n)
            a_n = Fraction(p) ** 2 * a_n + p + 1


def _C0(a, b):
    return 3.0 ** (-abs(a)) * 2.0 ** (-abs(b)) / (8.0 * math.sqrt(2.0))


class TestConstants:
    def test_C1(self):
        assert math.exp(_log_C1(2.0, 0.0, 0.0)) == pytest.approx(_C0(0.0, 0.0) ** 3, rel=1e-14)
        assert math.exp(_log_C1(3.0, 0.5, -1.0)) == pytest.approx(_C0(0.5, -1.0) ** 4 * 8.0, rel=1e-14)

    def test_C2_relation_and_domain(self):
        p, a, b = 2.0, -0.5, -3.0
        q = -(p * (1 + a) + b)
        assert math.exp(_log_C2(p, a, b)) == pytest.approx(
            _C0(a, b) ** (p + 1) * (p - 1) ** p / (2 ** (p + 1) * q ** (p + 1)), rel=1e-14
        )
        with pytest.raises(ValueError, match="C2 requires"):
            _log_C2(2.0, 0.0, 0.0)


class TestBlowupSequence:
    def test_states_carry_no_constant(self):
        # C1 follows from (p, a, b) of the params the sequence takes
        assert {f.name for f in fields(BlowupSequenceState)} == {"n", "a_n", "log_M_n"}

    def test_states_follow_both_recursions(self):
        p, a, b, M1 = 2, 0.5, -3.0, 0.01
        states = blowup_sequence(ModelParams(p, a, b, 0.1), 8, M1)
        log_C1 = math.log(_C0(a, b) ** (p + 1) * (p - 1) ** p)
        for s in states:
            assert s.a_n == a_n_closed_form(p, s.n)
        for prev, cur in zip(states, states[1:]):
            expected = log_C1 - 2 * p * prev.n * math.log(p) + p**2 * prev.log_M_n
            assert cur.log_M_n == pytest.approx(expected, rel=1e-12)

    def test_small_M1_collapses_doubly_exponentially(self):
        states = blowup_sequence(ModelParams(2, 0.0, 0.0, 0.1), 10, 1e-4)
        logs = [s.log_M_n for s in states]
        assert logs[-1] < -1e5
        # |log M_n| roughly quadruples each step once the p^2 term dominates
        assert logs[-1] / logs[-2] == pytest.approx(4.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            blowup_sequence(ModelParams(1.0, 0.0, 0.0, 0.1), 5, 0.1)
        with pytest.raises(ValueError):
            blowup_sequence(ModelParams(2.0, 0.0, 0.0, 0.1), 5, -0.1)
        with pytest.raises(ValueError, match="must be finite"):
            blowup_sequence(ModelParams(2.0, 0.0, math.nan, 0.1), 5, 0.1)


class TestThresholdAlgebra:
    def test_k1_minorant_is_log_of_con1(self, rng):
        for _ in range(100):
            p = rng.uniform(1.3, 3.5)
            t0 = rng.uniform(20.0, 1e4)
            M1 = 10.0 ** rng.uniform(-8, 2)
            a = 1.5 - rng.uniform(0.0, 1.5)  # in (0, 1.5], with Case 1's b = -p(1+a)
            params = ModelParams(p, a, -p * (1 + a), 0.1)
            lhs = con1_lhs(t0, params, M1)
            assert k1_minorant(t0, params, M1) == pytest.approx(
                math.log(lhs) / (p - 1), rel=1e-12, abs=1e-12
            )

    def test_k2_minorant_is_log_of_con2(self, rng):
        for _ in range(100):
            p = rng.uniform(1.3, 3.5)
            a = rng.uniform(-1.5, -0.6)
            b = rng.uniform(-6.0, -p - 0.5)
            if -(p * (1 + a) + b) <= 0:
                continue
            t0 = rng.uniform(20.0, 1e4)
            M1 = 10.0 ** rng.uniform(-8, 2)
            params = ModelParams(p, a, b, 0.1)
            lhs = con2_lhs(t0, params, M1)
            assert k2_minorant(t0, params, M1) == pytest.approx(
                math.log(lhs) / (p - 1), rel=1e-12, abs=1e-12
            )

    def test_K1_dominates_minorant(self):
        params = ModelParams(2.0, 0.5, -3.0, 0.1, 1.0)
        for t0 in (20.0, 50.0, 200.0):
            assert K1(t0 / 2.0, t0, params, 0.01) >= k1_minorant(t0, params, 0.01) - 1e-12

    def test_K2_dominates_minorant(self):
        params = ModelParams(2.0, -0.5, -3.0, 0.1, 1.0)
        for t0 in (20.0, 50.0, 200.0):
            assert K2(t0 / 2.0, t0, params, 0.01) >= k2_minorant(t0, params, 0.01) - 1e-12

    @pytest.mark.parametrize("x, t, R", [(5.0, 20.0, 1.0), (0.0, 40.0, 2.5)])
    def test_K1_and_K2_take_their_constant_from_p_a_b(self, x, t, R):
        p, M1 = 2.0, 0.01
        tail = -S_p2(p) * math.log(p ** (2 * p)) + math.log(M1)
        params = ModelParams(p, 0.5, -3.0, 0.1, R)
        lead = math.log(math.log((1.0 + t - x) / (1.0 + R))) / (p - 1)
        expected = lead + _log_C1(p, 0.5, -3.0) / (p**2 - 1) + tail
        assert K1(x, t, params, M1) == pytest.approx(expected, rel=1e-12)
        params = ModelParams(p, -0.5, -3.0, 0.1, R)
        lead = 2.0 * math.log(1.0 + t - x) / (p - 1)  # q = -(p(1+a)+b) = 2
        expected = lead + _log_C2(p, -0.5, -3.0) / (p**2 - 1) + tail
        assert K2(x, t, params, M1) == pytest.approx(expected, rel=1e-12)

    def test_region_checks(self):
        params = ModelParams(2.0, 0.5, -3.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            K1(5.0, 1.0, params, 0.1)  # outside t - |x| >= R
        with pytest.raises(ValueError, match="for the double logarithm"):
            K1(5.0, 6.0, params, 0.1)  # in D, but 1+t-x = 1+R
        params2 = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            K2(0.0, 10.0, params2, 0.1)  # q <= 0
        with pytest.raises(ValueError, match="outside D_{a,b}"):
            K2(0.0, 1.5, ModelParams(2.0, -0.5, -3.0, 0.1, 1.0), 0.1)  # 2.5 < 2^(1/2) * 2
        with pytest.raises(ValueError, match="outside D_{a,b}"):
            K2(5.0, 20.0, ModelParams(2.0, -0.5, -1.0005, 0.1, 1.0), 0.01)  # 2^(1/q) overflows
        for K in (K1, K2):
            with pytest.raises(ValueError, match="need R >= 1"):
                K(0.0, 10.0, ModelParams(2.0, -0.5, -3.0, 0.1, 0.5), 0.1)

    @pytest.mark.parametrize(
        "params, Cg",
        [
            (ModelParams(2.0, -0.5, -3.0, 0.1, 1.0), 0.9),
            (ModelParams(3.0, -0.5, -3.0, 0.1, 1.0), 1e-300),  # B underflows to 0
        ],
    )
    def test_epsilon_thresholds_back_substitution(self, params, Cg):
        # 2 B (1+R)^2 eps3^(p(p-1)) = 1 and B (2^(1/q) (1+R) - 1/2) eps4^(p(p-1)/q) = 1, in logs
        p, R = params.p, params.R
        eps3, eps4 = epsilon_thresholds(params, Cg)
        log_p_power = -2.0 * p * S_p2(p) * (p - 1) * math.log(p)
        log_B = _log_C1(p, params.a, params.b) / (p + 1) + log_p_power + (p - 1) * math.log(Cg)
        log_eps3 = -(math.log(2.0) + log_B + 2.0 * math.log(1.0 + R)) / (p * (p - 1))
        assert math.log(eps3) == pytest.approx(log_eps3, rel=1e-12)
        q = -(p * (1 + params.a) + params.b)
        log_radicand = log_B + math.log(2.0 ** (1.0 / q) * (1.0 + R) - 0.5)
        assert math.log(eps4) == pytest.approx(-q * log_radicand / (p * (p - 1)), rel=1e-12)

    def test_eps4_absent_without_case2(self):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        eps3, eps4 = epsilon_thresholds(params, 1.0)
        assert eps3 > 0
        assert eps4 is None
        with pytest.raises(ValueError, match="Cg must be positive"):
            epsilon_thresholds(params, 0.0)
        with pytest.raises(ValueError, match="need R >= 1"):
            epsilon_thresholds(ModelParams(2.0, 0.0, 0.0, 0.1, 0.5), 1.0)

    @pytest.mark.parametrize(
        "a, b, rel",
        [(-0.5, -1.0005, 1e-2), (-0.5, -1.0 - 1e-12, 1e-10), (-1.0, -5e-324, 1e-15)],
    )
    def test_eps4_tends_to_its_q_to_0_limit(self, a, b, rel):
        # at q = 5e-4 and below, 2^(1/q) overflows
        p = 2.0
        assert 0 < -(p * (1 + a) + b) < 1e-3
        eps3, eps4 = epsilon_thresholds(ModelParams(p, a, b, 0.1, 1.0), 1.0)
        assert math.isfinite(eps3)
        assert eps4 == pytest.approx(2.0 ** (-1.0 / (p * (p - 1))), rel=rel)

    @pytest.mark.parametrize("p", [1.0, 0.5])
    def test_every_blowup_function_names_p_at_most_1(self, p):
        params = ModelParams(p, -0.5, -3.0, 0.1, 1.0)
        calls = [
            lambda: K1(2.0, 10.0, params, 0.01),
            lambda: K2(2.0, 10.0, params, 0.01),
            lambda: con1_lhs(100.0, params, 0.01),
            lambda: con2_lhs(100.0, params, 0.01),
            lambda: k1_minorant(100.0, params, 0.01),
            lambda: k2_minorant(100.0, params, 0.01),
            lambda: epsilon_thresholds(params, 1.0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="p must exceed 1"):
                call()

    def test_large_q_lead_saturates_con2_and_stays_finite_in_k2(self):
        p, a, b, M1, t0 = 2.0, -0.5, -1000.0, 0.01, 1e4
        params = ModelParams(p, a, b, 0.1)
        assert con2_lhs(t0, params, M1) == math.inf  # (t0/2)^999 overflows
        q = -(p * (1 + a) + b)
        log_C2 = (p + 1) * (math.log(_C0(a, b)) - math.log(2 * q))  # (p-1)^p = 1; C2 underflows
        expected = q * math.log(t0 / 2) + log_C2 / 3 - S_p2(p) * math.log(16.0) + math.log(M1)
        assert k2_minorant(t0, params, M1) == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.floats(min_value=1.0, max_value=200.0, exclude_min=True),
        a=st.floats(min_value=-1e3, max_value=1e3),
        b=st.floats(min_value=-1e3, max_value=1e3),
        R=WIDE, M1=WIDE, Cg=WIDE, t0=WIDE,
    )
    def test_every_threshold_function_returns_a_float_or_raises_value_error(
        self, p, a, b, R, M1, Cg, t0
    ):
        params = ModelParams(p, a, b, 0.1, R)
        calls = [
            lambda: K1(t0 / 2, t0, params, M1),
            lambda: K2(t0 / 2, t0, params, M1),
            lambda: con1_lhs(t0, params, M1),
            lambda: con2_lhs(t0, params, M1),
            lambda: k1_minorant(t0, params, M1),
            lambda: k2_minorant(t0, params, M1),
            lambda: epsilon_thresholds(params, Cg),
        ]
        for call in calls:
            try:
                out = call()
            except ValueError:
                continue
            for v in out if isinstance(out, tuple) else (out,):
                assert v is None or isinstance(v, float) and not math.isnan(v)


def _ln(x) -> Decimal:
    return Decimal(x).ln()


def _decimal_K(lead, p, log_C, M1) -> Decimal:
    """lead/(p-1) + log C/(p^2-1) - S_p2(p) 2p log p + log M1, in the current context."""
    p = Decimal(p)
    S = p**2 / (p**2 - 1) ** 2
    return lead / (p - 1) + log_C / (p**2 - 1) - S * 2 * p * _ln(p) + _ln(M1)


def _decimal_log_C1(p, a, b) -> Decimal:
    log_C0 = -abs(Decimal(a)) * _ln(3) - abs(Decimal(b)) * _ln(2) - Decimal("3.5") * _ln(2)
    return (Decimal(p) + 1) * log_C0 + Decimal(p) * _ln(Decimal(p) - 1)


class TestLargeP:
    """Past p of about 82, p^{2p} leaves the float range, past 144 so does
    (p-1)^p, and C0^{p+1} underflows at large p and |b|: every threshold
    takes them as logarithms.  References are 40-digit decimals."""

    def test_k1_minorant_where_p_to_the_2p_overflows(self):
        with localcontext() as ctx:
            ctx.prec = 40
            ref = _decimal_K(_ln(_ln(100) / 2), 90, _decimal_log_C1(90, 0, 0), 0.01)
        assert k1_minorant(100.0, ModelParams(90.0, 0.0, 0.0, 0.1), 0.01) == pytest.approx(
            float(ref), rel=1e-13
        )

    @pytest.mark.parametrize(
        "p, a, b",
        [
            (250, 0, 0),  # C1 = exp(770.4) overflows
            (3, 0, -266),  # C1 = exp(-745.1) underflows to 0
            (90, 0.5, -135),  # C1 = exp(-8382) underflows to 0
        ],
    )
    def test_k1_minorant_and_con1_where_C1_leaves_the_float_range(self, p, a, b):
        params = ModelParams(p, a, b, 0.1)
        with localcontext() as ctx:
            ctx.prec = 40
            lead, log_C1 = _ln(_ln(100) / 2), _decimal_log_C1(p, a, b)
            k_ref = _decimal_K(lead, p, log_C1, 0.01)
            # con1 = exp((p-1) k1), taken at M1 = 1, where it is a normal float
            con_ref = ((p - 1) * _decimal_K(lead, p, log_C1, 1)).exp()
        assert k1_minorant(100.0, params, 0.01) == pytest.approx(float(k_ref), rel=1e-13)
        assert con1_lhs(100.0, params, 1.0) == pytest.approx(float(con_ref), rel=1e-13)

    def test_k2_minorant_where_C2_underflows(self):
        p, a, b, q = 3, 0, -266, 263  # C2 = exp(-770.2)
        with localcontext() as ctx:
            ctx.prec = 40
            log_C2 = _decimal_log_C1(p, a, b) - (p + 1) * _ln(2 * q)
            ref = _decimal_K(q * _ln(50), p, log_C2, 0.01)
        assert k2_minorant(100.0, ModelParams(p, a, b, 0.1), 0.01) == pytest.approx(float(ref), rel=1e-13)

    def test_epsilon_thresholds_where_p_minus_1_to_the_p_overflows(self):
        p, R, Cg = 150, 1, 1.0
        with localcontext() as ctx:
            ctx.prec = 40
            P = Decimal(p)
            S = P**2 / (P**2 - 1) ** 2
            log_B = _decimal_log_C1(p, 0, 0) / (P + 1) - 2 * P * S * (P - 1) * _ln(P) + (P - 1) * _ln(Cg)
            ref = (-(_ln(2) + log_B + 2 * _ln(1 + R)) / (P * (P - 1))).exp()
            C1 = _decimal_log_C1(p, 0, 0).exp()
        eps3, eps4 = epsilon_thresholds(ModelParams(p, 0, 0, 0.1, R), Cg)
        assert eps3 == pytest.approx(float(ref), rel=1e-13)
        assert eps4 is None
        assert math.exp(_log_C1(150, 0, 0)) == pytest.approx(float(C1), rel=1e-12)  # about 7.6e166

    def test_K1_where_C1_underflows(self):
        p, a, b = 90, 0.5, -135  # p(1+a)+b = 0, and C0^91 is below 1e-308
        assert math.exp(_log_C1(p, a, b)) == 0.0
        with localcontext() as ctx:
            ctx.prec = 40
            ref = _decimal_K(_ln(_ln(Decimal(51) / 2)), p, _decimal_log_C1(p, a, b), 0.01)
        assert K1(50, 100, ModelParams(p, a, b, 0.1, 1), 0.01) == pytest.approx(float(ref), rel=1e-13)


class TestTables:
    def test_dt_table_tracks_classifier(self):
        label, exponent = dt_table(2, -0.5, 0.0)
        assert "eps^-(p-1)/(-a)" in label
        assert exponent == pytest.approx(2.0)
        assert dt_table(2, 1.0, 0.0) == (INFTY, None)

    def test_u_nonzero_entries(self):
        assert u_nonzero_table(2, 0, 0)[0] == "exp(C eps^-(p-1)/2)"
        with pytest.raises(ValueError, match="p must exceed 1"):
            u_nonzero_table(1, 0, 0)
        assert u_nonzero_table(2, -0.5, 0)[0].startswith("phi^-1")
        assert u_nonzero_table(2, -0.5, 1.0)[1] == pytest.approx(2.0)
        assert u_nonzero_table(2, 1.0, 1.0) == (INFTY, None)
        assert u_nonzero_table(2, -1.0, -1.0)[1] == pytest.approx(0.5)

    def test_u_zero_entries(self):
        assert u_zero_table(2, 0, 0)[0] == "exp(C eps^-p(p-1)/(p+1))"
        assert u_zero_table(2, 0.5, -0.5) == ("exp(C eps^-p(p-1))", None)
        with pytest.raises(ValueError, match="p must exceed 1"):
            u_zero_table(1, 0, 0)
        assert u_zero_table(2, -0.5, 0)[0].startswith("psi1^-1")
        assert u_zero_table(2, 0, -1.0)[0].startswith("psi2^-1")
        assert u_zero_table(2, -0.5, -0.5)[1] == pytest.approx(2.0 / 1.5)
        assert u_zero_table(2, 0.5, -2.0)[1] == pytest.approx(2.0 / 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.fractions(min_value=-3, max_value=3),
        b=st.fractions(min_value=-6, max_value=3),
    )
    def test_u_tables_total(self, a, b):
        for table in (u_nonzero_table, u_zero_table):
            label, exponent = table(Fraction(2), a, b)
            assert isinstance(label, str)

    def test_phase_diagram_exact_boundaries(self):
        rows = phase_diagram(2, (-1, 1), (-3, 1), 5, 5, mode="dt_table")
        cells = {(a, b): label for a, b, label, _ in rows}
        # boundary line p(1+a)+b = 0 with a > 0: (a, b) = (1/2, -3)
        assert cells[(Fraction(1, 2), Fraction(-3))] == "exp(C eps^-p(p-1))"
        assert cells[(Fraction(0), Fraction(0))] == "exp(C eps^-(p-1))"
        assert cells[(Fraction(1), Fraction(1))] == INFTY
        assert cells[(Fraction(-1, 2), Fraction(-2))].startswith("C eps^-(p-1)")

    def test_phase_diagram_csv_and_validation(self):
        rows = phase_diagram(2, (-1, 1), (-1, 1), 3, 3)
        text = phase_diagram_csv(rows)
        assert text.splitlines()[0] == "a,b,label,exponent"
        assert len(text.splitlines()) == 10
        with pytest.raises(ValueError):
            phase_diagram(2, (-1, 1), (-1, 1), 1, 3)
        with pytest.raises(ValueError):
            phase_diagram(2, (-1, 1), (-1, 1), 3, 3, mode="bogus")
