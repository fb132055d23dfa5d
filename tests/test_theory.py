import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavelifespan.core import ModelParams, RegimeKind
from wavelifespan.theory import (
    C0_constant,
    C1_constant,
    C2_constant,
    D_a,
    E_ab,
    INFTY,
    K1,
    K2,
    S_p2,
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


class TestSeries:
    def test_S_p2_closed_form_at_two(self):
        assert abs(S_p2(2.0) - 4.0 / 9.0) < 1e-12

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5, 3.0])
    def test_S_p2_against_partial_sums(self, p):
        oracle = sum(j * p ** (-2 * j) for j in range(1, 2000))
        assert S_p2(p) == pytest.approx(oracle, rel=1e-13)

    @pytest.mark.parametrize("p", [2, 3])
    def test_a_n_recursion_matches_closed_form(self, p):
        assert a_n_closed_form(p, 1) == 0
        a_n = Fraction(0)
        for n in range(1, 13):
            assert a_n == a_n_closed_form(p, n)
            a_n = Fraction(p) ** 2 * a_n + p + 1


class TestConstants:
    def test_C0_and_C1(self):
        assert C0_constant(0.0, 0.0) == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)), rel=1e-14)
        assert C1_constant(2.0, 0.0, 0.0) == pytest.approx(C0_constant(0, 0) ** 3, rel=1e-14)
        assert C1_constant(3.0, 0.5, -1.0) == pytest.approx(
            C0_constant(0.5, -1.0) ** 4 * 8.0, rel=1e-14
        )

    def test_C2_relation_and_domain(self):
        p, a, b = 2.0, -0.5, -3.0
        q = -(p * (1 + a) + b)
        assert C2_constant(p, a, b) == pytest.approx(
            C1_constant(p, a, b) / (2 ** (p + 1) * q ** (p + 1)), rel=1e-14
        )
        with pytest.raises(ValueError):
            C2_constant(2.0, 0.0, 0.0)


class TestBlowupSequence:
    def test_states_follow_both_recursions(self):
        p, M1 = 2, 0.01
        states = blowup_sequence(p, 8, M1)
        C1 = states[0].C1
        for s in states:
            assert s.a_n == a_n_closed_form(p, s.n)
        for prev, cur in zip(states, states[1:]):
            expected = math.log(C1) - 2 * p * prev.n * math.log(p) + p**2 * prev.log_M_n
            assert cur.log_M_n == pytest.approx(expected, rel=1e-12)

    def test_small_M1_collapses_doubly_exponentially(self):
        states = blowup_sequence(2, 10, 1e-4)
        logs = [s.log_M_n for s in states]
        assert logs[-1] < -1e5
        # |log M_n| roughly quadruples each step once the p^2 term dominates
        assert logs[-1] / logs[-2] == pytest.approx(4.0, rel=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            blowup_sequence(1.0, 5, 0.1)
        with pytest.raises(ValueError):
            blowup_sequence(2.0, 5, -0.1)


class TestThresholdAlgebra:
    def test_k1_minorant_is_log_of_con1(self, rng):
        for _ in range(100):
            p = rng.uniform(1.3, 3.5)
            t0 = rng.uniform(20.0, 1e4)
            M1 = 10.0 ** rng.uniform(-8, 2)
            C1 = 10.0 ** rng.uniform(-6, 1)
            lhs = con1_lhs(t0, p, M1, C1)
            assert k1_minorant(t0, p, M1, C1) == pytest.approx(
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
            C2 = 10.0 ** rng.uniform(-6, 1)
            lhs = con2_lhs(t0, p, a, b, M1, C2)
            assert k2_minorant(t0, p, a, b, M1, C2) == pytest.approx(
                math.log(lhs) / (p - 1), rel=1e-12, abs=1e-12
            )

    def test_K1_dominates_minorant(self):
        params = ModelParams(2.0, 0.5, -3.0, 0.1, 1.0)
        for t0 in (20.0, 50.0, 200.0):
            M1, C1 = 0.01, C1_constant(2.0, 0.5, -3.0)
            assert K1(t0 / 2.0, t0, params, M1, C1) >= k1_minorant(t0, 2.0, M1, C1) - 1e-12

    def test_K2_dominates_minorant(self):
        params = ModelParams(2.0, -0.5, -3.0, 0.1, 1.0)
        for t0 in (20.0, 50.0, 200.0):
            M1, C2 = 0.01, C2_constant(2.0, -0.5, -3.0)
            assert K2(t0 / 2.0, t0, params, M1, C2) >= k2_minorant(
                t0, 2.0, -0.5, -3.0, M1, C2
            ) - 1e-12

    def test_region_checks(self):
        params = ModelParams(2.0, 0.5, -3.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            K1(5.0, 1.0, params, 0.1)  # outside t - |x| >= R
        params2 = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            K2(0.0, 10.0, params2, 0.1)  # q <= 0

    def test_epsilon_thresholds_back_substitution(self):
        params = ModelParams(2.0, -0.5, -3.0, 0.1, 1.0)
        p, R = params.p, params.R
        Cg, C1 = 0.9, C1_constant(p, params.a, params.b)
        eps3, eps4 = epsilon_thresholds(params, Cg, C1)
        S = S_p2(p)
        B = C1 ** (1.0 / (p + 1)) * p ** (-2.0 * p * S * (p - 1)) * Cg ** (p - 1)
        assert 2.0 * B * (1.0 + R) ** 2 * eps3 ** (p * (p - 1)) == pytest.approx(1.0, rel=1e-12)
        q = -(p * (1 + params.a) + params.b)
        assert B * (2.0 ** (1.0 / q) * (1.0 + R) - 0.5) * eps4 ** (
            p * (p - 1) / q
        ) == pytest.approx(1.0, rel=1e-12)

    def test_eps4_absent_without_case2(self):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        eps3, eps4 = epsilon_thresholds(params, 1.0, C1_constant(2.0, 0.0, 0.0))
        assert eps3 > 0
        assert eps4 is None


class TestTables:
    def test_dt_table_tracks_classifier(self):
        label, exponent = dt_table(2, -0.5, 0.0)
        assert "eps^-(p-1)/(-a)" in label
        assert exponent == pytest.approx(2.0)
        assert dt_table(2, 1.0, 0.0) == (INFTY, None)

    def test_u_nonzero_entries(self):
        assert u_nonzero_table(2, 0, 0)[0] == "exp(C eps^-(p-1)/2)"
        assert u_nonzero_table(2, -0.5, 0)[0].startswith("phi^-1")
        assert u_nonzero_table(2, -0.5, 1.0)[1] == pytest.approx(2.0)
        assert u_nonzero_table(2, 1.0, 1.0) == (INFTY, None)
        assert u_nonzero_table(2, -1.0, -1.0)[1] == pytest.approx(0.5)

    def test_u_zero_entries(self):
        assert u_zero_table(2, 0, 0)[0] == "exp(C eps^-p(p-1)/(p+1))"
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
