import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavelifespan
from wavelifespan import solver
from wavelifespan.core import (
    Cause,
    Family,
    GridSpec,
    InitialData,
    ModelParams,
    RegimeKind,
    Status,
    default_blow_threshold,
)
from wavelifespan.kernels import (
    CharAccumulator,
    duhamel_Lprime,
    field_sampler,
    free_solution_dt,
    weight_w,
)
from wavelifespan.solver import (
    _masked_weighted_sup,
    _solve_level,
    apply_duhamel_field,
    dump_field_csv,
    march,
    pde_residual,
    picard_iterate,
    reconstruct_u,
)
from wavelifespan.theory import classify_regime


@st.composite
def exponents_in(draw, kind):
    """(p, a, b) drawn inside one lifespan regime of the classifier."""
    p = draw(st.floats(1.5, 3.0))
    if kind is RegimeKind.global_:
        a = draw(st.floats(0.1, 1.5))
        b = draw(st.floats(-p * (1.0 + a) + 0.1, 1.0))
    elif kind is RegimeKind.exp_p_minus_1:
        a, b = 0.0, draw(st.floats(-p, 1.0))
    elif kind is RegimeKind.exp_p_p_minus_1:
        a = draw(st.floats(0.1, 1.5))
        b = -p * (1.0 + a)  # p(1+a) + b == 0 exactly
    elif kind is RegimeKind.poly_a:
        a, b = draw(st.floats(-1.5, -0.1)), draw(st.floats(-p, 1.0))
    else:
        a = draw(st.floats(-1.5, 1.5))
        b = min(-p, -p * (1.0 + a)) - draw(st.floats(0.1, 2.0))
    return p, a, b


class TestSolveLevel:
    def test_quadratic_root_closed_form(self):
        # z = base + gamma z^2 has root (1 - sqrt(1-4*gamma*base)) / (2*gamma)
        base = np.array([0.1, 0.4, 0.7])
        gamma = np.array([0.3, 0.2, 0.05])
        z, cause = _solve_level(base, gamma, 2.0, 1e-14, 50, 1e6)
        exact = (1.0 - np.sqrt(1.0 - 4.0 * gamma * base)) / (2.0 * gamma)
        assert cause is None
        assert np.allclose(z, exact, rtol=1e-12)

    def test_negative_base(self):
        # odd nonlinearity: |z|^p with z < 0 still has a unique small root
        base = np.array([-0.3])
        gamma = np.array([0.1])
        z, cause = _solve_level(base, gamma, 2.0, 1e-14, 50, 1e6)
        assert cause is None
        assert z[0] == pytest.approx(base[0] + gamma[0] * z[0] ** 2, abs=1e-12)

    def test_past_the_fold_is_blowup(self):
        # for p=2 no root exists once base > 1/(4*gamma)
        base = np.array([2.0])
        gamma = np.array([0.2])
        z, cause = _solve_level(base, gamma, 2.0, 1e-14, 50, 1e6)
        assert cause is Cause.no_root

    def test_slow_root_near_fold_found(self):
        # base just below the fold, where the fixed-point map barely contracts:
        # Newton from z = base still reaches the root within inner_max steps
        gamma = np.array([0.25])
        cap = 1.0 / (4.0 * gamma[0])
        base = np.array([cap * 0.9999])
        z, cause = _solve_level(base, gamma, 2.0, 1e-13, 50, 1e6)
        assert cause is None
        assert z[0] == pytest.approx(base[0] + gamma[0] * z[0] ** 2, rel=1e-10)

    @staticmethod
    def _residual(z, base, gamma, p):
        return np.abs(base + gamma * np.abs(z) ** p - z) / np.maximum(1.0, np.abs(z))

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_non_integer_and_cubic_powers(self, p):
        gamma = np.array([0.3, 0.05, 1.0, 0.2])
        cap = (p * gamma) ** (-1.0 / (p - 1.0)) * (1.0 - 1.0 / p)
        base = np.array([0.5, 0.9, 0.99, -2.0]) * np.where(np.arange(4) < 3, cap, 1.0)
        z, cause = _solve_level(base, gamma, p, 1e-13, 50, 1e6)
        assert cause is None
        assert np.all(self._residual(z, base, gamma, p) <= 1e-12)

    def test_mixed_sign_base(self):
        # p = 2: the smallest root (1 - sqrt(1 - 4 gamma base)) / (2 gamma) for either sign
        base = np.array([-3.0, -0.5, -1e-8, 0.0, 1e-8, 0.3, 0.9])
        gamma = np.full(base.shape, 0.25)
        z, cause = _solve_level(base, gamma, 2.0, 1e-14, 50, 1e6)
        exact = (1.0 - np.sqrt(1.0 - 4.0 * gamma * base)) / (2.0 * gamma)
        assert cause is None
        assert np.allclose(z, exact, rtol=1e-12, atol=1e-15)
        assert np.all(np.sign(z) == np.sign(base))

    def test_convergence_is_per_node(self):
        # a 1e3-scale node must not loosen the 1e-3-scale node's tolerance
        base = np.array([900.0, 1e-3])
        gamma = np.array([1e-4, 0.3])
        tol = 1e-14
        z, cause = _solve_level(base, gamma, 2.0, tol, 50, 1e6)
        assert cause is None
        assert z[0] > 900.0 and z[1] < 2e-3
        resid = np.abs(base + gamma * z**2 - z)
        assert resid[0] <= tol * abs(z[0])
        assert resid[1] <= tol

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_fold_edge(self, p):
        gamma = np.array([0.25])
        cap = (p * gamma) ** (-1.0 / (p - 1.0)) * (1.0 - 1.0 / p)
        z, cause = _solve_level(cap * (1.0 - 1e-9), gamma, p, 1e-12, 50, 1e6)
        assert cause is None
        assert self._residual(z, cap * (1.0 - 1e-9), gamma, p)[0] <= 1e-12
        _, cause = _solve_level(cap * (1.0 + 1e-9), gamma, p, 1e-12, 50, 1e6)
        assert cause is Cause.no_root

    def test_threshold_and_non_finite_are_blowup(self):
        gamma = np.array([1e-9])
        _, cause = _solve_level(np.array([5e3]), gamma, 2.0, 1e-12, 50, 1e3)
        assert cause is Cause.threshold_exceeded
        _, cause = _solve_level(np.array([0.1, np.nan]), np.array([0.1, 0.1]), 2.0, 1e-12, 50, 1e6)
        assert cause is Cause.threshold_exceeded

    def test_exhausted_inner_max_is_failed(self):
        # near the fold Newton needs more than two steps
        gamma = np.array([0.25])
        _, cause = _solve_level(np.array([0.999]), gamma, 2.0, 1e-14, 2, 1e6)
        assert cause is Cause.inner_max_exhausted



class TestMaskedWeightedSup:
    """sup |w U| over the last axis, with w*0 taken as 0 where w is infinite."""

    def test_one_dimensional(self):
        U = np.array([1.0, -2.0, 0.5])
        assert _masked_weighted_sup(U, np.array([0.5, 0.25, 3.0])) == 1.5
        # an infinite weight on a zero node adds 0
        assert _masked_weighted_sup(U * [0.0, 1.0, 1.0], np.array([np.inf, 0.25, 3.0])) == 1.5
        assert _masked_weighted_sup(np.zeros(2), np.array([np.inf, 2.0])) == 0.0
        # on a nonzero node it is the sup
        assert _masked_weighted_sup(U, np.array([np.inf, 0.25, 3.0])) == np.inf
        assert _masked_weighted_sup(np.zeros(0), np.zeros(0)) == 0.0

    def test_rows_of_a_block(self):
        U = np.array([[1.0, -2.0, 0.5], [0.0, -2.0, 0.5], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        w = np.array([[0.5, 0.25, 3.0], [np.inf, 0.25, 3.0], [np.inf, 1.0, 1.0], [np.inf, 1.0, 1.0]])
        assert np.array_equal(_masked_weighted_sup(U, w), [1.5, 1.5, 0.0, np.inf])
        # finite w takes the unmasked product
        assert np.array_equal(_masked_weighted_sup(U[:1], w[:1]), [1.5])
        assert np.array_equal(_masked_weighted_sup(np.zeros((2, 0)), np.zeros((2, 0))), [0.0, 0.0])


class TestGoldenLifespan:
    """Status, T_blow and level count of fixed marches, pinned to their first recorded values."""

    @pytest.mark.parametrize(
        "p, a, b, eps, h, amplitudes, t_max, T_blow, n_sup",
        [
            (2.0, -0.5, 0.0, 0.35, 0.05, None, 80.0, 69.975, 1401),
            (2.0, -0.5, -3.0, 0.35, 0.05, None, 20.0, 12.975, 261),
            (3.0, -1.0, -1.0, 0.5, 0.025, None, 20.0, 14.0875, 565),
            (2.0, -0.5, 0.0, 0.35, 0.025, (0.7, 1.0), 40.0, 29.8625, 1196),
            (1.5, -0.5, 0.0, 0.6, 0.05, None, 40.0, 29.275, 587),
        ],
    )
    def test_pinned_blowup(self, p, a, b, eps, h, amplitudes, t_max, T_blow, n_sup):
        if amplitudes is None:
            data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        else:
            data = InitialData(Family.bump_pair, *amplitudes, 1.0)
        grid = GridSpec(h=h, t_max=t_max, pad=1.0)
        _, est = march(ModelParams(p, a, b, eps, 1.0), data, grid, keep_field=False)
        assert est.status is Status.blowup
        assert est.T_blow == pytest.approx(T_blow, abs=1e-12)
        assert len(est.sup_history) == n_sup



class TestGoldenSupHistory:
    """sup |U| of the marches of TestGoldenLifespan at level 1, at the middle
    level and at the last resolved one, pinned to their first recorded values."""

    @pytest.mark.parametrize(
        "p, a, b, eps, h, amplitudes, t_max, n_done, sups",
        [
            (2.0, -0.5, 0.0, 0.35, 0.05, None, 80.0, 1399,
             (0.351028425635829, 0.5685498214638842, 199.53379789658806)),
            (2.0, -0.5, -3.0, 0.35, 0.05, None, 20.0, 259,
             (0.3575084211386166, 0.27978510144302415, 0.35405091426450525)),
            (3.0, -1.0, -1.0, 0.5, 0.025, None, 20.0, 563,
             (0.5022000349068099, 0.3683039920448566, 3.668598763234732)),
            (2.0, -0.5, 0.0, 0.35, 0.025, (0.7, 1.0), 40.0, 1194,
             (0.3142857040229478, 0.9122838020281137, 290.8365105104337)),
            (1.5, -0.5, 0.0, 0.6, 0.05, None, 40.0, 585,
             (0.6094984300080678, 2.872113028491225, 21855.92996955254)),
        ],
    )
    def test_pinned_sups(self, p, a, b, eps, h, amplitudes, t_max, n_done, sups):
        if amplitudes is None:
            data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        else:
            data = InitialData(Family.bump_pair, *amplitudes, 1.0)
        grid = GridSpec(h=h, t_max=t_max, pad=1.0)
        field, est = march(ModelParams(p, a, b, eps, 1.0), data, grid, keep_field=False)
        assert field.n_levels_done == n_done
        got = [est.sup_history[n] for n in (1, n_done // 2, n_done)]
        assert got == pytest.approx(list(sups), rel=1e-12, abs=0.0)


class TestSeededAccumulator:
    # bump_pair has f' != 0, which exercises the sign of each half
    data = InitialData(Family.bump_pair, 0.7, 1.0, 1.0)
    grid = GridSpec(h=0.05, t_max=3.0, pad=1.0)

    def test_values_match_pointwise_reference_on_every_level(self):
        grid = self.grid
        field = CharAccumulator.seeded(self.data, grid, 0.35).values(0, grid.n_t + 1, 0, grid.n_x - 1)
        xs = grid.x_nodes()
        for n in range(grid.n_t + 1):
            ref = free_solution_dt(xs, n * grid.h, self.data, 0.35)
            assert np.max(np.abs(field[n] - ref)) <= 1e-14

    def test_value_rows_equal_diagonal_sums(self):
        grid = self.grid
        acc = CharAccumulator.seeded(self.data, grid, 0.35)
        for n0, n1 in [(0, grid.n_t + 1), (0, 1), (5, 17), (grid.n_t, grid.n_t + 1)]:
            lo, hi = grid.active_slice(n1 - 1, self.data.R)
            block = acc.values(n0, n1, lo, hi)
            assert block.shape == (n1 - n0, hi - lo + 1)
            for n in range(n0, n1):
                plus, minus = acc.diagonals(n, lo, hi)
                assert np.array_equal(block[n - n0], plus + minus)

    def test_seeds_are_the_halves_at_the_feet_of_their_diagonals(self):
        grid, data, eps = self.grid, self.data, 0.35
        acc = CharAccumulator.seeded(data, grid, eps)
        i = np.arange(grid.n_x)
        for n in (0, 1, 17, grid.n_t):
            plus, minus = acc.diagonals(n, 0, grid.n_x - 1)
            up, down = grid.x_min + grid.h * (i + n), grid.x_min + grid.h * (i - n)
            assert np.array_equal(plus, 0.5 * eps * (data.g(up) + data.f_prime(up)))
            assert np.array_equal(minus, 0.5 * eps * (data.g(down) - data.f_prime(down)))

    @pytest.mark.parametrize("family", list(Family))
    def test_no_zero_carries_a_sign_bit(self, family):
        # a signed zero would reach dump_field_csv as -0; the zero family keeps
        # its nonzero amplitudes here, which its data must ignore
        grid, data = self.grid, InitialData(family, 0.7, 1.0, 1.0)
        seeded = CharAccumulator.seeded(data, grid, 0.35).values(0, grid.n_t + 1, 0, grid.n_x - 1)
        field, _ = march(ModelParams(2.0, -0.5, 0.0, 0.35, 1.0), data, grid)
        for values in (seeded, field.levels):
            assert not np.any(np.signbit(values[values == 0.0]))
        if family is Family.zero:
            assert not np.any(seeded) and not np.any(field.levels)

    def test_unseeded_level_0_returns_zeros_and_adds_half_the_weighted_source(self):
        acc = CharAccumulator(n_x=11, n_t=4, h=0.1)
        G = np.linspace(1.0, 2.0, 5)
        assert np.array_equal(acc.explicit_step(0, 3, 7, G), np.zeros(5))
        for sums in acc.diagonals(0, 3, 7):
            assert np.array_equal(sums, 0.5 * acc.c * G)
        assert np.count_nonzero(acc.plus) == np.count_nonzero(acc.minus) == 5


class TestMarchBasics:
    def test_zero_data_stays_zero(self):
        params = ModelParams(2.0, 0.0, 0.0, 0.0, 1.0)
        data = InitialData(Family.zero, 0.0, 0.0, 1.0)
        field, est = march(params, data, GridSpec(h=0.1, t_max=3.0, pad=1.0))
        assert est.status is Status.survived
        assert np.all(field.levels == 0.0)

    def test_invalid_config_rejected(self):
        params = ModelParams(1.0, 0.0, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="p must exceed 1"):
            march(params, data, GridSpec(h=0.1, t_max=3.0, pad=1.0))

    def test_level_zero_is_eps_g(self, bump_data):
        params = ModelParams(2.0, -0.5, 0.0, 0.2, 1.0)
        grid = GridSpec(h=0.05, t_max=2.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        xs = grid.x_nodes()
        assert np.allclose(field.levels[0], 0.2 * bump_data.g(xs), atol=1e-15)

    def test_even_symmetry(self, bump_data):
        params = ModelParams(2.0, -0.5, -1.0, 0.3, 1.0)
        grid = GridSpec(h=0.05, t_max=4.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        assert np.max(np.abs(field.levels - field.levels[:, ::-1])) < 1e-12

    def test_support_condition_exact(self, bump_data):
        params = ModelParams(2.0, 0.0, -1.0, 0.4, 1.0)
        grid = GridSpec(h=0.05, t_max=6.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        xs = grid.x_nodes()
        for n in range(field.levels.shape[0]):
            outside = np.abs(xs) > n * grid.h + params.R + 1e-9
            assert np.all(field.levels[n][outside] == 0.0)

    def test_discrete_integral_equation_holds(self, bump_data):
        # each stored node must satisfy U = eps*u_t0 + L'(|U|^p) with the
        # kernel-level trapezoid operator as an independent evaluation
        params = ModelParams(2.0, -0.5, 0.0, 0.3, 1.0)
        grid = GridSpec(h=0.1, t_max=3.0, pad=2.0)
        field, _ = march(params, bump_data, grid)
        sampler = field_sampler(field)

        def F(y, s):
            return np.abs(sampler(y, s)) ** params.p

        for x, t in ((0.0, 1.0), (0.5, 2.0), (-1.2, 3.0), (1.6, 2.5)):
            lhs = field.levels[grid.index_of_t(t), grid.index_of_x(x)]
            rhs = free_solution_dt(x, t, bump_data, params.epsilon) + duhamel_Lprime(
                F, x, t, params, grid.h
            )
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @pytest.mark.parametrize("kind", list(RegimeKind))
    @settings(max_examples=10, deadline=None)
    @given(draw=st.data())
    def test_discrete_integral_equation_holds_in_every_regime(self, kind, draw):
        # test_discrete_integral_equation_holds at drawn (p, a, b, eps), data
        # and nodes; a march that blows up is checked on its resolved levels
        p, a, b = draw.draw(exponents_in(kind))
        assert classify_regime(p, a, b).kind is kind
        eps = draw.draw(st.floats(0.01, 2.0))
        family = draw.draw(st.sampled_from([Family.bump, Family.bump_pair]))
        params = ModelParams(p, a, b, eps, 1.0)
        data = InitialData(family, 0.7, 1.0, 1.0)
        grid = GridSpec(h=0.1, t_max=3.0, pad=4.0)  # pad >= t_max + R: characteristics stay on the lattice
        field, _ = march(params, data, grid)
        sampler = field_sampler(field)
        x_nodes = grid.x_nodes()

        def F(y, s):
            return np.abs(sampler(y, s)) ** p

        for _ in range(4):
            n = draw.draw(st.integers(0, field.levels.shape[0] - 1))
            i = draw.draw(st.integers(*grid.active_slice(n, params.R)))
            x, t = x_nodes[i], n * grid.h
            lhs = field.levels[n, i]
            rhs = free_solution_dt(x, t, data, eps) + duhamel_Lprime(F, x, t, params, grid.h)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_epsilon_p_scaling_of_duhamel_part(self, bump_data):
        # || U - eps u_t0 || ~ eps^p for small eps
        grid = GridSpec(h=0.05, t_max=5.0, pad=1.0)
        norms = []
        for eps in (1e-3, 2e-3):
            params = ModelParams(2.0, -0.5, 0.0, eps, 1.0)
            field, _ = march(params, bump_data, grid)
            xs = grid.x_nodes()
            free = np.array(
                [free_solution_dt(xs, n * grid.h, bump_data, eps) for n in range(grid.n_t + 1)]
            )
            norms.append(np.max(np.abs(field.levels - free)))
        observed_p = math.log2(norms[1] / norms[0])
        assert abs(observed_p - 2.0) < 0.05


class TestBlowup:
    def test_blowup_detected_with_cause(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        _, est = march(params, bump_data, GridSpec(h=0.1, t_max=10.0, pad=1.0), keep_field=False)
        assert est.status is Status.blowup
        assert est.cause is not None
        assert 5.0 < est.T_blow < 8.0

    def test_threshold_insensitivity(self, bump_data, monkeypatch):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        grid = GridSpec(h=0.05, t_max=10.0, pad=1.0)
        times = []
        for thresh in (1e4, 1e6, 1e8):
            monkeypatch.setattr(solver, "default_blow_threshold", lambda *args, t=thresh: t)
            _, est = march(params, bump_data, grid, keep_field=False)
            assert est.status is Status.blowup
            times.append(est.T_blow)
        assert max(times) - min(times) <= 2 * grid.h

    def test_default_threshold_scales_with_data(self, bump_data):
        lo = default_blow_threshold(ModelParams(2, 0, 0, 0.0, 1.0), bump_data)
        hi = default_blow_threshold(ModelParams(2, 0, 0, 2.0, 1.0), bump_data)
        assert lo == pytest.approx(1e6)
        assert hi == pytest.approx(3e6)

    def test_overflowing_seed_blows_up_at_level_1(self, bump_data):
        # |eps g|^p overflows on level 0 itself; the seed level runs inside the
        # level loop's errstate, so this warns nothing (pytest makes a RuntimeWarning an error)
        params = ModelParams(2.0, 0.0, 0.0, 1e200, 1.0)
        field, est = march(params, bump_data, GridSpec(h=0.05, t_max=1.0, pad=1.0))
        assert est.status is Status.blowup
        assert est.T_blow == pytest.approx(0.025)
        assert field.n_levels_done == 0 and len(est.sup_history) == 2

    def test_field_truncated_at_last_resolved_level(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        grid = GridSpec(h=0.1, t_max=10.0, pad=1.0)
        field, est = march(params, bump_data, grid)
        assert field.levels.shape[0] == field.n_levels_done + 1
        assert est.T_blow == pytest.approx((field.n_levels_done + 1) * grid.h - 0.5 * grid.h)
        assert np.all(np.isfinite(field.levels))


class TestDuhamelField:
    def test_matches_kernel_operator(self, bump_data):
        # prefix-sum field application vs the direct per-node kernel sum
        params = ModelParams(2.0, 0.3, -0.7, 0.5, 1.0)
        grid = GridSpec(h=0.1, t_max=3.0, pad=1.0)
        xs = grid.x_nodes()
        source = np.array(
            [
                np.abs(free_solution_dt(xs, n * grid.h, bump_data, params.epsilon)) ** params.p
                for n in range(grid.n_t + 1)
            ]
        )
        out = apply_duhamel_field(source, grid, params)

        def F(y, s):
            y = np.atleast_1d(np.asarray(y, dtype=float))
            s = np.atleast_1d(np.asarray(s, dtype=float))
            vals = [
                np.abs(free_solution_dt(yi, si, bump_data, params.epsilon)) ** params.p
                for yi, si in zip(y, s)
            ]
            return np.array(vals)

        for x, t in ((0.0, 1.0), (0.8, 2.0), (-1.5, 3.0)):
            direct = duhamel_Lprime(F, x, t, params, grid.h)
            assert out[grid.index_of_t(t), grid.index_of_x(x)] == pytest.approx(direct, abs=1e-12)


def stored_picard(params, data, grid, T, j_max):
    """The Picard sequence over whole stored fields: norms, diff norms and U_{j_max}.

    Each iterate is one apply_duhamel_field over [0, T], and each norm a
    per-level scan of a stored field; no iterate may diverge.
    """
    n_T = grid.index_of_t(T)
    free = CharAccumulator.seeded(data, grid, params.epsilon).values(0, n_T + 1, 0, grid.n_x - 1)
    x = grid.x_nodes()

    def norm(V):
        best = 0.0
        for n in range(V.shape[0]):
            lo, hi = grid.active_slice(n, params.R)
            w = weight_w(x[lo : hi + 1], n * grid.h, params)
            Vn = V[n, lo : hi + 1]
            best = max(best, np.max(np.where(Vn == 0.0, 0.0, w) * np.abs(Vn)))
        return best

    U = np.zeros_like(free)
    norms, diffs = [0.0], []
    for _ in range(1, j_max):
        U_next = apply_duhamel_field(np.abs(U + free) ** params.p, grid, params)
        assert np.all(np.isfinite(U_next))
        diffs.append(norm(U_next - U))
        U = U_next
        norms.append(norm(U))
    return norms, diffs, U


class TestPicard:
    @pytest.mark.parametrize("T", [20.0, 12.0])  # 12 ends in a partial block
    @pytest.mark.parametrize("family", [Family.bump, Family.bump_pair])
    # criterion 8's parameters, then a case whose norms peak in an early block
    @pytest.mark.parametrize("p, a, b, eps", [(2.0, 0.5, 0.0, 0.01), (3.0, -0.5, 0.0, 0.2)])
    def test_streamed_sequence_equals_stored_loop(self, p, a, b, eps, family, T):
        params = ModelParams(p, a, b, eps, 1.0)
        data = InitialData(family, 0.0, 1.0, 1.0)
        grid = GridSpec(h=0.05, t_max=20.0, pad=1.0)
        report = picard_iterate(params, data, grid, T, j_max=6)
        norms, diffs, final = stored_picard(params, data, grid, T, 6)
        assert report.diverged_at is None
        assert report.norms == norms
        assert report.diff_norms == diffs
        assert np.array_equal(report.final, final)

    def test_divergence_keeps_the_finite_norms_and_no_field(self, bump_data):
        params = ModelParams(2.0, -0.5, 0.0, 5.0, 1.0)
        grid = GridSpec(h=0.1, t_max=10.0, pad=1.0)
        report = picard_iterate(params, bump_data, grid, 10.0, j_max=12)
        assert report.diverged_at == 10
        assert len(report.norms) == 10 and len(report.diff_norms) == 9
        assert all(math.isfinite(v) for v in report.norms + report.diff_norms)
        assert report.final is None

    def test_memory_is_one_field_plus_blocks(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        grid = GridSpec(h=0.05, t_max=20.0, pad=1.0)
        tracemalloc.start()
        try:
            report = picard_iterate(params, bump_data, grid, 20.0, j_max=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole stored iterates would take about 5 fields
        assert peak <= 2.5 * report.final.nbytes

    def test_agrees_with_march(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.05, 1.0)
        grid = GridSpec(h=0.05, t_max=5.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        report = picard_iterate(params, bump_data, grid, T=5.0, j_max=8)
        xs = grid.x_nodes()
        free = np.array(
            [
                free_solution_dt(xs, n * grid.h, bump_data, params.epsilon)
                for n in range(grid.n_t + 1)
            ]
        )
        assert report.diverged_at is None
        assert np.max(np.abs((free + report.final) - field.levels)) < 1e-8

    def test_contraction_for_small_epsilon(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        report = picard_iterate(params, bump_data, GridSpec(h=0.1, t_max=10.0, pad=1.0), 10.0, 5)
        ratios = report.contraction_ratios()
        assert ratios and all(r <= 0.5 for r in ratios)

    def test_rejects_bad_arguments(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        grid = GridSpec(h=0.1, t_max=2.0, pad=1.0)
        with pytest.raises(ValueError):
            picard_iterate(params, bump_data, grid, 2.0, j_max=1)
        with pytest.raises(ValueError):
            picard_iterate(params, bump_data, grid, 5.0, j_max=3)
        for T in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                picard_iterate(params, bump_data, grid, T, j_max=3)
        with pytest.raises(ValueError):
            picard_iterate(ModelParams(2.0, 0.0, 0.0, math.nan, 1.0), bump_data, grid, 2.0, j_max=3)


class TestNormsAndReconstruction:
    @pytest.mark.parametrize(
        "a, R",
        [(0.5, 1.0), (0.0, 2.0), (-0.5, 1.0), (-1.5, 1.0)],
        ids=["a>0", "a=0", "-1<=a<0", "a<-1"],
    )
    def test_weighted_norm_against_bruteforce(self, a, R):
        # one case per branch of weight_w; R = 2 keeps 1/log(t+|x|+R) finite at a = 0
        params = ModelParams(2.0, a, 0.0, 0.3, R)
        data = InitialData(Family.bump, 0.0, 1.0, R)
        grid = GridSpec(h=0.1, t_max=3.0, pad=R)
        field, est = march(params, data, grid, track_weighted_sup=True)
        xs = grid.x_nodes()
        best = 0.0
        for n in range(field.levels.shape[0]):
            lo, hi = grid.active_slice(n, params.R)
            for i in range(lo, hi + 1):
                u = field.levels[n, i]
                if u != 0.0:
                    best = max(best, abs(u) * float(weight_w(xs[i], n * grid.h, params)))
        assert best > 0.0
        assert max(est.weighted_sup_history) == pytest.approx(best, rel=1e-13)

    def test_reconstruct_initial_value(self):
        data = InitialData(Family.bump_pair, 0.4, 1.0, 1.0)
        params = ModelParams(2.0, 0.0, 0.0, 0.2, 1.0)
        grid = GridSpec(h=0.1, t_max=2.0, pad=1.0)
        field, _ = march(params, data, grid)
        u = reconstruct_u(field, data, params.epsilon)
        assert np.allclose(u[0], params.epsilon * data.f(grid.x_nodes()), atol=1e-15)

    def test_reconstruct_matches_cumulative_trapezoid(self):
        from scipy.integrate import cumulative_trapezoid

        data = InitialData(Family.bump_pair, 0.4, 1.0, 1.0)
        params = ModelParams(2.0, -0.5, 0.0, 0.3, 1.0)
        grid = GridSpec(h=0.05, t_max=4.0, pad=1.0)
        field, _ = march(params, data, grid)
        expected = cumulative_trapezoid(field.levels, dx=grid.h, axis=0, initial=0.0)
        expected += params.epsilon * data.f(grid.x_nodes())[None, :]
        assert np.array_equal(reconstruct_u(field, data, params.epsilon), expected)

    def test_residual_requires_field(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        field, _ = march(params, bump_data, GridSpec(h=0.1, t_max=2.0, pad=1.0), keep_field=False)
        with pytest.raises(ValueError):
            reconstruct_u(field, bump_data, params.epsilon)
        with pytest.raises(ValueError):
            pde_residual(np.zeros((3, 3)), field, params)

    def test_field_csv_dump(self, bump_data, tmp_path):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        field, _ = march(params, bump_data, GridSpec(h=0.5, t_max=1.0, pad=1.0))
        path = tmp_path / "field.csv"
        with open(path, "w") as fh:
            dump_field_csv(field, fh)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,u_t"
        assert len(lines) == 1 + field.levels.shape[0] * field.grid.n_x

    def test_field_csv_bytes_equal_row_by_row_writer(self, tmp_path):
        # f' != 0 gives u_t of both signs
        data = InitialData(Family.bump_pair, 0.7, 1.0, 1.0)
        field, _ = march(ModelParams(2.0, 0.0, 0.0, 0.3, 1.0), data, GridSpec(h=0.1, t_max=2.0, pad=1.0))
        assert np.any(field.levels < 0)
        path = tmp_path / "field.csv"
        with open(path, "w") as fh:
            dump_field_csv(field, fh)
        x = field.grid.x_nodes()
        ref = "t,x,u_t\n"
        for n in range(field.levels.shape[0]):
            t = n * field.grid.h
            for i in range(field.grid.n_x):
                ref += f"{t:.10g},{x[i]:.10g},{field.levels[n, i]:.17g}\n"
        assert path.read_bytes() == ref.encode()


def test_package_import_leaves_scipy_out():
    src = str(Path(wavelifespan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, wavelifespan; assert 'scipy' not in sys.modules, 'scipy imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
