import math

import numpy as np
import pytest
from scipy.integrate import quad

from wavelifespan.core import Family, GridSpec, InitialData, ModelParams
from wavelifespan.kernels import (
    bracket,
    duhamel_Lprime,
    field_sampler,
    free_solution_dt,
    nonlinear_weight,
    weight_w,
)

from references import free_solution
from references import nonlinear_weight as dense_nonlinear_weight
from references import weight_w as dense_weight_w


class TestBracket:
    def test_values(self):
        assert bracket(0.0) == 1.0
        assert bracket(math.sqrt(3.0)) == pytest.approx(2.0, rel=1e-15)
        assert bracket(-math.sqrt(3.0)) == pytest.approx(2.0, rel=1e-15)

    def test_sandwich_on_random_points(self, rng):
        x = rng.uniform(-50, 50, 10_000)
        t = rng.uniform(0, 100, 10_000)
        bx = bracket(x)
        assert np.all(np.maximum(1.0, np.abs(x)) <= bx)
        assert np.all(bx <= 1.0 + np.abs(x))
        outer = bracket(t + bx)
        assert np.all(0.5 * (1.0 + t + np.abs(x)) <= outer)
        assert np.all(outer <= math.sqrt(2.0) * (1.0 + t + np.abs(x)))


class TestNonlinearWeight:
    def test_pinned_values(self):
        assert nonlinear_weight(0.0, 0.0, ModelParams(2, -1, -1, 0.1)) == pytest.approx(1.0)
        assert nonlinear_weight(0.0, 0.0, ModelParams(2, 0, 0, 0.1)) == pytest.approx(0.5)
        # x=0, t=3, a=1, b=0: <4>^-2 <2>^-1 = 1/(17*sqrt(5))
        val = nonlinear_weight(0.0, 3.0, ModelParams(2, 1, 0, 0.1))
        assert val == pytest.approx(1.0 / (17.0 * math.sqrt(5.0)), rel=1e-14)

    def test_positive_and_even(self, rng):
        params = ModelParams(2, 0.3, -1.7, 0.1)
        x = rng.uniform(-20, 20, 500)
        t = rng.uniform(0, 40, 500)
        w = nonlinear_weight(x, t, params)
        assert np.all(w > 0)
        assert np.allclose(w, nonlinear_weight(-x, t, params), rtol=1e-14)


def weight_inputs(rng):
    """(x, t) in the three shapes the weights take: scalars, elementwise 1-D
    and row x column blocks, on the h = 0.05 lattice and off it.

    The lattice holds the lines t - |x| = R for R in {1, 1.5, 2} and the
    node t = x = 0; the block at t >= 4 has columns that never leave chi.
    """
    h = 0.05
    x = h * np.arange(-80, 81)
    blocks = [(x, h * np.arange(0, 61)[:, None]), (x, h * np.arange(80, 112)[:, None])]
    X, T = np.broadcast_arrays(*blocks[0])
    d = T - np.abs(X)
    on_line = np.isclose(d, 1.0) | np.isclose(d, 1.5) | np.isclose(d, 2.0)
    line = [(float(X[n, i]), float(T[n, i])) for n, i in zip(*np.nonzero(on_line))]
    scalars = line[::5] + [(0.0, 0.0), (1.0, 2.0), (-1.5, 3.0), (2.0, 4.0), (0.0, 1.0)]
    scalars += [(float(a), float(b)) for a, b in zip(rng.uniform(-6, 6, 20), rng.uniform(0, 9, 20))]
    elementwise = [(X.ravel(), T.ravel()), (rng.uniform(-6, 6, 500), rng.uniform(0, 9, 500))]
    return scalars, elementwise, blocks


class TestWeightsAgainstDenseReference:
    """Each weight equals, bitwise, its evaluation with every branch and factor on every node."""

    def check(self, fn, ref, params, rng):
        scalars, elementwise, blocks = weight_inputs(rng)
        for x, t in scalars:
            got = fn(x, t, params)
            assert type(got) is float
            assert np.array_equal(got, ref(x, t, params), equal_nan=True)
        for x, t in elementwise + blocks:
            got = fn(x, t, params)
            assert got.shape == np.broadcast_shapes(x.shape, t.shape)
            assert np.array_equal(got, ref(x, t, params), equal_nan=True)

    @pytest.mark.parametrize("R", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("a", [1.0, 0.5, 0.0, -0.5, -1.0, -1.5])
    def test_weight_w(self, a, R, rng):
        params = ModelParams(2, a, 0.0, 0.1, R)
        self.check(weight_w, dense_weight_w, params, rng)
        if a == 0.0 and R == 1.0:  # the singular node t = x = 0
            assert weight_w(0.0, 0.0, params) == math.inf

    @pytest.mark.parametrize("b", [0.0, -1.0, -3.0])
    @pytest.mark.parametrize("a", [1.0, 0.5, 0.0, -0.5, -1.0, -1.5])
    def test_nonlinear_weight(self, a, b, rng):
        self.check(nonlinear_weight, dense_nonlinear_weight, ModelParams(2, a, b, 0.1), rng)


class TestFreeSolution:
    def test_dt_at_t0_is_g(self, bump_data):
        xs = np.linspace(-2, 2, 81)
        assert np.allclose(free_solution_dt(xs, 0.0, bump_data, 0.3), 0.3 * bump_data.g(xs))

    def test_dt_outside_support(self, bump_data):
        assert free_solution_dt(5.0, 1.0, bump_data, 1.0) == 0.0
        # x=2, t=2: only the x-t argument hits the bump center
        assert free_solution_dt(2.0, 2.0, bump_data, 1.0) == pytest.approx(0.5)

    def test_value_at_t0_is_f(self):
        d = InitialData(Family.bump_pair, 0.7, 1.0, 1.0)
        xs = np.linspace(-1.5, 1.5, 31)
        assert np.allclose(free_solution(xs, 0.0, d, 0.2), 0.2 * d.f(xs), atol=1e-15)

    def test_plateau_after_support_crossing(self, bump_data):
        # t - |x| >= R: the integral captures all of g
        plateau = 0.5 * bump_data.g_total_integral()
        for x, t in ((0.0, 1.0), (0.5, 2.0), (-1.0, 3.5)):
            assert free_solution(x, t, bump_data, 1.0) == pytest.approx(plateau, rel=1e-13)

    def test_against_quadrature_oracle(self, bump_data):
        for x, t in ((0.0, 0.5), (0.3, 0.4), (-0.7, 1.1)):
            oracle, _ = quad(
                lambda y: float(bump_data.g(y)), x - t, x + t, epsabs=1e-12, points=[-1.0, 1.0]
            )
            assert free_solution(x, t, bump_data, 1.0) == pytest.approx(0.5 * oracle, abs=1e-10)

    def test_dt_matches_difference_quotient(self, bump_data):
        eps = 1e-6
        for x, t in ((0.1, 0.7), (0.8, 0.3), (-0.4, 1.2)):
            numeric = (
                free_solution(x, t + eps, bump_data, 1.0) - free_solution(x, t - eps, bump_data, 1.0)
            ) / (2 * eps)
            assert free_solution_dt(x, t, bump_data, 1.0) == pytest.approx(numeric, abs=1e-7)


class TestWeightW:
    def test_branch_values(self):
        # interior of the cone, a = 0: (1 + t - |x|)^1
        assert weight_w(0.0, 2.0, ModelParams(2, 0, 0, 0.1, R=1.0)) == pytest.approx(3.0)
        # outside, a = 0: 1/log(t + |x| + R)
        assert weight_w(1.0, 1.0, ModelParams(2, 0, 0, 0.1, R=1.0)) == pytest.approx(
            1.0 / math.log(3.0), rel=1e-12
        )
        # interior, a = -2: (1 + t + |x|)^{1+a}
        assert weight_w(0.0, 3.0, ModelParams(2, -2, 0, 0.1, R=1.0)) == pytest.approx(0.25)

    def test_remaining_branches(self):
        # a > 0: outer weight 1, inner (1 + t - |x|)^{1+a}
        assert weight_w(4.0, 1.0, ModelParams(2, 1, 0, 0.1, R=1.0)) == pytest.approx(1.0)
        assert weight_w(0.0, 3.0, ModelParams(2, 1, 0, 0.1, R=1.0)) == pytest.approx(16.0)
        # -1 <= a < 0: outer (t + |x| + R)^a
        assert weight_w(2.0, 1.0, ModelParams(2, -0.5, 0, 0.1, R=1.0)) == pytest.approx(0.5)
        # a = -1 sits in the -1 <= a < 0 branch; inner weight is constant 1
        assert weight_w(0.0, 5.0, ModelParams(2, -1, 0, 0.1, R=1.0)) == pytest.approx(1.0)

    def test_even_in_x_and_finite(self, rng):
        for a in (1.0, 0.0, -0.5, -1.0, -2.0):
            params = ModelParams(2, a, 0, 0.1, R=1.5)
            x = rng.uniform(-30, 30, 400)
            t = rng.uniform(0, 60, 400)
            w = weight_w(x, t, params)
            assert np.all(np.isfinite(w))
            assert np.all(w > 0)
            assert np.allclose(w, weight_w(-x, t, params), rtol=1e-14)

    @pytest.mark.parametrize(
        "a, R", [(1.0, 1.0), (0.0, 2.0), (-0.5, 1.0), (-1.0, 1.0), (-1.5, 1.0)]
    )
    def test_chi_line_takes_the_outer_branch(self, a, R):
        # node (i, n) sits on t - |x| = R when n - |i - c| = R/h; chi is strict
        grid = GridSpec(h=0.05, t_max=80.0, pad=R)
        params = ModelParams(2, a, 0, 0.1, R=R)
        c, m = (grid.n_x - 1) // 2, round(R / grid.h)
        x = grid.x_nodes()
        for depth in (0, 1):  # the nodes on the line, then those one step inside
            n = np.arange(m + depth, grid.n_t + 1)
            i = np.concatenate([c + n - m - depth, c - n + m + depth])
            ax, t = np.abs(x[i]), grid.h * np.concatenate([n, n])
            s = t + ax + R
            if depth:
                expected = (1.0 + t + ax if a < -1 else 1.0 + t - ax) ** (1.0 + a)
            elif a > 0:
                expected = np.ones_like(s)
            else:
                expected = 1.0 / np.log(s) if a == 0 else s**a
            assert np.array_equal(weight_w(x[i], t, params), expected)
        # the slack is a column when t is, as in apriori_profiles' blocks
        n = np.arange(m, grid.n_t + 1)
        col = weight_w(x[None, :], grid.h * n[:, None], params)
        on_line = weight_w(x[c + n - m], grid.h * n, params)
        assert np.array_equal(col[np.arange(n.size), c + n - m], on_line)


def _const(value):
    def F(y, s):
        return np.full_like(np.asarray(y, dtype=float), value)

    return F


class TestDuhamelLprime:
    def test_zero_integrand(self):
        assert duhamel_Lprime(_const(0.0), 0.5, 2.0, ModelParams(2, 0, 0, 0.1), 0.05) == 0.0

    def test_unit_weights_give_t(self):
        params = ModelParams(2, -1, -1, 0.1)
        for t in (0.5, 1.0, 3.0):
            val = duhamel_Lprime(_const(1.0), 0.25, t, params, 0.05)
            assert val == pytest.approx(t, rel=1e-13)

    def test_linear_in_s(self):
        params = ModelParams(2, -1, -1, 0.1)

        def F(y, s):
            return np.broadcast_to(np.asarray(s, dtype=float), np.shape(y)).astype(float)

        # trapezoid is exact for linear integrands: 1/2 (t^2/2 + t^2/2)
        assert duhamel_Lprime(F, 0.0, 2.0, params, 0.1) == pytest.approx(2.0, rel=1e-13)

    def test_against_adaptive_quadrature(self):
        params = ModelParams(2, 0, 0, 0.1)
        x, t = 0.0, 1.0

        def leg(sign):
            def integrand(s):
                y = x + sign * (t - s)
                return float(nonlinear_weight(y, s, params))

            return quad(integrand, 0.0, t, epsabs=1e-12)[0]

        oracle = 0.5 * (leg(+1.0) + leg(-1.0))
        val = duhamel_Lprime(_const(1.0), x, t, params, 0.0025)
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_second_order_refinement(self):
        params = ModelParams(2, 0.5, -0.5, 0.1)
        x, t = 0.5, 2.0

        def F(y, s):
            return np.cos(np.asarray(y, dtype=float)) * np.exp(-np.asarray(s, dtype=float))

        def leg(sign):
            def integrand(s):
                y = x + sign * (t - s)
                return math.cos(y) * math.exp(-s) * float(nonlinear_weight(y, s, params))

            return quad(integrand, 0.0, t, epsabs=1e-13)[0]

        exact = 0.5 * (leg(+1.0) + leg(-1.0))
        err_h = abs(duhamel_Lprime(F, x, t, params, 0.05) - exact)
        err_h2 = abs(duhamel_Lprime(F, x, t, params, 0.025) - exact)
        assert 3.0 <= err_h / err_h2 <= 5.0

    def test_even_symmetry(self):
        params = ModelParams(2, 0.3, -1.2, 0.1)

        def F(y, s):
            return np.cos(np.asarray(y, dtype=float)) + np.asarray(s, dtype=float)

        for x, t in ((0.5, 1.5), (1.0, 2.0)):
            assert duhamel_Lprime(F, x, t, params, 0.05) == pytest.approx(
                duhamel_Lprime(F, -x, t, params, 0.05), rel=1e-13
            )

    def test_off_lattice_rejected(self):
        params = ModelParams(2, 0, 0, 0.1)
        for x in (0.013, math.inf, math.nan):
            with pytest.raises(ValueError, match="is not a lattice node"):
                duhamel_Lprime(_const(1.0), x, 1.0, params, 0.05)
        for t in (1.003, math.inf, math.nan):
            with pytest.raises(ValueError, match="is not a lattice level"):
                duhamel_Lprime(_const(1.0), 0.0, t, params, 0.05)
        with pytest.raises(ValueError, match=r"t=-0\.5 must be >= 0"):
            duhamel_Lprime(_const(1.0), 0.0, -0.5, params, 0.05)


class TestFieldSampler:
    def test_node_access_and_rejection(self, bump_data):
        from wavelifespan.core import CharField

        grid = GridSpec(h=0.5, t_max=1.0, pad=1.0)
        levels = np.arange(3 * grid.n_x, dtype=float).reshape(3, grid.n_x)
        sampler = field_sampler(CharField(grid=grid, levels=levels))
        assert sampler(grid.x_min, 0.0) == 0.0
        assert sampler(grid.x_min + 0.5, 0.5) == grid.n_x + 1
        with pytest.raises(KeyError):
            sampler(0.013, 0.0)
        with pytest.raises(KeyError):
            sampler(0.0, 5.0)
        for x, t in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, -math.inf)):
            with pytest.raises(KeyError):
                sampler(x, t)
            with pytest.raises(KeyError):
                sampler(np.array([0.0, x]), np.array([0.0, t]))
        assert sampler(np.array([0.0, 0.5]), np.array([0.5, 1.0])).tolist() == [
            levels[1, grid.n_x // 2], levels[2, grid.n_x // 2 + 1]
        ]
