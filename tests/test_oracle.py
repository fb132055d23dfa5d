import math
import tracemalloc

import numpy as np
import pytest

from wavelifespan.core import (
    Cause,
    CharField,
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    RegimeKind,
    Status,
    default_blow_threshold,
)
from wavelifespan.kernels import nonlinear_weight
from wavelifespan.oracle import compare_fields, leapfrog_solve
from wavelifespan.solver import march
from wavelifespan.theory import classify_regime

from references import free_solution


def dense_u(result):
    """u at every node of every level of a leapfrog run, as a (n_levels, n_x) array."""
    return np.array([row.copy() for row in result.rows()])


class TestLinearLimit:
    def _error_vs_dalembert(self, dx, data, eps):
        # with eps tiny the source is O(eps^p) and the scheme should
        # reproduce the exact d'Alembert solution to O(dx^2)
        params = ModelParams(2.0, 0.0, 0.0, eps, 1.0)
        result, est = leapfrog_solve(params, data, dx=dx, cfl=0.9, t_max=4.0)
        assert est.status is Status.survived
        u = dense_u(result)
        n = u.shape[0] - 1
        t = n * result.dt
        exact = free_solution(result.x, t, data, eps)
        return float(np.max(np.abs(u[n] - exact)))

    def test_second_order_convergence(self, bump_data):
        eps = 1e-5
        err_h = self._error_vs_dalembert(0.02, bump_data, eps)
        err_h2 = self._error_vs_dalembert(0.01, bump_data, eps)
        assert 3.0 <= err_h / err_h2 <= 5.0

    def test_absolute_accuracy(self, bump_data):
        err = self._error_vs_dalembert(0.01, bump_data, 1e-5)
        assert err < 1e-8


class TestEnergyAndSupport:
    def test_energy_drift_below_one_percent(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-6, 1.0)
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=5.0)
        u = dense_u(result)
        n_lo = int(round(1.0 / result.dt))
        n_hi = u.shape[0] - 2
        e_lo = dense_energy(u, result.dx, result.dt, n_lo)
        e_hi = dense_energy(u, result.dx, result.dt, n_hi)
        assert e_lo > 0
        assert abs(e_hi - e_lo) / e_lo < 0.01

    def test_huygens_band_support_of_u_t(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-4, 1.0)
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=4.0)
        u = dense_u(result)
        n = u.shape[0] - 2  # the last level with a centered u_t
        t = n * result.dt
        ut = (u[n + 1] - u[n - 1]) / (2.0 * result.dt)
        # u_t should live on ||x| - t| <= R up to scheme smearing
        outside = np.abs(np.abs(result.x) - t) > params.R + 5 * result.dx
        sup_out = float(np.max(np.abs(ut[outside])))
        sup_in = float(np.max(np.abs(ut)))
        assert sup_out < 1e-4 * sup_in


class TestBlowupAgreement:
    def test_blowup_time_near_march(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        _, est_m = march(
            params, bump_data, GridSpec(h=0.05, t_max=10.0, pad=1.0), keep_field=False
        )
        _, est_l = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=10.0)
        assert est_m.status is Status.blowup and est_l.status is Status.blowup
        assert abs(est_m.T_blow - est_l.T_blow) / est_l.T_blow < 0.10

    @pytest.mark.parametrize(
        "p, a, b, eps, kind",
        [
            (2.0, -0.5, 0.0, 0.9, RegimeKind.poly_a),
            (2.0, -0.5, -3.0, 0.4, RegimeKind.poly_pab),
            (2.0, 0.0, 0.0, 2.0, RegimeKind.exp_p_minus_1),
            (2.0, 0.5, -3.0, 1.6, RegimeKind.exp_p_p_minus_1),
        ],
    )
    def test_every_blowup_regime_meets_the_oracle(self, bump_data, p, a, b, eps, kind):
        # march at h against the leapfrog at dx = h/5, within criterion 5's
        # 10% bound at both resolutions, and closer at the finer pair; both
        # converge at first order, so their extrapolations 2 T(h/2) - T(h)
        # agree closer still than the finer pair's raw values
        assert classify_regime(p, a, b).kind is kind
        params = ModelParams(p, a, b, eps, 1.0)
        T_m, T_l = [], []
        for h, dx in ((0.05, 0.01), (0.025, 0.005)):
            grid = GridSpec(h=h, t_max=40.0, pad=1.0)
            _, est_m = march(params, bump_data, grid, keep_field=False)
            _, est_l = leapfrog_solve(params, bump_data, dx=dx, cfl=0.9, t_max=40.0)
            assert est_m.status is Status.blowup and est_l.status is Status.blowup
            assert est_m.cause is Cause.no_root and est_l.cause is Cause.threshold_exceeded
            T_m.append(est_m.T_blow)
            T_l.append(est_l.T_blow)
        gaps = [abs(m - l) / l for m, l in zip(T_m, T_l)]
        assert max(gaps) <= 0.10
        assert gaps[1] < gaps[0]
        ext_m, ext_l = (2.0 * T[1] - T[0] for T in (T_m, T_l))
        ext_gap = abs(ext_m - ext_l) / ext_l
        print(f"{kind.value}: raw gap at the finer pair {gaps[1]:.4f}, extrapolated gap {ext_gap:.4f}")
        assert ext_gap < gaps[1]


def compare_from_u_t_levels(char_field, u, x, dx, dt, window):
    """compare_fields computed from the whole centered-difference u_t of a dense u."""
    x_lo, x_hi, t_lo, t_hi = window
    grid = char_field.grid
    times_l = dt * np.arange(1, u.shape[0] - 1)
    ut_l = (u[2:, :] - u[:-2, :]) / (2.0 * dt)
    xs = grid.x_nodes()
    xmask = (xs >= x_lo) & (xs <= x_hi)
    ix_leap = np.rint((xs[xmask] - x[0]) / dx).astype(int)
    worst = None
    for n in range(char_field.levels.shape[0]):
        t = n * grid.h
        if t < t_lo or t > t_hi or t < times_l[0] or t > times_l[-1]:
            continue
        k = min(int((t - times_l[0]) / dt), len(times_l) - 2)
        frac = (t - times_l[k]) / dt
        ut_here = (1.0 - frac) * ut_l[k, ix_leap] + frac * ut_l[k + 1, ix_leap]
        diff = np.max(np.abs(char_field.levels[n, xmask] - ut_here))
        worst = diff if worst is None else max(worst, diff)
    return float(worst)


class TestCompareFields:
    @pytest.mark.parametrize(
        "dx, cfl, t_lf, window",
        [
            (0.01, 0.9, 3.0, (-3.0, 3.0, 0.0, 3.0)),
            (0.01, 0.9, 3.0, (-1.0, 2.0, 0.5, 2.2)),
            (0.025, 0.8, 2.0, (-2.5, 2.5, 0.0, 10.0)),
            (0.05, 1.0, 0.1, (-1.0, 1.0, 0.0, 1.0)),  # three leapfrog levels: one u_t level
        ],
    )
    def test_equals_u_t_levels_reference(self, dx, cfl, t_lf, window):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        field, _ = march(params, data, GridSpec(h=0.05, t_max=3.0, pad=1.0))
        result, _ = leapfrog_solve(params, data, dx=dx, cfl=cfl, t_max=t_lf)
        reference = compare_from_u_t_levels(field, dense_u(result), result.x, result.dx, result.dt, window)
        assert compare_fields(field, result, window) == reference

    def test_linear_fields_agree(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-4, 1.0)
        grid = GridSpec(h=0.05, t_max=3.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=3.5)
        diff = compare_fields(field, result, (-3.0, 3.0, 0.5, 3.0))
        assert diff < 5e-3 * float(np.max(np.abs(field.levels)))

    def test_bad_windows_rejected(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-4, 1.0)
        grid = GridSpec(h=0.05, t_max=2.0, pad=1.0)
        field, _ = march(params, bump_data, grid)
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=2.0)
        with pytest.raises(ValueError):
            compare_fields(field, result, (1.0, -1.0, 0.0, 2.0))
        with pytest.raises(ValueError):
            compare_fields(field, result, (-1.0, 1.0, 50.0, 60.0))

    def test_rejects_grids_whose_nodes_do_not_coincide(self):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        field, _ = march(params, data, GridSpec(h=0.05, t_max=3.0, pad=1.0))
        window = (-3.0, 3.0, 0.0, 3.0)
        result, _ = leapfrog_solve(params, data, dx=0.03, cfl=0.9, t_max=3.0)
        with pytest.raises(ValueError, match="march step 0.05 is not a multiple of the leapfrog step"):
            compare_fields(field, result, window)
        # h a multiple of dx, but every march node a third of dx off the leapfrog's
        result, _ = leapfrog_solve(params, data, dx=0.01, cfl=0.9, t_max=3.0)
        shifted = CharField(GridSpec(h=0.05, t_max=3.0, pad=1.0 + 0.01 / 3), field.levels)
        with pytest.raises(ValueError, match="is not a leapfrog node"):
            compare_fields(shifted, result, window)
        assert compare_fields(field, result, window) < 0.05

    def test_rejects_fieldless_run(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-4, 1.0)
        field, _ = march(
            params, bump_data, GridSpec(h=0.05, t_max=2.0, pad=1.0), keep_field=False
        )
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=2.0)
        with pytest.raises(ValueError):
            compare_fields(field, result, (-1.0, 1.0, 0.0, 2.0))

    def test_cfl_validation(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            leapfrog_solve(params, bump_data, dx=0.05, cfl=1.5, t_max=1.0)
        for dx in (-0.05, math.inf, math.nan):
            with pytest.raises(ValueError, match="dx must be positive and finite"):
                leapfrog_solve(params, bump_data, dx=dx, cfl=0.9, t_max=1.0)

    def test_non_finite_epsilon_rejected(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, math.nan, 1.0)
        with pytest.raises(ValueError, match="epsilon must be finite"):
            leapfrog_solve(params, bump_data, dx=0.1, t_max=2.0)

    @pytest.mark.parametrize("t_max", [math.inf, -3.0])
    def test_non_finite_or_negative_t_max_rejected(self, bump_data, t_max):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            leapfrog_solve(params, bump_data, dx=0.1, t_max=t_max)


def dense_leapfrog(params, data, dx, cfl=0.9, t_max=10.0):
    """leapfrog_solve updating and storing every node of every level; returns (u, estimate)."""
    blow_threshold = default_blow_threshold(params, data)
    eps, p = params.epsilon, params.p
    L = t_max + params.R + 1.0
    n_side = int(np.ceil(L / dx))
    x = dx * np.arange(-n_side, n_side + 1)
    dt = cfl * dx
    n_t = int(np.ceil(t_max / dt))
    lam2 = (dt / dx) ** 2

    u = np.zeros((n_t + 1, x.size))
    u[0] = eps * data.f(x)
    g0 = eps * data.g(x)
    u0_xx = np.zeros_like(x)
    u0_xx[1:-1] = (u[0, 2:] - 2.0 * u[0, 1:-1] + u[0, :-2]) / dx**2
    src0 = np.abs(g0) ** p * nonlinear_weight(x, 0.0, params)
    u[1] = u[0] + dt * g0 + 0.5 * dt**2 * (u0_xx + src0)
    u[1, 0] = u[1, -1] = 0.0

    cause, T_blow, n_done = None, None, 1
    sup_history = [float(np.max(np.abs(g0))), float(np.max(np.abs((u[1] - u[0]) / dt)))]
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_t):
            t = n * dt
            if n >= 2:
                ut = (u[n] - u[n - 2]) / (2.0 * dt)
            else:
                ut = (u[1] - u[0]) / dt
            src = np.abs(ut) ** p * nonlinear_weight(x, t, params)
            unew = np.zeros_like(x)
            unew[1:-1] = (
                2.0 * u[n, 1:-1]
                - u[n - 1, 1:-1]
                + lam2 * (u[n, 2:] - 2.0 * u[n, 1:-1] + u[n, :-2])
                + dt**2 * src[1:-1]
            )
            sup_ut = float(np.max(np.abs(ut)))
            sup_history.append(sup_ut)
            if not np.all(np.isfinite(unew)) or sup_ut > blow_threshold:
                cause, T_blow = Cause.threshold_exceeded, t - 0.5 * dt
                break
            u[n + 1] = unew
            n_done = n + 1
    estimate = LifespanEstimate(T_blow=T_blow, h=dt, sup_history=sup_history, cause=cause)
    return u[: n_done + 1], estimate


def dense_energy(u, dx, dt, n):
    ut = (u[n + 1] - u[n - 1]) / (2.0 * dt)
    ux = np.gradient(u[n], dx)
    return float(0.5 * np.sum(ut**2 + ux**2) * dx)


class TestReplayedLevels:
    @pytest.mark.parametrize("family", [Family.bump, Family.bump_pair])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize(
        "eps, t_max, status",
        [(1.0, 8.0, Status.blowup), (0.01, 3.0, Status.survived)],
    )
    def test_equals_dense_reference(self, family, p, eps, t_max, status):
        # with R off the lattice the outermost nodes of |x| <= R carry data,
        # so a reach one node too narrow changes u
        params = ModelParams(p, -1.0, -1.0, eps, 1.01)
        data = InitialData(family, 0.7, 1.0, 1.01)
        result, est = leapfrog_solve(params, data, dx=0.02, cfl=0.9, t_max=t_max)
        u_ref, est_ref = dense_leapfrog(params, data, dx=0.02, cfl=0.9, t_max=t_max)
        assert est.status is est_ref.status is status
        assert np.array_equal(dense_u(result), u_ref)
        assert est.sup_history == est_ref.sup_history
        assert est.T_blow == est_ref.T_blow
        field, _ = march(params, data, GridSpec(h=0.1, t_max=t_max, pad=1.1))
        T = min(t_max, est.T_blow or t_max)
        window = (-(0.8 * T + 2.0), 0.8 * T + 2.0, 0.0, 0.8 * T)
        reference = compare_from_u_t_levels(field, u_ref, result.x, result.dx, result.dt, window)
        assert compare_fields(field, result, window) == reference

    def test_reach_clamped_at_both_dirichlet_ends(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        result, est = leapfrog_solve(params, bump_data, dx=0.05, cfl=0.5, t_max=3.0)
        u_ref, est_ref = dense_leapfrog(params, bump_data, dx=0.05, cfl=0.5, t_max=3.0)
        assert est.status is Status.survived
        # the last level is nonzero next to both Dirichlet ends: its reach hit both
        assert u_ref[-1, 1] != 0.0 and u_ref[-1, -2] != 0.0
        assert np.array_equal(dense_u(result), u_ref)
        assert est.sup_history == est_ref.sup_history

    def test_criterion_5_run_and_comparison_hold_a_few_rows(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        field, est_m = march(params, bump_data, GridSpec(h=0.025, t_max=10.0, pad=1.0))
        tracemalloc.start()
        try:
            result, est = leapfrog_solve(params, bump_data, dx=0.005, cfl=0.9, t_max=10.0)
            T = min(est_m.T_blow, est.T_blow)
            compare_fields(field, result, (-(0.8 * T + 2.0), 0.8 * T + 2.0, 0.0, 0.8 * T))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.status is Status.blowup
        # every stored level would take 1489 rows of 4801 nodes, about 57 MB
        assert peak <= 2 * 2**20
