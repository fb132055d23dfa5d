import numpy as np
import pytest

from wavelifespan.core import Family, GridSpec, InitialData, ModelParams, Status
from wavelifespan.kernels import free_solution
from wavelifespan.oracle import compare_fields, discrete_energy, leapfrog_solve
from wavelifespan.solver import march


class TestLinearLimit:
    def _error_vs_dalembert(self, dx, data, eps):
        # with eps tiny the source is O(eps^p) and the scheme should
        # reproduce the exact d'Alembert solution to O(dx^2)
        params = ModelParams(2.0, 0.0, 0.0, eps, 1.0)
        result, est = leapfrog_solve(params, data, dx=dx, cfl=0.9, t_max=4.0)
        assert est.status is Status.survived
        n = result.u.shape[0] - 1
        t = n * result.dt
        exact = free_solution(result.x, t, data, eps)
        return float(np.max(np.abs(result.u[n] - exact)))

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
        n_lo = int(round(1.0 / result.dt))
        n_hi = result.u.shape[0] - 2
        e_lo = discrete_energy(result, n_lo)
        e_hi = discrete_energy(result, n_hi)
        assert e_lo > 0
        assert abs(e_hi - e_lo) / e_lo < 0.01

    def test_huygens_band_support_of_u_t(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-4, 1.0)
        result, _ = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=4.0)
        times, ut = result.u_t_levels()
        n = len(times) - 1
        t = times[n]
        # u_t should live on ||x| - t| <= R up to scheme smearing
        outside = np.abs(np.abs(result.x) - t) > params.R + 5 * result.dx
        sup_out = float(np.max(np.abs(ut[n][outside])))
        sup_in = float(np.max(np.abs(ut[n])))
        assert sup_out < 1e-4 * sup_in

    def test_energy_level_bounds(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 1e-6, 1.0)
        result, _ = leapfrog_solve(params, bump_data, dx=0.05, cfl=0.9, t_max=1.0)
        with pytest.raises(ValueError):
            discrete_energy(result, 0)
        with pytest.raises(ValueError):
            discrete_energy(result, result.u.shape[0] - 1)


class TestBlowupAgreement:
    def test_blowup_time_near_march(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
        _, est_m = march(
            params, bump_data, GridSpec(h=0.05, t_max=10.0, pad=1.0), keep_field=False
        )
        _, est_l = leapfrog_solve(params, bump_data, dx=0.01, cfl=0.9, t_max=10.0)
        assert est_m.status is Status.blowup and est_l.status is Status.blowup
        assert abs(est_m.T_blow - est_l.T_blow) / est_l.T_blow < 0.10


def compare_from_u_t_levels(char_field, leapfrog, window):
    """compare_fields computed from the whole centered-difference u_t array."""
    x_lo, x_hi, t_lo, t_hi = window
    grid = char_field.grid
    times_l, ut_l = leapfrog.u_t_levels()
    xs = grid.x_nodes()
    xmask = (xs >= x_lo) & (xs <= x_hi)
    ix_leap = np.rint((xs[xmask] - leapfrog.x[0]) / leapfrog.dx).astype(int)
    worst = None
    for n in range(char_field.levels.shape[0]):
        t = n * grid.h
        if t < t_lo or t > t_hi or t < times_l[0] or t > times_l[-1]:
            continue
        k = min(int((t - times_l[0]) / leapfrog.dt), len(times_l) - 2)
        frac = (t - times_l[k]) / leapfrog.dt
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
        assert compare_fields(field, result, window) == compare_from_u_t_levels(field, result, window)

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
        with pytest.raises(ValueError):
            leapfrog_solve(params, bump_data, dx=-0.05, cfl=0.9, t_max=1.0)
