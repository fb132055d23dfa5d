import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from wavelifespan.core import (
    ALIGN_TOL,
    Cause,
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    Status,
    IndexTooLarge,
    lattice_index,
    load_config,
    validate,
)


class TestBumpFamily:
    def test_bump_peak_and_support(self):
        d = InitialData(Family.bump, 0.0, 2.5, 1.5)
        assert d.g(0.0) == pytest.approx(2.5)
        assert d.g(1.5) == 0.0
        assert d.g(-1.5) == 0.0
        assert d.g(2.0) == 0.0
        assert np.all(d.f(np.linspace(-2, 2, 41)) == 0.0)

    def test_bump_prime_matches_difference_quotient(self):
        d = InitialData(Family.bump, 0.0, 1.0, 1.0)
        xs = np.linspace(-0.95, 0.95, 101)
        eps = 1e-6
        numeric = (d.g(xs + eps) - d.g(xs - eps)) / (2 * eps)
        assert np.max(np.abs(numeric - d.g_prime(xs))) < 1e-7

    def test_bump_is_c2_at_the_edge(self):
        # (1-u^2)^3 has two vanishing derivatives at u = +-1
        d = InitialData(Family.bump, 0.0, 1.0, 1.0)
        for x in (1.0 - 1e-7, -1.0 + 1e-7):
            assert abs(d.g(x)) < 1e-18
            assert abs(d.g_prime(x)) < 1e-12

    def test_antiderivative_derivative_is_g(self):
        d = InitialData(Family.bump, 0.0, 3.0, 2.0)
        xs = np.linspace(-1.9, 1.9, 57)
        eps = 1e-6
        numeric = (d.g_antiderivative(xs + eps) - d.g_antiderivative(xs - eps)) / (2 * eps)
        assert np.max(np.abs(numeric - d.g(xs))) < 1e-6

    def test_total_integral_closed_form_and_quadrature(self):
        amp, R = 1.7, 1.25
        d = InitialData(Family.bump, 0.0, amp, R)
        closed = 32.0 * R * amp / 35.0
        assert d.g_total_integral() == pytest.approx(closed, rel=1e-12)
        oracle, err = quad(lambda x: float(d.g(x)), -R, R, epsabs=1e-12)
        assert d.g_total_integral() == pytest.approx(oracle, abs=1e-9)

    def test_bump_pair_has_nonzero_f(self):
        d = InitialData(Family.bump_pair, 0.5, 1.0, 1.0)
        assert d.f(0.0) == pytest.approx(0.5)
        assert d.sup_f_prime() > 0.0

    def test_zero_family(self):
        d = InitialData(Family.zero, 0.0, 0.0, 1.0)
        xs = np.linspace(-2, 2, 11)
        assert np.all(d.g(xs) == 0.0)
        assert d.sup_g() == 0.0
        assert d.g_total_integral() == 0.0


class TestGridSpec:
    def test_node_layout(self):
        g = GridSpec(h=0.1, t_max=2.0, pad=1.0)
        xs = g.x_nodes()
        assert g.n_x % 2 == 1
        assert xs[0] == pytest.approx(-3.0)
        assert xs[-1] == pytest.approx(3.0)
        assert np.allclose(xs + xs[::-1], 0.0, atol=1e-12)

    def test_index_roundtrip(self):
        g = GridSpec(h=0.05, t_max=4.0, pad=1.5)
        xs = g.x_nodes()
        for i in (0, 7, g.n_x // 2, g.n_x - 1):
            assert g.index_of_x(xs[i]) == i
        assert g.index_of_t(3.05) == 61

    def test_off_lattice_rejected(self):
        g = GridSpec(h=0.05, t_max=4.0, pad=1.0)
        for x in (0.513, math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="is not a lattice node"):
                g.index_of_x(x)
        for t in (0.026, math.inf, math.nan):
            with pytest.raises(ValueError, match="is not a lattice level"):
                g.index_of_t(t)

    def test_lattice_index_on_arrays(self):
        assert type(lattice_index(0.1, 0.05, "x")) is int
        k = lattice_index(np.array([0.0, 0.1, -0.3, 2.5]), 0.05, "x")
        assert k.dtype.kind == "i" and k.tolist() == [0, 2, -6, 50]
        assert lattice_index(np.zeros((2, 3)), 0.05, "x").shape == (2, 3)
        for bad in (0.013, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError) as scalar:
                lattice_index(bad, 0.05, "x is off the lattice")
            with pytest.raises(ValueError) as array:
                lattice_index(np.array([0.0, bad, 0.1]), 0.05, "x is off the lattice")
            assert str(array.value) == str(scalar.value) == "x is off the lattice (h=0.05)"

    @pytest.mark.parametrize("big", [1e19, -1e19, 2.0**63, 1e300])
    def test_lattice_index_rejects_an_index_past_int64(self, big):
        # an array index would wrap to -2^63; the scalar index is refused alike
        too_large = r"^x is too far \(h=1\.0\): index of magnitude 2\^63 or more$"
        for offset in (big, np.array([0.0, big])):
            with pytest.raises(IndexTooLarge, match=too_large):
                lattice_index(offset, 1.0, "x is too far")
        g = GridSpec(h=0.05, t_max=4.0, pad=1.0)
        for x in (big, np.array([0.0, big])):
            with pytest.raises(IndexTooLarge, match="is not a lattice node"):
                g.index_of_x(x)
        # the largest aligned ratio below 2^63 still fits
        assert lattice_index(np.array([2.0**63 - 1024]), 1.0, "x").tolist() == [2**63 - 1024]

    def test_index_of_arrays(self):
        g = GridSpec(h=0.05, t_max=4.0, pad=1.5)
        i = np.array([0, 7, g.n_x - 1])
        assert g.index_of_x(g.x_nodes()[i]).tolist() == i.tolist()
        assert g.index_of_t(np.array([0.0, 3.05])).tolist() == [0, 61]
        with pytest.raises(ValueError, match=r"x=\[\.\.\.\] is not a lattice node"):
            g.index_of_x(np.array([0.0, 0.513]))

    @pytest.mark.parametrize(
        "h, t_max, pad, R",
        [
            ("0.05", "4", "1", "1"),
            ("0.03", "3", "1.5", "1.3"),
            ("0.04", "2", "1.6", "1.5"),
            ("0.2", "2", "1.4", "1.3"),
            ("0.0125", "1", "3", "3"),
            ("0.1", "2", "2", "1.5"),
        ],
    )
    def test_active_slice_is_the_exact_cone(self, h, t_max, pad, R):
        # |x_i| <= t_n + R in exact rationals, clamped to the grid past t_max
        h, t_max, pad, R = map(Fraction, (h, t_max, pad, R))
        g = GridSpec(h=float(h), t_max=float(t_max), pad=float(pad))
        xs = [abs(-(t_max + pad) + i * h) for i in range(g.n_x)]
        for n in range(g.n_t + 4):
            inside = [i for i, x in enumerate(xs) if x <= n * h + R]
            assert g.active_slice(n, float(R)) == (inside[0], inside[-1])

    @pytest.mark.parametrize("h", [0.0, -0.05, math.inf, math.nan])
    def test_lattice_index_rejects_a_bad_step(self, h):
        with pytest.raises(ValueError, match=r"t=1\.0 is not a lattice level"):
            lattice_index(1.0, h, "t=1.0 is not a lattice level")


class TestValidate:
    def test_clean_config(self):
        params = ModelParams(2.0, -0.5, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        grid = GridSpec(h=0.05, t_max=10.0, pad=1.0)
        assert validate(params, data, grid) == []

    @pytest.mark.parametrize(
        "params, expected",
        [
            (ModelParams(1.0, 0.0, 0.0, 0.1, 1.0), "p must exceed 1"),
            (ModelParams(2.0, 0.0, 0.0, 0.1, 0.5), "R must be >= 1"),
            (ModelParams(2.0, 0.0, 0.0, -0.1, 1.0), "epsilon must be >= 0"),
        ],
    )
    def test_bad_params(self, params, expected):
        data = InitialData(Family.bump, 0.0, 1.0, params.R)
        assert expected in validate(params, data)

    @pytest.mark.parametrize("name", ["p", "a", "b", "epsilon", "R", "h", "t_max", "pad"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, value):
        fields = {"p": 2.0, "a": 0.0, "b": 0.0, "epsilon": 0.1, "R": 1.0}
        spec = {"h": 0.05, "t_max": 2.0, "pad": 1.0}
        (fields if name in fields else spec)[name] = value
        data = InitialData(Family.bump, 0.0, 1.0, fields["R"])
        assert f"{name} must be finite" in validate(ModelParams(**fields), data, GridSpec(**spec))

    def test_mismatched_support_radius(self):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 2.0)
        assert any("InitialData.R" in m for m in validate(params, data))

    def test_grid_violations(self):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 2.0)
        data = InitialData(Family.bump, 0.0, 1.0, 2.0)
        bad_pad = GridSpec(h=0.05, t_max=10.0, pad=1.0)
        assert any("pad" in m for m in validate(params, data, bad_pad))
        bad_mult = GridSpec(h=0.07, t_max=10.0, pad=2.1)
        assert any("multiple of h" in m for m in validate(params, data, bad_mult))

    @pytest.mark.parametrize(
        "amplitude_g, spec, expected",
        [
            (1.0, dict(h=0.0, t_max=2.0), "h must be positive"),
            (1.0, dict(h=-0.05, t_max=2.0), "h must be positive"),
            (1.0, dict(h=0.05, t_max=0.0), "t_max must be positive"),
            (1.0, dict(h=0.05, t_max=-2.0), "t_max must be positive"),
            (-1.0, dict(h=0.05, t_max=2.0), "amplitude_g must be >= 0 so that integral of g is positive"),
        ],
    )
    def test_grid_step_horizon_and_amplitude(self, amplitude_g, spec, expected):
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, amplitude_g, 1.0)
        assert validate(params, data, GridSpec(pad=3.0, **spec)) == [expected]

    def test_t_max_whose_index_is_past_int64(self):
        # 1e20 / 0.05 is an integer, but 2e21 does not fit in int64
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        messages = validate(params, data, GridSpec(h=0.05, t_max=1e20, pad=1.0))
        assert messages == ["t_max / h must be below 2^63", "t_max+pad / h must be below 2^63"]

    @pytest.mark.parametrize("slack", [-2.0, -0.999, 0.999, 2.0])
    def test_t_max_alignment_agrees_with_index_of_t(self, slack):
        # t_max off the lattice by slack times lattice_index's tolerance at
        # ratio 200; |slack| = 0.999 lies within it only by its absolute term
        k, h = 200, 0.05
        grid = GridSpec(h=h, t_max=(k + slack * ALIGN_TOL * (k + 1)) * h, pad=1.0)
        params = ModelParams(2.0, 0.0, 0.0, 0.1, 1.0)
        data = InitialData(Family.bump, 0.0, 1.0, 1.0)
        flagged = "t_max must be an integer multiple of h" in validate(params, data, grid)
        try:
            grid.index_of_t(grid.t_max)
            rejected = False
        except ValueError:
            rejected = True
        assert flagged == rejected == (abs(slack) > 1)


class TestConfig:
    def test_load_full_config(self):
        cfg = {
            "p": 2,
            "a": -0.5,
            "b": 0,
            "epsilon": 0.25,
            "R": 1.5,
            "f": {"family": "zero", "amplitude": 0.0},
            "g": {"family": "bump", "amplitude": 2.0},
            "grid": {"h": 0.1, "t_max": 30.0, "pad": 1.5},
        }
        params, data, grid = load_config(cfg)
        assert params == ModelParams(2.0, -0.5, 0.0, 0.25, 1.5)
        assert data.family is Family.bump
        assert data.amplitude_g == 2.0
        assert data.R == 1.5
        assert grid.h == 0.1 and grid.t_max == 30.0
        assert validate(params, data, grid) == []

    def test_defaults_and_bump_pair(self):
        params, data, grid = load_config(
            {
                "p": 2,
                "a": 0,
                "b": 0,
                "epsilon": 0.1,
                "f": {"family": "bump", "amplitude": 0.3},
                "g": {"family": "bump", "amplitude": 1.0},
            }
        )
        assert data.family is Family.bump_pair
        assert data.amplitude_f == 0.3
        assert grid.h == 0.05

    def test_estimate_json(self):
        est = LifespanEstimate(T_blow=None, h=0.05)
        payload = json.loads(est.to_json())
        assert payload["status"] == "survived"
        assert payload["T_blow"] is None
        assert payload["cause"] is None

    @pytest.mark.parametrize(
        "cause, status",
        [
            (None, Status.survived),
            (Cause.threshold_exceeded, Status.blowup),
            (Cause.no_root, Status.blowup),
            (Cause.inner_max_exhausted, Status.inner_iteration_failed),
        ],
    )
    def test_status_follows_cause(self, cause, status):
        est = LifespanEstimate(T_blow=None if cause is None else 1.0, h=0.05, cause=cause)
        assert est.status is status
        payload = json.loads(est.to_json())
        assert (payload["status"], payload["cause"]) == (status.value, cause and cause.value)
