import json

import numpy as np
import pytest
from scipy.integrate import quad

from wavelifespan.core import (
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    Status,
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
        assert g.t_levels()[-1] == pytest.approx(2.0)

    def test_index_roundtrip(self):
        g = GridSpec(h=0.05, t_max=4.0, pad=1.5)
        xs = g.x_nodes()
        for i in (0, 7, g.n_x // 2, g.n_x - 1):
            assert g.index_of_x(xs[i]) == i
        assert g.index_of_t(3.05) == 61

    def test_off_lattice_rejected(self):
        g = GridSpec(h=0.05, t_max=4.0, pad=1.0)
        with pytest.raises(ValueError):
            g.index_of_x(0.513)
        with pytest.raises(ValueError):
            g.index_of_t(0.026)


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
        est = LifespanEstimate(status=Status.survived, T_blow=None, h=0.05)
        payload = json.loads(est.to_json())
        assert payload["status"] == "survived"
        assert payload["T_blow"] is None
        assert payload["cause"] is None
