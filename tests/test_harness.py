import json
import math

import numpy as np
import pytest

from wavelifespan.core import Family, GridSpec, InitialData, ModelParams
from wavelifespan.harness import (
    apriori_csv,
    fit_exponent,
    make_epsilon_ladder,
    run_cli,
    sweep,
    verify_apriori,
)
from wavelifespan.kernels import FreeField
from wavelifespan.solver import apply_duhamel_field, field_weighted_sup
from wavelifespan.theory import D_a, E_ab, lifespan_bound


class TestLadder:
    def test_polynomial_ladder_brackets_target_window(self):
        ladder = make_epsilon_ladder(2, -0.5, 0, 20.0, 200.0, n=8, c=1.0)
        assert len(ladder) == 8
        assert ladder == sorted(ladder)
        assert lifespan_bound(2, -0.5, 0, ladder[0], 1.0) == pytest.approx(200.0, rel=1e-10)
        assert lifespan_bound(2, -0.5, 0, ladder[-1], 1.0) == pytest.approx(20.0, rel=1e-10)
        ratios = [ladder[i + 1] / ladder[i] for i in range(7)]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-10)

    def test_calibration_constant_scales_ladder(self):
        base = make_epsilon_ladder(2, -0.5, 0, 20.0, 200.0, n=4, c=1.0)
        scaled = make_epsilon_ladder(2, -0.5, 0, 20.0, 200.0, n=4, c=4.0)
        assert np.allclose(np.array(scaled) / np.array(base), 2.0, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_epsilon_ladder(2, -0.5, 0, 200.0, 20.0)
        with pytest.raises(ValueError):
            make_epsilon_ladder(2, -0.5, 0, 20.0, 200.0, n=0)


class TestFitExponent:
    def test_exact_power_law(self):
        eps = np.geomspace(0.05, 0.5, 9)
        pairs = [(e, 5.0 * e**-2.0) for e in eps]
        report = fit_exponent(pairs, mode="power")
        assert report.slope == pytest.approx(-2.0, abs=1e-9)
        assert report.intercept == pytest.approx(math.log(5.0), abs=1e-9)
        assert report.r2 >= 1.0 - 1e-12
        assert report.n_points == 9

    def test_exact_exponential_law(self):
        eps = np.linspace(0.8, 2.0, 7)
        pairs = [(e, math.exp(3.0 / e + 1.0)) for e in eps]
        report = fit_exponent(pairs, mode="exponential", rate=1.0)
        assert report.slope == pytest.approx(3.0, abs=1e-9)
        assert report.intercept == pytest.approx(1.0, abs=1e-9)
        assert report.r2 >= 1.0 - 1e-12

    def test_filters_and_validates(self):
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 5.0), (0.2, 3.0)])
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 5.0), (0.2, 3.0), (0.3, math.inf), (-1.0, 2.0)])
        with pytest.raises(ValueError):
            fit_exponent([(0.1, 5.0), (0.2, 3.0), (0.3, 2.0)], mode="cubic")


class TestSweep:
    def test_rejects_global_regime(self, bump_data):
        params = ModelParams(2.0, 1.0, 0.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        with pytest.raises(ValueError, match="global"):
            sweep(params, bump_data, grid, [0.1, 0.2])

    def test_rejects_empty_ladder_and_zero_data(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        with pytest.raises(ValueError, match="empty"):
            sweep(params, bump_data, grid, [])
        zero = InitialData(Family.zero, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="bump"):
            sweep(params, zero, grid, [0.1])

    def test_deterministic_csv(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=8.0, pad=1.0)
        ladder = [0.5, 0.7, 1.0]
        csv_a = sweep(params, bump_data, grid, ladder).to_csv()
        csv_b = sweep(params, bump_data, grid, ladder, threads=2).to_csv()
        assert csv_a == csv_b
        lines = csv_a.splitlines()
        assert lines[0] == "epsilon,status,T_h,T_h2,resolved"
        assert len(lines) == 4

    def test_blowup_pairs_and_resolution(self, bump_data):
        params = ModelParams(2.0, -1.0, -1.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=10.0, pad=1.0)
        result = sweep(params, bump_data, grid, [0.5, 0.8])
        pairs = result.blowup_pairs()
        assert len(pairs) == 2
        for entry in result.entries:
            assert entry.blew_up()
            assert entry.resolved
            # fine estimate is the one reported
        eps, T = pairs[0]
        assert T == result.entries[0].est_h2.T_blow

    def test_exponential_reach_cap(self, bump_data):
        params = ModelParams(2.0, 0.0, 0.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        result = sweep(params, bump_data, grid, [0.05], exp_reach_cap=100.0)
        assert result.entries[0].error == "out_of_numerical_reach"
        assert not result.entries[0].blew_up()


def stored_field_ratios(params, data, h, T_ladder, test_field):
    """verify_apriori from whole stored fields, rescanning level prefixes per T."""
    grid = GridSpec(h=h, t_max=max(T_ladder), pad=max(1.0, params.R))
    p, R = params.p, params.R
    band = FreeField(data, grid, params.epsilon).field(grid.n_t)
    U = band if test_field == "free" else apply_duhamel_field(np.abs(band) ** p, grid, params, R)
    LU = apply_duhamel_field(np.abs(U) ** p, grid, params, R)
    LB = apply_duhamel_field(np.abs(band) ** (p - 1) * np.abs(U), grid, params, R)
    rows = []
    for T in T_ladder:
        n_T = grid.index_of_t(T)
        norm_U, norm_LU, norm_LB = (field_weighted_sup(V[: n_T + 1], grid, params) for V in (U, LU, LB))
        E = E_ab(T, p, params.a, params.b, R)
        D = D_a(T, params.a, R)
        rows.append((T, norm_LU / (E * norm_U**p), norm_LB / (D * norm_U)))
    return rows


class TestVerifyApriori:
    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    @pytest.mark.parametrize(
        "p, a, b, R, family",
        [
            # the five growth-factor cases of acceptance criterion 6
            (2.0, 1.0, 0.0, 1.0, Family.bump),
            (2.0, 0.0, 0.0, 2.0, Family.bump),
            (2.0, 0.5, -3.0, 1.0, Family.bump),
            (2.0, -0.5, 0.0, 1.0, Family.bump),
            (2.0, -0.5, -3.0, 1.0, Family.bump),
            # cubic, inner weight branch a < -1, and f' != 0 in the band
            (3.0, -1.5, 0.0, 1.0, Family.bump_pair),
        ],
    )
    def test_streamed_rows_equal_stored_field_reference(self, p, a, b, R, family, test_field):
        params = ModelParams(p, a, b, 0.01, R)
        data = InitialData(family, 0.7, 1.0, R)
        T_ladder = [0.5, 10.0, 20.0, 40.0, 80.0]
        rows = verify_apriori(params, data, 0.1, T_ladder, test_field)
        assert rows == stored_field_ratios(params, data, 0.1, T_ladder, test_field)

    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    def test_zero_data_is_rejected(self, test_field):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        data = InitialData(Family.zero, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="zero-norm test field"):
            verify_apriori(params, data, 0.1, [5.0], test_field)

    def test_rows_and_csv(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        rows = verify_apriori(params, bump_data, 0.1, [5.0, 10.0])
        assert [r[0] for r in rows] == [5.0, 10.0]
        for _, rE, rD in rows:
            assert rE > 0 and rD > 0
        text = apriori_csv(rows)
        assert text.splitlines()[0] == "T,ratio_E,ratio_D"
        assert len(text.splitlines()) == 3

    def test_picard_field_variant(self, bump_data):
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        rows = verify_apriori(params, bump_data, 0.1, [5.0], test_field="picard_U2")
        assert rows[0][1] > 0

    def test_validation(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError):
            verify_apriori(params, bump_data, 0.1, [])
        with pytest.raises(ValueError):
            verify_apriori(params, bump_data, 0.1, [5.0], test_field="mystery")


class TestCli:
    def test_classify_output(self, capsys):
        assert run_cli(["classify", "--p", "2", "--a", "-0.5", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "poly_a exponent 2"
        assert run_cli(["classify", "--p", "2", "--a", "1", "--b", "0"]) == 0
        assert capsys.readouterr().out.strip() == "global"

    def test_bounds_output(self, capsys):
        assert run_cli(["bounds", "--p", "2", "--a", "-0.5", "--b", "0", "--eps", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "100.0000"
        assert run_cli(["bounds", "--p", "2", "--a", "1", "--b", "0", "--eps", "0.1"]) == 0
        assert capsys.readouterr().out.strip() == "infinity"

    def test_solve_json(self, capsys):
        rc = run_cli(
            ["solve", "--p", "2", "--a", "0", "--b", "0", "--eps", "0.01", "--h", "0.1",
             "--tmax", "1.0"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "survived"

    def test_solve_validation_exit_code(self, capsys):
        rc = run_cli(["solve", "--p", "0.5", "--eps", "0.01", "--h", "0.1", "--tmax", "1.0"])
        assert rc == 1

    def test_phase_diagram_file(self, tmp_path):
        out = tmp_path / "phase.csv"
        rc = run_cli(["phase-diagram", "--p", "2", "--n-a", "3", "--n-b", "3", "--out", str(out)])
        assert rc == 0
        assert out.read_text().splitlines()[0] == "a,b,label,exponent"

    def test_blowup_seq_lines(self, capsys):
        rc = run_cli(["blowup-seq", "--p", "2", "--eps", "0.1", "--n", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("n=1 a_n=0")

    def test_unknown_flag_is_validation_error(self):
        assert run_cli(["classify", "--nonsense", "1"]) == 1
        assert run_cli(["no-such-command"]) == 1

    def test_sweep_rejects_global_via_cli(self, capsys):
        rc = run_cli(
            ["sweep", "--p", "2", "--a", "1", "--b", "0", "--h", "0.1", "--tmax", "5.0"]
        )
        assert rc == 1
        assert "global" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--eps", "nan"],
            ["solve", "--a", "nan"],
            ["sweep", "--a", "-0.5", "--h", "nan"],
            ["classify", "--a", "nan"],
            ["verify-apriori", "--eps", "nan"],
        ],
    )
    def test_non_finite_input_exits_1_before_marching(self, argv, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("march reached with non-finite input")

        monkeypatch.setattr("wavelifespan.harness.march", no_march)
        assert run_cli(argv) == 1
