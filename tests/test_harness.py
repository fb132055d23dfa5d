import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wavelifespan
from wavelifespan import harness
from wavelifespan.core import (
    Cause,
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    Status,
)
from wavelifespan.harness import (
    SweepEntry,
    SweepResult,
    apriori_csv,
    fit_exponent,
    make_epsilon_ladder,
    run_cli,
    sweep,
    verify_apriori,
)
from wavelifespan.kernels import CharAccumulator, weight_w
from wavelifespan.solver import (
    BLOCK,
    apply_duhamel_field,
    apriori_profiles,
    march,
    march_bytes,
    sup_history_bytes,
)
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
        # rate 0 and NaN leave no slope to fit, a negative or infinite rate no
        # exponential law, and rate 400 overflows 0.1^-rate
        for rate in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite rate > 0"):
                fit_exponent([(0.1, 5.0), (0.2, 3.0), (0.3, 2.0)], mode="exponential", rate=rate)
        with pytest.raises(ValueError, match="not finite for eps=0.1 at rate=400"):
            fit_exponent([(0.1, 5.0), (0.2, 3.0), (0.3, 2.0)], mode="exponential", rate=400.0)

    @pytest.mark.parametrize("mode", ["power", "exponential"])
    @pytest.mark.parametrize("seed", range(8))
    def test_closed_form_line_equals_polyfit(self, mode, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        eps = rng.uniform(0.05, 2.0, n)
        eps[0] = eps[1]  # a repeated epsilon is one more point on the line
        X = np.log(eps) if mode == "power" else eps**-1.5
        T = np.exp(rng.uniform(1.0, 3.0) + rng.uniform(-2.5, 2.5) * X + rng.normal(0.0, 0.05, n))
        report = fit_exponent(list(zip(eps, T)), mode=mode, rate=1.5)
        slope, intercept = np.polyfit(X, np.log(T), 1)
        assert report.slope == pytest.approx(slope, rel=1e-12)
        assert report.intercept == pytest.approx(intercept, rel=1e-12)
        assert report.n_points == n

    @pytest.mark.parametrize("mode", ["power", "exponential"])
    def test_rejects_a_single_distinct_epsilon(self, mode):
        # one epsilon repeated has no slope; polyfit would return one anyway
        with pytest.raises(ValueError, match="2 distinct epsilon"):
            fit_exponent([(0.1, 10.0), (0.1, 12.0), (0.1, 11.0)], mode=mode)
        with pytest.raises(ValueError, match="2 distinct epsilon"):
            fit_exponent([(0.1, 10.0), (0.1, 12.0), (0.2, math.inf), (0.1, 11.0)], mode=mode)


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
        # lifespan_bound predicts e^20 for eps = 0.05, past 1e4 * R
        result = sweep(params, bump_data, grid, [0.05])
        assert result.entries[0].error == "out_of_numerical_reach"
        assert not result.entries[0].blew_up()

    @pytest.mark.parametrize("a, zero_error", [(-0.5, None), (0.0, "out_of_numerical_reach")])
    def test_zero_epsilon_rung_leaves_the_rest_of_the_ladder(self, a, zero_error, bump_data):
        # a polynomial-regime eps = 0 marches zero data and survives; an
        # exponential-regime one predicts no end, so it is out of reach
        params = ModelParams(2.0, a, 0.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        zero, rung = sweep(params, bump_data, grid, [0.5, 0.0]).entries
        assert zero.epsilon == 0.0 and zero.error == zero_error
        if zero_error is None:
            assert zero.est_h.status is Status.survived and zero.est_h2.status is Status.survived
            assert max(zero.est_h.sup_history) == 0.0
        assert rung.error is None and rung.est_h is not None

    def test_nan_rung_sorts_last(self, bump_data):
        # a NaN compares false both ways: plain sorted() leaves it, and the rungs after it, in place
        params = ModelParams(2.0, -1.0, -1.0, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        entries = sweep(params, bump_data, grid, [0.5, math.nan, 0.2]).entries
        assert [e.epsilon for e in entries[:2]] == [0.2, 0.5]
        assert math.isnan(entries[2].epsilon) and "epsilon must be finite" in entries[2].error
        assert all(e.error is None for e in entries[:2])


# one (p, a, b) per blow-up regime, then p = 1.5 and p = 3; each ladder has a
# rung that fails validation, one that survives to t_max at h, and blow-ups
# detected at different levels
LADDERS = [
    ((2.0, -0.5, 0.0), [-0.1, 0.3, 0.9, 1.2]),  # poly_a
    ((2.0, -0.5, -3.0), [-0.1, 0.1, 0.4, 0.7, 1.0]),  # poly_pab
    ((2.0, 0.0, 0.0), [-0.1, 0.5, 2.0, 3.0]),  # exp_p_minus_1
    ((2.0, 0.5, -3.0), [-0.1, 1.0, 1.6, 2.0, 3.0]),  # exp_p_p_minus_1
    ((1.5, -1.0, -1.0), [-0.1, 0.02, 0.3, 0.8, 1.2]),
    ((3.0, -0.5, -3.0), [-0.1, 0.2, 0.7, 1.0, 1.5]),
]


class TestLockstepLadder:
    """sweep marches each grid's ladder in lockstep, bitwise as rung-by-rung marches."""

    @pytest.mark.parametrize("pab, ladder", LADDERS)
    def test_equals_one_march_per_rung(self, pab, ladder, bump_data):
        params = ModelParams(*pab, 0.0, 1.0)
        grid = GridSpec(h=0.1, t_max=20.0, pad=1.0)
        fine = GridSpec(h=0.05, t_max=20.0, pad=1.0)
        result = sweep(params, bump_data, grid, ladder)
        invalid, *entries = result.entries
        assert invalid.error == "invalid configuration: epsilon must be >= 0"
        detected = set()
        for e in entries:
            for est, g in ((e.est_h, grid), (e.est_h2, fine)):
                _, ref = march(replace(params, epsilon=e.epsilon), bump_data, g, keep_field=False)
                assert est.cause is ref.cause and est.T_blow == ref.T_blow
                assert np.array(est.sup_history).tobytes() == np.array(ref.sup_history).tobytes()
            detected.add(len(e.est_h.sup_history) if e.blew_up() else None)
        assert None in detected and len(detected) >= 3  # a survivor and two detection levels
        csv = result.to_csv()
        alone = [sweep(params, bump_data, grid, [e.epsilon]).to_csv().splitlines() for e in result.entries]
        assert csv.splitlines() == alone[0][:1] + [lines[1] for lines in alone]
        assert sweep(params, bump_data, grid, ladder, threads=2).to_csv() == csv


def test_serial_sweep_and_fit_load_neither_numpy_ma_nor_a_thread_pool():
    # np.unique would import numpy.ma, and a thread pool concurrent.futures with
    # logging; threads=2 is accepted and marches the same one lockstep path
    src = str(Path(wavelifespan.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import runpy, sys, wavelifespan\n"
        "from wavelifespan.core import Family, GridSpec, InitialData, ModelParams\n"
        "from wavelifespan.harness import fit_exponent, sweep\n"
        "result = sweep(ModelParams(2.0, -1.0, -1.0, 0.0, 1.0), InitialData(Family.bump, 0.0, 1.0, 1.0),\n"
        "               GridSpec(h=0.1, t_max=8.0, pad=1.0), [0.5, 0.7, 1.0])\n"
        "fit_exponent(result.blowup_pairs())\n"
        "sweep(ModelParams(2.0, -1.0, -1.0, 0.0, 1.0), InitialData(Family.bump, 0.0, 1.0, 1.0),\n"
        "      GridSpec(h=0.1, t_max=8.0, pad=1.0), [0.5, 0.7, 1.0], threads=2)\n"
        "sys.argv = ['wavelifespan', 'sweep', '--a', '-1', '--b', '-1', '--h', '0.1', '--tmax', '40',\n"
        "            '--t-lo', '5', '--t-hi', '10', '--n-eps', '3', '--fit', 'power']\n"
        "try:\n"
        "    runpy.run_module('wavelifespan', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "loaded = sorted({'numpy.ma', 'concurrent.futures'} & set(sys.modules))\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "fit mode=power" in proc.stdout


def stored_band(params, data, grid):
    """The band free field B = eps*u_t0 on every node of every level."""
    return CharAccumulator.seeded(data, grid, params.epsilon).values(0, grid.n_t + 1, 0, grid.n_x - 1)


def stored_fields(params, data, grid, test_field):
    """The test field U, L'(|U|^p) and L'(|B|^{p-1}|U|) as whole stored fields.

    On the free field U = B, so L'(|B|^{p-1}|U|) is taken as L'(|B|^p), as
    apriori_profiles takes it; TestFreeNumerators checks that identity
    against L'(|B|^{p-1}|B|).
    """
    p = params.p
    band = stored_band(params, data, grid)
    U = band if test_field == "free" else apply_duhamel_field(np.abs(band) ** p, grid, params)
    LU = apply_duhamel_field(np.abs(U) ** p, grid, params)
    if test_field == "free":
        LB = LU
    else:
        LB = apply_duhamel_field(np.abs(band) ** (p - 1) * np.abs(U), grid, params)
    return U, LU, LB


def level_sups(V, grid, params):
    """sup |w V| over the active cone of each level of a stored field, w*0 counted as 0."""
    x = grid.x_nodes()
    out = np.empty(V.shape[0])
    for n in range(V.shape[0]):
        lo, hi = grid.active_slice(n, params.R)
        w = weight_w(x[lo : hi + 1], n * grid.h, params)
        Vn = V[n, lo : hi + 1]
        out[n] = np.max(np.where(Vn == 0.0, 0.0, w) * np.abs(Vn))
    return out


def stored_field_profiles(params, data, grid, test_field):
    """apriori_profiles from whole stored fields, one level at a time."""
    return np.array([level_sups(V, grid, params) for V in stored_fields(params, data, grid, test_field)])


def stored_field_ratios(params, data, h, T_ladder, test_field):
    """verify_apriori from whole stored fields, rescanning level prefixes per T."""
    grid = GridSpec(h=h, t_max=max(T_ladder), pad=max(1.0, params.R))
    p, R = params.p, params.R
    U, LU, LB = stored_fields(params, data, grid, test_field)
    rows = []
    for T in T_ladder:
        n_T = grid.index_of_t(T)
        norm_U, norm_LU, norm_LB = (np.max(level_sups(V[: n_T + 1], grid, params)) for V in (U, LU, LB))
        E = E_ab(T, p, params.a, params.b, R)
        D = D_a(T, params.a, R)
        rows.append((T, norm_LU / (E * norm_U**p), norm_LB / (D * norm_U)))
    return rows


# (p, a, b, R) of the five growth-factor cases of acceptance criterion 6, then p != 2
FREE_CASES = [
    (2.0, 1.0, 0.0, 1.0, Family.bump),
    (2.0, 0.0, 0.0, 2.0, Family.bump),
    (2.0, 0.5, -3.0, 1.0, Family.bump),
    (2.0, -0.5, 0.0, 1.0, Family.bump),
    (2.0, -0.5, -3.0, 1.0, Family.bump_pair),
    (3.0, -1.5, 0.0, 1.0, Family.bump_pair),
    (3.0, 0.0, 0.0, 2.0, Family.bump),
    (2.5, -0.5, 0.0, 1.0, Family.bump_pair),
    (1.5, 1.0, 0.0, 1.0, Family.bump),
]


class TestFreeNumerators:
    """On the free test field U = B both numerators are L'(|B|^p)."""

    @staticmethod
    def profiles(p, a, b, R, family):
        params = ModelParams(p, a, b, 0.01, R)
        data = InitialData(family, 0.7, 1.0, R)
        grid = GridSpec(h=0.1, t_max=20.0, pad=max(1.0, R))
        return params, data, grid, apriori_profiles(params, data, grid, "free")

    @pytest.mark.parametrize("p, a, b, R, family", FREE_CASES)
    def test_rows_1_and_2_are_one_field(self, p, a, b, R, family):
        *_, profiles = self.profiles(p, a, b, R, family)
        assert np.any(profiles[1] > 0)
        assert np.array_equal(profiles[1], profiles[2])

    @pytest.mark.parametrize("test_field, n_acc", [("free", 2), ("picard_U2", 4)])
    def test_free_pass_steps_one_accumulator_besides_the_seed(self, test_field, n_acc, monkeypatch):
        built = []

        class Counted(CharAccumulator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr("wavelifespan.solver.CharAccumulator", Counted)
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        grid = GridSpec(h=0.1, t_max=5.0, pad=1.0)
        apriori_profiles(params, InitialData(Family.bump, 0.0, 1.0, 1.0), grid, test_field)
        assert len(built) == n_acc

    @pytest.mark.parametrize("p, a, b, R, family", FREE_CASES)
    def test_row_2_matches_independent_reference(self, p, a, b, R, family):
        params, data, grid, profiles = self.profiles(p, a, b, R, family)
        band = stored_band(params, data, grid)
        LB = apply_duhamel_field(np.abs(band) ** (p - 1) * np.abs(band), grid, params)
        ref = level_sups(LB, grid, params)
        if p == 2:
            # |B|^1 * |B| and |B|^2 are bitwise equal under numpy's power fast paths
            assert np.array_equal(profiles[2], ref)
        else:
            np.testing.assert_allclose(profiles[2], ref, rtol=1e-15, atol=0.0)


class TestAprioriMemory:
    @pytest.mark.parametrize("test_field, bound", [("free", 5e6), ("picard_U2", 7.5e6)])
    def test_pass_holds_a_few_blocks(self, test_field, bound, bump_data):
        # criterion 6's a < 0 case at h = 0.05, T = 80: a block of 32 levels
        # spans up to 3241 nodes, 0.83 MB a field; the free pass peaks at
        # 3.6 MB and the picard_U2 pass, which steps two more fields, one of
        # them from a dense source, at 7.1 MB
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        grid = GridSpec(h=0.05, t_max=80.0, pad=1.0)
        tracemalloc.start()
        try:
            apriori_profiles(params, bump_data, grid, test_field)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestAprioriProfilesInput:
    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    @pytest.mark.parametrize(
        "params, data, message",
        [
            (
                ModelParams(2.0, -0.5, 0.0, math.nan, 1.0),
                InitialData(Family.bump, 0.0, 1.0, 1.0),
                "epsilon must be finite",
            ),
            (
                ModelParams(2.0, -0.5, 0.0, 0.01, 1.0),
                InitialData(Family.bump, 0.0, 1.0, 2.0),
                r"InitialData\.R must equal ModelParams\.R",
            ),
        ],
        ids=["nan_epsilon", "mismatched_R"],
    )
    def test_invalid_input_is_rejected(self, params, data, message, test_field):
        grid = GridSpec(h=0.1, t_max=5.0, pad=2.0)
        with pytest.raises(ValueError, match=message):
            apriori_profiles(params, data, grid, test_field)


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
    @pytest.mark.parametrize("n_levels", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    @pytest.mark.parametrize(
        "p, a, b, R, family",
        [
            (2.0, -0.5, 0.0, 1.0, Family.bump),
            (2.0, 0.0, 0.0, 2.0, Family.bump),  # a = 0: the 1/log outer weight
            (3.0, -1.5, 0.0, 1.0, Family.bump_pair),
        ],
    )
    def test_blocked_profiles_equal_per_level_reference(
        self, p, a, b, R, family, n_levels, test_field, amplitude_f=0.7
    ):
        params = ModelParams(p, a, b, 0.01, R)
        data = InitialData(family, amplitude_f, 1.0, R)
        grid = GridSpec(h=0.1, t_max=0.1 * (n_levels - 1), pad=max(1.0, R))
        assert grid.n_t + 1 == n_levels
        profiles = apriori_profiles(params, data, grid, test_field)
        assert np.array_equal(profiles, stored_field_profiles(params, data, grid, test_field))

    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    @pytest.mark.parametrize("n_levels", [2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1])
    def test_blocked_profiles_with_negative_f_equal_per_level_reference(self, n_levels, test_field):
        # f' < 0 where the cases above have f' > 0: every node off a level's
        # cone, signed zeros included, stays as the reference's
        self.test_blocked_profiles_equal_per_level_reference(
            2.0, -0.5, -3.0, 1.0, Family.bump_pair, n_levels, test_field, amplitude_f=-0.7
        )

    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    def test_pass_takes_one_slice_per_block(self, test_field, bump_data, monkeypatch):
        calls = []
        active_slice = GridSpec.active_slice

        def spy(grid, n, R):
            calls.append(n)
            return active_slice(grid, n, R)

        monkeypatch.setattr(GridSpec, "active_slice", spy)
        verify_apriori(ModelParams(2.0, -0.5, 0.0, 0.01, 1.0), bump_data, 0.1, [5.0, 10.0], test_field)
        # levels 0..100: the last level of each block, the widest
        assert calls == [31, 63, 95, 100]

    @pytest.mark.parametrize("test_field", ["free", "picard_U2"])
    def test_zero_data_is_rejected(self, test_field):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        data = InitialData(Family.zero, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="test field is 0 on"):
            verify_apriori(params, data, 0.1, [5.0], test_field)

    def test_zero_norm_at_one_T_is_rejected_naming_it(self, bump_data):
        # U = L'(|B|^p) vanishes on level 0, so its norm over [0, 0] is 0
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError, match="T=0:"):
            verify_apriori(params, bump_data, 0.1, [0.0, 5.0], test_field="picard_U2")

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

    def test_singular_weight_on_the_test_field_is_rejected(self, bump_data):
        # a = 0 and R = 1: w = 1/log(t+|x|+R) is infinite at t = x = 0, where B != 0
        params = ModelParams(2.0, 0.0, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError, match="weight w is singular"):
            verify_apriori(params, bump_data, 0.1, [5.0, 10.0])
        # U = L'(|B|^p) vanishes at that node, so the Picard field stays valid
        rows = verify_apriori(params, bump_data, 0.1, [5.0, 10.0], test_field="picard_U2")
        assert all(math.isfinite(r) and r > 0 for _, rE, rD in rows for r in (rE, rD))

    @pytest.fixture
    def pass_calls(self, monkeypatch):
        """Every call that reaches the streamed pass, which still runs."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return apriori_profiles(*args, **kwargs)

        monkeypatch.setattr("wavelifespan.harness.apriori_profiles", spy)
        return calls

    @pytest.mark.parametrize(
        "T_ladder, message",
        [
            ([-5.0, 10.0], "finite and >= 0"),
            ([math.nan, 10.0], "finite and >= 0"),
            ([5.0, math.inf], "finite and >= 0"),
            ([5.01, 10.0], "not a lattice level"),
            ([5.0, 10.01], "t=10.01 is not a lattice level"),  # the largest T, before the grid's checks
            ([0.0], "the largest T must be positive, got T=0"),
        ],
    )
    def test_bad_T_is_rejected_before_the_pass(self, T_ladder, message, bump_data, pass_calls):
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError, match=message):
            verify_apriori(params, bump_data, 0.05, T_ladder)
        assert pass_calls == []
        verify_apriori(params, bump_data, 0.05, [5.0, 10.0])
        assert len(pass_calls) == 1  # the spy sees a valid ladder's pass

    @pytest.mark.parametrize("h", [0.0, -0.05, math.nan, math.inf])
    def test_bad_h_is_rejected_before_the_pass(self, h, bump_data, pass_calls):
        params = ModelParams(2.0, -0.5, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError, match=re.escape(f"the step h must be finite and > 0, got h={h:g}")):
            verify_apriori(params, bump_data, h, [5.0, 10.0])
        assert pass_calls == []

    @pytest.mark.parametrize(
        "a, eps, test_field",
        [
            (-0.5, 1e160, "free"),  # ||U||^p overflows
            (-0.5, 1e80, "picard_U2"),  # ||U||^p overflows, ||U|| does not
            (-0.5, 1e160, "picard_U2"),  # ||U|| overflows
            (0.0, 1e160, "picard_U2"),  # a = 0, R = 1, but U = 0 where w is singular
        ],
    )
    def test_overflow_is_rejected_naming_eps(self, a, eps, test_field, bump_data):
        params = ModelParams(2.0, a, 0.0, eps, 1.0)
        message = re.escape(f"the weighted norms overflow at T=5 for eps={eps:g}")
        with pytest.raises(ValueError, match=message):
            verify_apriori(params, bump_data, 0.1, [5.0, 10.0], test_field)

    def test_validation(self, bump_data):
        params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)
        with pytest.raises(ValueError):
            verify_apriori(params, bump_data, 0.1, [])
        with pytest.raises(ValueError):
            verify_apriori(params, bump_data, 0.1, [5.0], test_field="mystery")


VALID_CONFIG = {"p": 2, "a": 0.0, "b": 0.0, "epsilon": 0.1}


class TestCli:
    @staticmethod
    def no_march(*args, **kwargs):
        raise AssertionError("march reached with malformed input")

    @classmethod
    def forbid_march(cls, monkeypatch):
        """Stub both march entry points that the CLI reaches: solve's march and sweep's march_ladder."""
        for name in ("march", "march_ladder"):
            monkeypatch.setattr(f"wavelifespan.harness.{name}", cls.no_march)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--p", "2", "--a", "-0.5", "--eps", "1e-200"],
            ["bounds", "--p", "3", "--a", "0", "--b", "0", "--eps", "1e-200"],
        ],
    )
    def test_bounds_past_float_range_print_infinity(self, argv, capsys):
        assert run_cli(argv) == 0
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
        captured = capsys.readouterr()
        assert captured.err == "error: invalid configuration: p must exceed 1\n"
        assert captured.out == ""

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

    def test_module_entry_point(self):
        src = str(Path(wavelifespan.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def run(*argv):
            cmd = [sys.executable, "-m", "wavelifespan", *argv]
            return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

        proc = run("classify", "--p", "2", "--a", "-0.5", "--b", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "poly_a exponent 2"
        assert run("solve", "--eps", "nan").returncode == 1

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
            ["blowup-seq", "--M1", "inf"],
            ["blowup-seq", "--a", "nan"],
            ["bounds", "--eps", "inf"],
            ["sweep", "--t-hi", "inf"],
        ],
    )
    def test_non_finite_input_exits_1_before_marching(self, argv, monkeypatch):
        self.forbid_march(monkeypatch)
        assert run_cli(argv) == 1

    def test_solve_out_past_the_field_limit_exits_1_before_opening_it(self, tmp_path, capsys, monkeypatch):
        # (10^6 + 1) * 2002001 doubles, about 16 TB
        self.forbid_march(monkeypatch)
        out = tmp_path / "field.csv"
        assert run_cli(["solve", "--h", "0.001", "--tmax", "1000", "--out", str(out)]) == 1
        assert "above the 2 GiB limit" in capsys.readouterr().err
        assert not out.exists()

    # Footprints in doubles at h = 0.1, T = 1 and pad 1 (n_t = 10, n_x = 41; at h/2,
    # n_t = 20, n_x = 81): 2 (n_x + n_t) per accumulator, n_t + 1 per level row (4
    # per sup history, 6 for the a-priori tables), n_x per node row (16 for the
    # seeding, 4 or 8 block arrays of BLOCK = 32 rows), and (n_t + 1) n_x per field;
    # sweep counts its pass at h/2 and the sup histories of its pass at h.
    @pytest.mark.parametrize(
        "argv, out, doubles, computes",
        [
            (["solve"], False, 2 * 51 + 4 * 11 + 16 * 41, "march"),
            (["solve"], True, 2 * 51 + 4 * 11 + 16 * 41 + 11 * 41, "march"),
            (["sweep", "--n-eps", "3"], True,
             3 * 2 * 101 + 3 * 4 * 21 + 16 * 81 + 3 * 4 * 11, "march_ladder"),
            (["verify-apriori"], True, 2 * 2 * 51 + 6 * 11 + (16 + 4 * 32) * 41, "apriori_profiles"),
            (["verify-apriori", "--field", "picard_U2"], True,
             4 * 2 * 51 + 6 * 11 + (16 + 8 * 32) * 41, "apriori_profiles"),
        ],
    )
    def test_memory_limit_is_inclusive(self, argv, out, doubles, computes, tmp_path, capsys, monkeypatch):
        path = tmp_path / "out.csv"
        tail = ["--out", str(path)] if out else []
        grid = ["--h", "0.1", "--T" if argv[0] == "verify-apriori" else "--tmax", "1"]
        argv = [*argv, "--a", "-0.5", *grid, *tail]
        calls = []
        real = getattr(harness, computes)
        monkeypatch.setattr(harness, computes, lambda *args, **kw: calls.append(1) or real(*args, **kw))
        monkeypatch.setattr(harness, "MAX_PASS_BYTES", 8 * doubles - 1)
        assert run_cli(argv) == 1
        size, limit = 8 * doubles / 2**30, (8 * doubles - 1) / 2**30
        assert f"the pass would hold {size:.3g} GiB, above the {limit:g} GiB limit" in capsys.readouterr().err
        assert calls == [] and not path.exists()
        monkeypatch.setattr(harness, "MAX_PASS_BYTES", 8 * doubles)
        assert run_cli(argv) == 0
        assert calls != [] and path.exists() == out
        if argv[0] == "solve" and out:  # the whole field: a header and 11 levels of 41 nodes
            assert len(path.read_text().splitlines()) == 1 + 11 * 41

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--a", "-0.5", "--eps", "2", "--tmax", "300"],
            ["sweep", "--a", "-0.5", "--h", "0.1", "--tmax", "300", "--n-eps", "3",
             "--t-lo", "0.25", "--t-hi", "0.5"],
            ["verify-apriori", "--a", "-0.5", "--eps", "0.01", "--T", "100"],
            ["verify-apriori", "--a", "-0.5", "--eps", "0.01", "--T", "100", "--field", "picard_U2"],
        ],
    )
    def test_memory_footprint_bounds_the_traced_peak(self, argv, monkeypatch):
        # the seeding's scratch sets the marches' peak, the level blocks the a-priori passes'
        sizes, check = [], harness._check_memory
        monkeypatch.setattr(harness, "_check_memory", lambda size: sizes.append(size) or check(size))
        tracemalloc.start()
        try:
            assert run_cli(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sizes[0] <= 2 * peak

    @pytest.mark.parametrize(
        "argv, computes",
        [
            (["solve", "--tmax", "1e9"], "march"),
            (["sweep", "--tmax", "1e9"], "march_ladder"),
            (["verify-apriori", "--a", "-0.5", "--T", "1e8"], "apriori_profiles"),
        ],
    )
    def test_passes_past_the_memory_limit_exit_1_before_computing(
        self, argv, computes, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(harness, computes, lambda *args, **kwargs: calls.append(1))
        out = tmp_path / "out.csv"
        assert run_cli([*argv, "--out", str(out)]) == 1
        assert re.search(r"the pass would hold [\d.e+]+ GiB, above the 2 GiB limit", capsys.readouterr().err)
        assert calls == [] and not out.exists()

    def test_sweep_counts_only_the_rungs_it_marches(self, tmp_path, monkeypatch):
        # predicted lifespans 2, 447 and 1e5: the last is past EXP_REACH * R, so not marched
        argv = ["sweep", "--p", "2", "--a", "0", "--b", "0", "--h", "0.1", "--tmax", "1",
                "--t-lo", "2", "--t-hi", "1e5", "--n-eps", "3", "--out", str(tmp_path / "s.csv")]
        sizes, rungs, check, real = [], [], harness._check_memory, harness.march_ladder
        monkeypatch.setattr(harness, "_check_memory", lambda size: sizes.append(size) or check(size))
        monkeypatch.setattr(
            harness, "march_ladder", lambda p, d, g, eps, **kw: rungs.append(len(eps)) or real(p, d, g, eps, **kw)
        )
        assert run_cli(argv) == 0
        assert rungs == [2, 2]
        grid = GridSpec(h=0.1, t_max=1.0, pad=1.0)
        assert sizes == [march_bytes(replace(grid, h=0.05), 2, False) + sup_history_bytes(grid, 2)]

    def test_sweep_marches_unit_amplitude_data(self, tmp_path, capsys, monkeypatch):
        # --t-lo and --t-hi set the amplitude eps that each rung marches, so the data's is 1, as in solve
        argv = ["sweep", "--h", "0.1", "--tmax", "1", "--n-eps", "2", "--R", "1.5", "--out", str(tmp_path / "s.csv")]
        data, real = [], harness.march_ladder
        monkeypatch.setattr(
            harness, "march_ladder", lambda p, d, g, eps, **kw: data.append(d) or real(p, d, g, eps, **kw)
        )
        assert run_cli(argv) == 0
        assert data == [InitialData(Family.bump, 0.0, 1.0, 1.5)] * 2
        assert run_cli([*argv, "--amplitude-g", "2"]) == 1
        assert "unrecognized arguments: --amplitude-g 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["classify"], ["bounds"], ["blowup-seq"], ["phase-diagram"]])
    def test_commands_that_ignore_R_reject_it(self, argv, capsys):
        assert run_cli([*argv, "--R", "2"]) == 1
        assert "unrecognized arguments: --R 2" in capsys.readouterr().err

    def test_verify_apriori_out_holds_the_ratio_csv(self, tmp_path, capsys):
        out = tmp_path / "apriori.csv"
        argv = ["verify-apriori", "--p", "2.5", "--a", "-0.5", "--b", "-1", "--eps", "0.04", "--R", "1.5",
                "--h", "0.1", "--T", "10", "5", "--field", "picard_U2", "--out", str(out)]
        assert run_cli(argv) == 0
        # the ratios depend on eps * amplitude_g alone, so --eps carries the amplitude
        params = ModelParams(2.5, -0.5, -1.0, 0.02, 1.5)
        rows = verify_apriori(params, InitialData(Family.bump, 0.0, 2.0, 1.5), 0.1, [5.0, 10.0], "picard_U2")
        assert out.read_text() == apriori_csv(rows)
        assert len(rows) == 2
        assert run_cli([*argv, "--amplitude-g", "2"]) == 1
        assert "unrecognized arguments: --amplitude-g 2" in capsys.readouterr().err

    @pytest.mark.parametrize("t_lo", ["1", "0.5"])
    def test_exponential_sweep_to_T_at_most_one_exits_1_before_marching(self, t_lo, capsys, monkeypatch):
        self.forbid_march(monkeypatch)
        argv = ["sweep", "--p", "2", "--a", "0", "--b", "0", "--t-lo", t_lo, "--t-hi", "3"]
        assert run_cli(argv) == 1
        assert "must exceed 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--n-eps", "2", "--fit", "power"], "--fit needs --n-eps >= 3"),
            (["--threads", "2"], "unrecognized arguments: --threads 2"),
        ],
    )
    def test_bad_sweep_flags_exit_1_before_the_sweep(self, flags, message, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("wavelifespan.harness.sweep", lambda *args, **kwargs: calls.append(args))
        assert run_cli(["sweep", "--a", "-0.5", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert calls == []

    @pytest.mark.parametrize(
        "T, message",
        [
            (["-5", "10"], "finite and >= 0"),
            (["5.01", "10"], "not a lattice level"),
            (["0.05", "--h", "0.1"], "t=0.05 is not a lattice level"),
            (["0"], "the largest T must be positive, got T=0"),
            (["10", "--h", "0"], "the step h must be finite and > 0, got h=0\n"),
            (["10", "--h", "-0.05"], "the step h must be finite and > 0, got h=-0.05\n"),
            (["10", "--h", "nan"], "the step h must be finite and > 0, got h=nan\n"),
            (["10", "--h", "inf"], "the step h must be finite and > 0, got h=inf\n"),
        ],
    )
    def test_bad_apriori_T_exits_1_before_the_pass(self, T, message, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr("wavelifespan.harness.apriori_profiles", lambda *args: calls.append(args))
        assert run_cli(["verify-apriori", "--a", "-0.5", "--T", *T]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert calls == []

    @pytest.mark.parametrize("a, b, rate", [("0.5", "-3", 2.0), ("0", "0", 1.0)])
    def test_exponential_fit_takes_the_regime_rate(self, a, b, rate, capsys, monkeypatch):
        # exp_p_p_minus_1 needs rate p(p-1) = 2, exp_p_minus_1 rate p-1 = 1
        def blowup(T):
            return LifespanEstimate(T, 0.05, cause=Cause.no_root)

        lifespans = [(1.3, 184.0), (1.4, 60.0), (1.5, 26.0), (1.6, 15.0), (1.8, 7.5), (2.0, 4.2)]
        result = SweepResult([SweepEntry(e, blowup(T), blowup(T), True) for e, T in lifespans])
        monkeypatch.setattr("wavelifespan.harness.sweep", lambda *args, **kwargs: result)
        rates = []

        def spy(pairs, mode="power", rate=1.0):
            rates.append((mode, rate))
            return fit_exponent(pairs, mode, rate)

        monkeypatch.setattr("wavelifespan.harness.fit_exponent", spy)
        argv = ["sweep", "--p", "2", "--a", a, "--b", b, "--fit", "exponential"]
        assert run_cli(argv) == 0
        assert rates == [("exponential", rate)]
        assert "fit mode=exponential" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, computes",
        [
            (["solve", "--a", "-0.5"], "wavelifespan.harness.march"),
            (["sweep", "--a", "-0.5"], "wavelifespan.harness.march_ladder"),
            (["verify-apriori", "--a", "-0.5"], "wavelifespan.harness.apriori_profiles"),
            (["phase-diagram"], "wavelifespan.theory.phase_diagram"),
        ],
    )
    def test_unwritable_out_exits_1_before_computing(self, argv, computes, tmp_path, capsys, monkeypatch):
        # count the calls: the exit code of a run that reaches the stub does not show it
        calls = []

        def stub(*args, **kwargs):
            calls.append(args)
            return self.no_march(*args, **kwargs)

        monkeypatch.setattr(computes, stub)
        assert run_cli([*argv, "--out", str(tmp_path / "absent" / "out.csv")]) == 1
        assert "No such file or directory" in capsys.readouterr().err
        assert calls == []
        run_cli([*argv, "--out", str(tmp_path / "out.csv")])  # a writable --out reaches the stub
        assert calls != []

    def test_negative_blowup_seq_epsilon_exits_1(self, capsys):
        # eps^p is complex for eps < 0 and p = 2.5
        assert run_cli(["blowup-seq", "--eps", "-0.1", "--p", "2.5"]) == 1
        assert "epsilon must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("eps, M1", [("1e200", "inf"), ("1e-200", "0")])
    def test_blowup_seq_epsilon_past_the_default_M1_range_exits_1(self, eps, M1, capsys, monkeypatch):
        # eps^p overflows at 1e200 and underflows to 0 at 1e-200
        calls = []
        monkeypatch.setattr("wavelifespan.theory.blowup_sequence", lambda *args, **kwargs: calls.append(args))
        assert run_cli(["blowup-seq", "--eps", eps, "--p", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: the default M1 = eps^p = {M1} is not positive and finite "
            f"at eps={float(eps):g}, p=2; give --M1\n"
        )
        assert calls == []

    def test_zero_norm_apriori_T_exits_1(self, capsys):
        argv = ["verify-apriori", "--a", "-0.5", "--eps", "0.01", "--h", "0.1", "--T", "0", "5",
                "--field", "picard_U2"]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "T=0:" in captured.err

    def test_non_finite_phase_diagram_range_exits_1(self, capsys):
        assert run_cli(["phase-diagram", "--a-min", "inf"]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_config_without_p_exits_1_naming_the_key(self, tmp_path, capsys, monkeypatch):
        self.forbid_march(monkeypatch)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a": 0.0, "b": 0.0, "epsilon": 0.1}))
        assert run_cli(["solve", "--config", str(cfg)]) == 1
        assert "lacks the keys p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (5, "config must be a JSON object"),
            (dict(VALID_CONFIG, grid=3), "config grid must be a JSON object"),
            (dict(VALID_CONFIG, f="bump"), "config f must be a JSON object"),
            (dict(VALID_CONFIG, p=None), "config p must be a number"),
            (dict(VALID_CONFIG, p=[2]), "config p must be a number"),
            (dict(VALID_CONFIG, p=True), "config p must be a number"),
            (dict(VALID_CONFIG, g={"family": "bunp", "amplitude": 1.0}), "config g.family must be"),
            (dict(VALID_CONFIG, g={"family": "bump", "amplitude": "1"}), "config g.amplitude must be"),
            (dict(VALID_CONFIG, grid={"h": "0.1"}), "config grid.h must be a number"),
        ],
    )
    def test_malformed_config_exits_1(self, cfg, message, tmp_path, capsys, monkeypatch):
        self.forbid_march(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["solve", "--config", str(path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "2", "--a", "0", "--b", "0", "--eps", "0.01", "--R", "1", "--h", "0.1",
              "--T", "5", "10"], "weight w is singular"),
            (["--a", "-0.5", "--eps", "1e160"], "the weighted norms overflow at T=10 for eps=1e+160"),
            (["--a", "-0.5", "--eps", "1e80", "--field", "picard_U2"],
             "the weighted norms overflow at T=10 for eps=1e+80"),
            (["--a", "-0.5", "--eps", "1e160", "--field", "picard_U2"],
             "the weighted norms overflow at T=10 for eps=1e+160"),
        ],
    )
    def test_unbounded_apriori_norm_exits_1(self, flags, message, capsys):
        assert run_cli(["verify-apriori", *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_missing_config_file_exits_1(self, tmp_path, monkeypatch):
        self.forbid_march(monkeypatch)
        assert run_cli(["solve", "--config", str(tmp_path / "absent.json")]) == 1
