"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line summarizing the measured quantities before asserting on them.
"""

import math
from fractions import Fraction

import numpy as np

from wavelifespan.core import Family, GridSpec, InitialData, ModelParams, Status
from wavelifespan.harness import fit_exponent, make_epsilon_ladder, sweep, verify_apriori
from wavelifespan.oracle import compare_fields, leapfrog_solve
from wavelifespan.solver import march, pde_residual, picard_iterate
from wavelifespan.theory import (
    S_p2,
    _log_C1,
    a_n_closed_form,
    con1_lhs,
    con2_lhs,
    epsilon_thresholds,
    k1_minorant,
    k2_minorant,
)


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _bump(R=1.0):
    return InitialData(Family.bump, 0.0, 1.0, R)


def _calibrated_ladder(p, a, b, eps_pilot, t_pilot_max, T_lo, T_hi, h=0.05):
    """Epsilon ladder whose predicted lifespans span [T_lo, T_hi] under the
    regime formula with the constant calibrated from one pilot run."""
    data = _bump()
    params = ModelParams(p, a, b, eps_pilot, 1.0)
    _, est = march(params, data, GridSpec(h=h, t_max=t_pilot_max, pad=1.0), keep_field=False)
    assert est.status is Status.blowup
    from wavelifespan.theory import classify_regime

    exponent = classify_regime(p, a, b).exponent
    c = est.T_blow * eps_pilot**exponent
    return make_epsilon_ladder(p, a, b, T_lo, T_hi, n=8, c=c), c


def test_criterion_1_polynomial_regime_a_negative():
    # p=2, a=-0.5, b=0: lifespan exponent -(p-1)/(-a) = -2
    ladder, c = _calibrated_ladder(2.0, -0.5, 0.0, 0.5, 60.0, 20.0, 200.0)
    params = ModelParams(2.0, -0.5, 0.0, 0.0, 1.0)
    grid = GridSpec(h=0.05, t_max=220.0, pad=1.0)
    result = sweep(params, _bump(), grid, ladder)
    pairs = result.blowup_pairs()
    fit = fit_exponent(pairs, mode="power")
    predicted = [c * e**-2.0 for e in ladder]
    ok = (
        len(pairs) >= 6
        and all(19.9 <= T <= 200.1 for T in predicted)
        and abs(fit.slope - (-2.0)) <= 0.3
        and fit.r2 >= 0.97
    )
    _report(
        1,
        ok,
        f"slope={fit.slope:.3f} (target -2.0+-0.3), r2={fit.r2:.4f} (>=0.97), "
        f"{len(pairs)} resolved blow-ups, predicted T in "
        f"[{min(predicted):.1f}, {max(predicted):.1f}]",
    )


def test_criterion_2_polynomial_regime_b_below_minus_p():
    # p=2, a=-0.5, b=-3: exponent -p(p-1)/(-p(1+a)-b) = -1
    ladder, c = _calibrated_ladder(2.0, -0.5, -3.0, 0.25, 25.0, 30.0, 300.0)
    params = ModelParams(2.0, -0.5, -3.0, 0.0, 1.0)
    grid = GridSpec(h=0.05, t_max=380.0, pad=1.0)
    result = sweep(params, _bump(), grid, ladder)
    pairs = result.blowup_pairs()
    fit = fit_exponent(pairs, mode="power")
    ok = len(pairs) >= 6 and abs(fit.slope - (-1.0)) <= 0.25 and fit.r2 >= 0.95
    _report(
        2,
        ok,
        f"slope={fit.slope:.3f} (target -1.0+-0.25), r2={fit.r2:.4f} (>=0.95), "
        f"{len(pairs)} resolved blow-ups",
    )


def test_criterion_3_exponential_regime():
    # a=b=0: T ~ exp(c/eps); only eps = O(1) is reachable, so the check is
    # fit-quality discrimination rather than full curve reproduction
    ladder = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.8, 2.0]
    params = ModelParams(2.0, 0.0, 0.0, 0.0, 1.0)
    grid = GridSpec(h=0.05, t_max=400.0, pad=1.0)
    result = sweep(params, _bump(), grid, ladder)
    pairs = result.blowup_pairs()
    fit_pow = fit_exponent(pairs, mode="power")
    fit_exp = fit_exponent(pairs, mode="exponential", rate=1.0)
    ok = (
        len(pairs) >= 6
        and fit_pow.r2 < fit_exp.r2
        and fit_exp.r2 >= 0.9
        and fit_exp.slope > 0
    )
    _report(
        3,
        ok,
        f"r2_power={fit_pow.r2:.5f} < r2_exp={fit_exp.r2:.5f} (>=0.9), "
        f"exp slope={fit_exp.slope:.3f} (>0), {len(pairs)} resolved blow-ups",
    )


def test_criterion_4_global_regime_survival():
    params = ModelParams(2.0, 1.0, 0.0, 0.05, 1.0)
    grid = GridSpec(h=0.05, t_max=500.0, pad=1.0)
    _, est = march(params, _bump(), grid, keep_field=False, track_weighted_sup=True)
    ws = np.array(est.weighted_sup_history)
    t = grid.h * np.arange(len(ws))
    sup_50 = float(np.max(ws[t <= 50.0]))
    sup_500 = float(np.max(ws))
    ok = est.status is Status.survived and sup_500 <= 2.0 * sup_50
    _report(
        4,
        ok,
        f"status={est.status.value}, weighted sup [0,500]={sup_500:.6g} vs "
        f"2 x [0,50]={2 * sup_50:.6g}",
    )


def test_criterion_5_oracle_equivalence():
    params = ModelParams(2.0, -1.0, -1.0, 0.5, 1.0)
    data = _bump()
    field, est_m = march(params, data, GridSpec(h=0.025, t_max=10.0, pad=1.0))
    result, est_l = leapfrog_solve(params, data, dx=0.005, cfl=0.9, t_max=10.0)
    rel_T = abs(est_m.T_blow - est_l.T_blow) / est_l.T_blow
    T = min(est_m.T_blow, est_l.T_blow)
    window = (-(0.8 * T + 2.0), 0.8 * T + 2.0, 0.0, 0.8 * T)
    diff = compare_fields(field, result, window)
    n_hi = int(0.8 * T / 0.025)
    sup = float(np.max(np.abs(field.levels[: n_hi + 1])))
    rel_field = diff / sup
    ok = rel_T <= 0.10 and rel_field <= 0.05
    _report(
        5,
        ok,
        f"T_march={est_m.T_blow:.3f}, T_leapfrog={est_l.T_blow:.3f}, "
        f"rel dT={rel_T:.4f} (<=0.10), u_t sup-relative diff={rel_field:.4f} (<=0.05)",
    )


def test_criterion_6_apriori_ratio_boundedness():
    # one representative (p, a, b) per E-case; the running max of r(T) over
    # the T ladder must stabilize (boundedness of the a-priori estimate)
    cases = [
        ("global", 2.0, 1.0, 0.0, 1.0),
        ("exp (p-1)", 2.0, 0.0, 0.0, 2.0),
        ("exp p(p-1)", 2.0, 0.5, -3.0, 1.0),
        ("poly a<0", 2.0, -0.5, 0.0, 1.0),
        ("poly p(1+a)+b<0", 2.0, -0.5, -3.0, 1.0),
    ]
    details = []
    ok = True
    for name, p, a, b, R in cases:
        params = ModelParams(p, a, b, 0.01, R)
        rows = verify_apriori(params, _bump(R), 0.05, [10.0, 20.0, 40.0, 80.0])
        for label, idx in (("E", 1), ("D", 2)):
            running = np.maximum.accumulate([row[idx] for row in rows])
            var = float((running[-1] - running[0]) / running[-1])
            ok = ok and var < 0.10
            details.append(f"{name}/{label}: {var:.3f}")
    _report(6, ok, "running-max variation (<0.10 each): " + ", ".join(details))


def test_criterion_7_blowup_iteration_algebra():
    checks = []

    recursion_ok = True
    for p in (2, 3):
        a_n = Fraction(0)
        for n in range(1, 13):
            recursion_ok = recursion_ok and (a_n == a_n_closed_form(p, n))
            a_n = Fraction(p) ** 2 * a_n + p + 1
    checks.append(("a_n recursion==closed form", recursion_ok))

    s_ok = abs(S_p2(2.0) - 4.0 / 9.0) < 1e-12
    checks.append(("S_p2(2)=4/9", s_ok))

    rng = np.random.default_rng(7)
    sign_ok = True
    held = {1: set(), 2: set()}  # outcomes of con1 > 1 and con2 > 1; each must see both
    for _ in range(100):
        p = float(rng.uniform(1.3, 3.5))
        t0 = float(rng.uniform(20.0, 1e4))
        M1 = float(10.0 ** rng.uniform(-8, 2))
        a1 = float(1.5 - rng.uniform(0.0, 1.5))  # in (0, 1.5], with Case 1's b = -p(1+a)
        case1 = ModelParams(p, a1, -p * (1 + a1), 0.1)
        con1 = con1_lhs(t0, case1, M1) > 1
        sign_ok = sign_ok and ((k1_minorant(t0, case1, M1) > 0) == con1)
        held[1].add(con1)
        a = float(rng.uniform(-1.5, -0.6))
        b = float(rng.uniform(-6.0, -p - 0.5))
        if -(p * (1 + a) + b) > 0:
            case2 = ModelParams(p, a, b, 0.1)
            con2 = con2_lhs(t0, case2, M1) > 1
            sign_ok = sign_ok and ((k2_minorant(t0, case2, M1) > 0) == con2)
            held[2].add(con2)
    sign_ok = sign_ok and held[1] == held[2] == {True, False}
    checks.append(("K1/K2 sign agrees with con1/con2 (100 tuples)", sign_ok))

    params = ModelParams(2.0, -0.5, -3.0, 0.1, 1.0)
    p, R = params.p, params.R
    Cg, C1 = 0.9, math.exp(_log_C1(p, params.a, params.b))
    eps3, eps4 = epsilon_thresholds(params, Cg)
    S = S_p2(p)
    B = C1 ** (1.0 / (p + 1)) * p ** (-2.0 * p * S * (p - 1)) * Cg ** (p - 1)
    res3 = abs(2.0 * B * (1.0 + R) ** 2 * eps3 ** (p * (p - 1)) - 1.0)
    q = -(p * (1 + params.a) + params.b)
    res4 = abs(B * (2.0 ** (1.0 / q) * (1.0 + R) - 0.5) * eps4 ** (p * (p - 1) / q) - 1.0)
    checks.append(("eps3/eps4 back-substitution < 1e-12", res3 < 1e-12 and res4 < 1e-12))

    ok = all(flag for _, flag in checks)
    _report(7, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_criterion_8_structural_invariants():
    data = _bump()
    params = ModelParams(2.0, 0.5, 0.0, 0.01, 1.0)

    grid = GridSpec(h=0.05, t_max=20.0, pad=1.0)
    field, _ = march(params, data, grid)
    xs = grid.x_nodes()
    support_ok = all(
        np.all(field.levels[n][np.abs(xs) > n * grid.h + params.R + 1e-9] == 0.0)
        for n in range(field.levels.shape[0])
    )

    report = picard_iterate(params, data, grid, j_max=6)
    ratios = report.contraction_ratios()
    picard_ok = bool(ratios) and all(r <= 0.5 for r in ratios)

    residuals = []
    for h in (0.05, 0.025):
        g = GridSpec(h=h, t_max=5.0, pad=1.0)
        f, _ = march(params, data, g)
        residuals.append(pde_residual(f, data, params))
    factor = residuals[0] / residuals[1]
    residual_ok = 3.0 <= factor <= 5.0

    ok = support_ok and picard_ok and residual_ok
    _report(
        8,
        ok,
        f"support exact: {support_ok}; Picard ratios max="
        f"{max(ratios):.4f} (<=0.5); residual refinement factor={factor:.2f} (in [3,5])",
    )
