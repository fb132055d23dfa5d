"""The benchmark's three workloads.

Each workload builds its inputs from a seed (the seed jitters epsilon), has
one warm-up call for set-up, and runs one pass of work per call to
``run_pass``.  A pass calls the public functions of the package through
module attributes (``harness.sweep``, ``solver.march``, ...), so the tracer
in ``tracing.py`` sees them when ``instrument`` has patched those names.

An operation is one checked call: a sweep rung, the fit, a march, a
leapfrog run, a field comparison, a ``verify_apriori`` case or a sampled
node.  It fails if it raises, if a march returns ``inner_iteration_failed``,
or if its output check fails; the ``Tally`` counts operations attempted and
failed per check.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field

import numpy as np

from wavelifespan import core, harness, kernels, oracle, solver, theory
from wavelifespan.core import Family, GridSpec, InitialData, ModelParams, RegimeKind, Status

import tracing

JITTER = 0.01  # half-width of the seeded relative jitter applied to each epsilon
BUMP = InitialData(Family.bump, 0.0, 1.0, 1.0)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; FULL is what the benchmark measures, TINY is for the smoke test."""

    sweep_T: tuple = (12.0, 30.0)  # predicted lifespans of the lowest and highest rung
    sweep_rungs: int = 5
    sweep_t_max: float = 40.0
    survive_t_max: float = 150.0
    survive_window: float = 50.0  # weighted sup over the run <= 2x the sup over [0, window]
    apriori_h: float = 0.05
    apriori_T: tuple = (10.0, 20.0, 40.0, 80.0)
    oracle_h: float = 0.025
    oracle_dx: float = 0.005
    oracle_t_max: float = 10.0
    node_checks: int = 8


FULL = Sizes()
TINY = Sizes(
    sweep_T=(5.0, 8.0),
    sweep_rungs=3,
    sweep_t_max=10.0,
    survive_t_max=8.0,
    survive_window=4.0,
    apriori_h=0.1,
    apriori_T=(2.0, 4.0),
    oracle_t_max=8.0,
    node_checks=2,
)


@dataclass
class Tally:
    """Operations attempted and failed in one run, kept per check."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)  # check -> [attempted, failed, last failure]
    notes: dict = field(default_factory=dict)  # last observed values, for the report
    rungs: int = 0
    resolved: int = 0

    def op(self, check: str, ok: bool, detail: str = "") -> None:
        row = self.checks.setdefault(check, [0, 0, ""])
        row[0] += 1
        self.attempted += 1
        if not ok:
            row[1] += 1
            self.failed += 1
            row[2] = detail


def _jitter(rng: np.random.Generator, value: float) -> float:
    return value * (1.0 + rng.uniform(-JITTER, JITTER))


def cone_nodes(grid: GridSpec, R: float, n_levels: int) -> int:
    """Lattice nodes with |x| <= t + R on levels 0..n_levels-1 of grid."""
    t = grid.h * np.arange(n_levels)
    half = np.floor((t + R) / grid.h + 1e-9).astype(np.int64)
    return int(np.sum(2 * np.minimum(half, (grid.n_x - 1) // 2) + 1))


def march_nodes(grid: GridSpec, R: float, est) -> int:
    """Nodes a march computed, counting the level at which it detected blow-up."""
    return cone_nodes(grid, R, len(est.sup_history))


def running_max_variation(rows) -> float:
    """Largest criterion-6 variation of the running max of ratio_E and ratio_D."""
    worst = 0.0
    for idx in (1, 2):
        running = np.maximum.accumulate([row[idx] for row in rows])
        worst = max(worst, float((running[-1] - running[0]) / running[-1]))
    return worst


class SweepPoly:
    """harness.sweep over an epsilon ladder in the polynomial regime, h and h/2."""

    P, A, B = 2.0, -0.5, 0.0
    # criterion-1 pilot march: T = 34.775 at eps = 0.5 and T = c eps^-2
    C_CAL = 34.775 * 0.5**2
    CHECKS = ("rung blows up at h and h/2 and resolves", "power fit slope -2+-0.3, r2 >= 0.97")

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = np.random.default_rng(seed)
        T_lo, T_hi = sizes.sweep_T
        ladder = harness.make_epsilon_ladder(
            self.P, self.A, self.B, T_lo, T_hi, n=sizes.sweep_rungs, c=self.C_CAL
        )
        self.ladder = [_jitter(rng, e) for e in ladder]
        self.params = ModelParams(self.P, self.A, self.B, 0.0, 1.0)
        self.grid = GridSpec(h=0.05, t_max=sizes.sweep_t_max, pad=1.0)
        self.fine = GridSpec(h=self.grid.h / 2.0, t_max=self.grid.t_max, pad=self.grid.pad)

    def warm_up(self) -> None:
        harness.sweep(self.params, BUMP, GridSpec(h=0.05, t_max=2.0, pad=1.0), self.ladder[-1:])

    def run_pass(self, tally: Tally, threads: int = 1) -> int:
        rung_check, fit_check = self.CHECKS
        try:
            result = harness.sweep(self.params, BUMP, self.grid, self.ladder, threads=threads)
        except Exception as exc:
            for _ in self.ladder:
                tally.op(rung_check, False, repr(exc))
            tally.op(fit_check, False, "sweep raised")
            return 0
        nodes = 0
        for e in result.entries:
            tally.rungs += 1
            if e.error is not None:
                tally.op(rung_check, False, f"eps={e.epsilon:.6g}: {e.error}")
                continue
            tally.resolved += int(e.resolved)
            ok = e.est_h.status is Status.blowup and e.est_h2.status is Status.blowup and e.resolved
            tally.op(
                rung_check,
                ok,
                f"eps={e.epsilon:.6g}: {e.est_h.status.value}/{e.est_h2.status.value} "
                f"T_h={e.est_h.T_blow} T_h2={e.est_h2.T_blow}",
            )
            nodes += march_nodes(self.grid, 1.0, e.est_h) + march_nodes(self.fine, 1.0, e.est_h2)
        try:
            fit = harness.fit_exponent(result.blowup_pairs(), mode="power")
            ok = abs(fit.slope + 2.0) <= 0.3 and fit.r2 >= 0.97 and fit.n_points == len(self.ladder)
            detail = f"slope={fit.slope:.4f} r2={fit.r2:.5f} n={fit.n_points}"
        except Exception as exc:
            ok, detail = False, repr(exc)
        tally.op(fit_check, ok, detail)
        tally.notes["fit"] = detail
        return nodes


class SurviveGlobal:
    """One long march in the global regime with the weighted sup tracked."""

    P, A, B = 2.0, 1.0, 0.0
    CHECKS = ("global march survives with bounded weighted sup",)

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = np.random.default_rng(seed)
        self.params = ModelParams(self.P, self.A, self.B, _jitter(rng, 0.05), 1.0)
        self.grid = GridSpec(h=0.05, t_max=sizes.survive_t_max, pad=1.0)
        self.window = sizes.survive_window

    def warm_up(self) -> None:
        solver.march(
            self.params, BUMP, GridSpec(h=0.05, t_max=5.0, pad=1.0),
            keep_field=False, track_weighted_sup=True,
        )

    def run_pass(self, tally: Tally) -> int:
        (check,) = self.CHECKS
        try:
            regime = theory.classify_regime(self.P, self.A, self.B)
            _, est = solver.march(
                self.params, BUMP, self.grid, keep_field=False, track_weighted_sup=True
            )
        except Exception as exc:
            tally.op(check, False, repr(exc))
            return 0
        ws = np.asarray(est.weighted_sup_history)
        t = self.grid.h * np.arange(ws.size)
        sup_window, sup_all = float(np.max(ws[t <= self.window])), float(np.max(ws))
        detail = (
            f"{regime.kind.value}: status={est.status.value}, weighted sup "
            f"{sup_all:.6g} vs 2 x {sup_window:.6g} over [0, {self.window:g}]"
        )
        ok = (
            regime.kind is RegimeKind.global_
            and est.status is Status.survived
            and sup_all <= 2.0 * sup_window
        )
        tally.op(check, ok, detail)
        tally.notes["survival"] = detail
        return march_nodes(self.grid, self.params.R, est)


class VerifyFields:
    """Criterion-6 a-priori ratios and the criterion-5 march-vs-leapfrog comparison."""

    APRIORI_CASES = (  # one (p, a, b, R) per growth-factor case of E_ab
        ("global", 2.0, 1.0, 0.0, 1.0),
        ("exp (p-1)", 2.0, 0.0, 0.0, 2.0),
        ("exp p(p-1)", 2.0, 0.5, -3.0, 1.0),
        ("poly a<0", 2.0, -0.5, 0.0, 1.0),
        ("poly p(1+a)+b<0", 2.0, -0.5, -3.0, 1.0),
    )
    CHECKS = (
        "a-priori ratio running-max variation < 0.10",
        "march with stored field blows up",
        "leapfrog oracle blows up",
        "march vs leapfrog: rel dT <= 0.10, field diff <= 0.05",
        "stored node equals eps u_t0 + duhamel_Lprime",
    )

    def __init__(self, seed: int, sizes: Sizes) -> None:
        rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.apriori = [
            (name, ModelParams(p, a, b, _jitter(rng, 0.01), R), InitialData(Family.bump, 0.0, 1.0, R))
            for name, p, a, b, R in self.APRIORI_CASES
        ]
        self.oracle_params = ModelParams(2.0, -1.0, -1.0, _jitter(rng, 0.5), 1.0)
        self.grid = GridSpec(h=sizes.oracle_h, t_max=sizes.oracle_t_max, pad=1.0)
        self.node_seed = int(rng.integers(2**32))

    def warm_up(self) -> None:
        _, params, data = self.apriori[0]
        harness.verify_apriori(params, data, self.sizes.apriori_h, self.sizes.apriori_T[:1])

    def run_pass(self, tally: Tally) -> int:
        sz = self.sizes
        c_apriori, c_march, c_leap, c_compare, c_node = self.CHECKS
        nodes = 0
        for name, params, data in self.apriori:
            try:
                var = running_max_variation(
                    harness.verify_apriori(params, data, sz.apriori_h, sz.apriori_T)
                )
                tally.op(c_apriori, var < 0.10, f"{name}: variation {var:.4f}")
            except Exception as exc:
                tally.op(c_apriori, False, f"{name}: {exc!r}")
            grid = GridSpec(h=sz.apriori_h, t_max=max(sz.apriori_T), pad=max(1.0, params.R))
            nodes += 2 * cone_nodes(grid, params.R, grid.n_t + 1)  # L' applied twice

        params = self.oracle_params
        field_m = est_m = lf = est_l = None
        try:
            field_m, est_m = solver.march(params, BUMP, self.grid, keep_field=True)
            tally.op(c_march, est_m.status is Status.blowup, est_m.to_json())
            nodes += march_nodes(self.grid, params.R, est_m)
        except Exception as exc:
            tally.op(c_march, False, repr(exc))
        try:
            lf, est_l = oracle.leapfrog_solve(params, BUMP, dx=sz.oracle_dx, cfl=0.9, t_max=sz.oracle_t_max)
            tally.op(c_leap, est_l.status is Status.blowup, est_l.to_json())
            nodes += lf.x.size * (len(est_l.sup_history) - 1)
        except Exception as exc:
            tally.op(c_leap, False, repr(exc))

        if est_m is None or est_l is None or est_m.T_blow is None or est_l.T_blow is None:
            tally.op(c_compare, False, "march or leapfrog gave no blow-up time")
        else:
            try:
                rel_T = abs(est_m.T_blow - est_l.T_blow) / est_l.T_blow
                T = min(est_m.T_blow, est_l.T_blow)
                window = (-(0.8 * T + 2.0), 0.8 * T + 2.0, 0.0, 0.8 * T)
                diff = oracle.compare_fields(field_m, lf, window)
                n_hi = int(0.8 * T / self.grid.h)
                rel_field = diff / float(np.max(np.abs(field_m.levels[: n_hi + 1])))
                detail = (
                    f"T_march={est_m.T_blow:.4f} T_leapfrog={est_l.T_blow:.4f} "
                    f"rel dT={rel_T:.4f} field diff={rel_field:.4f}"
                )
                tally.op(c_compare, rel_T <= 0.10 and rel_field <= 0.05, detail)
                tally.notes["oracle"] = detail
            except Exception as exc:
                tally.op(c_compare, False, repr(exc))

        if field_m is None:
            for _ in range(sz.node_checks):
                tally.op(c_node, False, "no stored field")
            return nodes
        self._check_nodes(field_m, est_m, tally, c_node)
        return nodes

    def _check_nodes(self, field_m, est_m, tally: Tally, check: str) -> None:
        """Compare seeded random stored nodes with the kernel-level operator.

        Nodes are drawn from the blow-up-free levels, inside the support
        cone and far enough from the edge that both backward characteristics
        stay on the lattice.
        """
        params, grid = self.oracle_params, self.grid
        h, R = grid.h, params.R
        rng = np.random.default_rng(self.node_seed)
        sample = kernels.field_sampler(field_m)

        def F(y, s):
            return np.abs(sample(y, s)) ** params.p

        centre = (grid.n_x - 1) // 2
        reach = grid.t_max + grid.pad
        for _ in range(self.sizes.node_checks):
            n = int(rng.integers(1, field_m.n_levels_done + 1))
            t = n * h
            half = min(math.floor((t + R) / h + 1e-9), math.floor((reach - t) / h + 1e-9))
            i = centre + int(rng.integers(-half, half + 1))
            x = grid.x_min + i * h
            try:
                expected = kernels.free_solution_dt(x, t, BUMP, params.epsilon) + kernels.duhamel_Lprime(
                    F, x, t, params, h
                )
                got = float(field_m.levels[n, i])
                err = abs(got - expected)
                ok = err <= 1e-9 * max(1.0, est_m.sup_history[n])
                tally.op(check, ok, f"x={x:.4f} t={t:.4f}: stored {got!r} vs {expected!r}")
            except Exception as exc:
                tally.op(check, False, f"x={x:.4f} t={t:.4f}: {exc!r}")


WORKLOADS = {"sweep_poly": SweepPoly, "survive_global": SurviveGlobal, "verify_fields": VerifyFields}


# --- tracing -------------------------------------------------------------


def _march_tag(args, kwargs, out):
    grid = args[2] if len(args) > 2 else kwargs["grid"]
    return {"levels": len(out[1].sup_history) - 1, "h": grid.h}


def _points_tag(args, kwargs, out):
    return {"points": int(np.size(args[0]))}


def _leapfrog_tag(args, kwargs, out):
    return {"steps": len(out[1].sup_history) - 1}


INITIAL_DATA_METHODS = (
    "f", "f_prime", "g", "g_prime", "g_antiderivative", "g_total_integral", "sup_f_prime", "sup_g",
)


def instrument(tracer: tracing.Tracer) -> None:
    """Wrap each public function at the name its calling module binds."""
    for owner in (solver, harness):
        tracer.patch(owner, "march", "solver.march", _march_tag)
        tracer.patch(owner, "free_solution_dt", "kernels.free_solution_dt", _points_tag)
    for owner in (solver, oracle):
        tracer.patch(owner, "nonlinear_weight", "kernels.nonlinear_weight")
    tracer.patch(solver, "weight_w", "kernels.weight_w")
    tracer.patch(harness, "apply_duhamel_field", "solver.apply_duhamel_field")
    for name in ("sweep", "fit_exponent", "verify_apriori"):
        tracer.patch(harness, name, f"harness.{name}")
    tracer.patch(oracle, "leapfrog_solve", "oracle.leapfrog_solve", _leapfrog_tag)
    tracer.patch(oracle, "compare_fields", "oracle.compare_fields")
    tracer.patch(kernels, "duhamel_Lprime", "kernels.duhamel_Lprime")
    for name, fn in vars(theory).copy().items():
        if inspect.isfunction(fn) and fn.__module__ == theory.__name__ and not name.startswith("_"):
            tracer.patch(theory, name, f"theory.{name}")
    for name in INITIAL_DATA_METHODS:
        tracer.patch(core.InitialData, name, f"core.InitialData.{name}")
