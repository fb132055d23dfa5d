"""Experiment front end: epsilon sweeps, lifespan-exponent fitting,
a-priori ratio verification, and CSV/report emission."""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import theory
from .core import (
    Family,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    RegimeKind,
    load_config_file,
    require_valid,
    validate,
)
# the benchmark wraps free_solution_dt and apply_duhamel_field at these names
from .kernels import free_solution_dt  # noqa: F401
from .solver import apply_duhamel_field  # noqa: F401
from .solver import apriori_bytes, apriori_profiles, dump_field_csv, march, march_bytes
from .solver import march_ladder, sup_history_bytes

RESOLVE_TOL = 0.05
EXP_REACH = 1e4  # in units of R: longer exponential-regime lifespans are not marched
MAX_PASS_BYTES = 2 * 2**30  # largest march_bytes or apriori_bytes of a CLI command's pass


@dataclass
class SweepEntry:
    epsilon: float
    est_h: Optional[LifespanEstimate]
    est_h2: Optional[LifespanEstimate]
    resolved: bool
    error: Optional[str] = None

    def blew_up(self) -> bool:
        return self.est_h is not None and self.est_h.cause is not None


@dataclass
class SweepResult:
    entries: list

    def blowup_pairs(self) -> list[tuple[float, float]]:
        """(epsilon, T at h/2) pairs from resolved blow-up entries."""
        return [(e.epsilon, e.est_h2.T_blow) for e in self.entries if e.blew_up() and e.resolved]

    def to_csv(self) -> str:
        lines = ["epsilon,status,T_h,T_h2,resolved"]
        for e in self.entries:
            if e.error is not None:
                lines.append(f"{e.epsilon:.12g},error,,,{e.error}")
                continue
            t_h = "" if e.est_h.T_blow is None else f"{e.est_h.T_blow:.12g}"
            t_h2 = ""
            if e.est_h2 is not None and e.est_h2.T_blow is not None:
                t_h2 = f"{e.est_h2.T_blow:.12g}"
            lines.append(
                f"{e.epsilon:.12g},{e.est_h.status.value},{t_h},{t_h2},{str(e.resolved).lower()}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class FitReport:
    mode: str  # "power" or "exponential"
    slope: float
    intercept: float
    r2: float
    n_points: int


def make_epsilon_ladder(
    p: float, a: float, b: float, T_lo: float, T_hi: float, n: int = 8, c: float = 1.0
) -> list[float]:
    """Geometric epsilon ladder whose predicted lifespans span [T_lo, T_hi]."""
    if n < 1 or not (0 < T_lo < T_hi < math.inf):
        raise ValueError("need n >= 1 and 0 < T_lo < T_hi < inf")
    eps_hi = theory.invert_lifespan_bound(p, a, b, T_lo, c)
    eps_lo = theory.invert_lifespan_bound(p, a, b, T_hi, c)
    ratio = (eps_hi / eps_lo) ** (1.0 / (n - 1)) if n > 1 else 1.0
    return sorted(eps_lo * ratio**k for k in range(n))


def _out_of_reach(params: ModelParams, eps: float) -> bool:
    """Whether sweep leaves the rung eps unmarched as out of numerical reach:
    in an exponential regime, eps = 0 or a lifespan predicted (the bounds
    formula with c = 1) past EXP_REACH * R."""
    p, a, b = params.p, params.a, params.b
    exponential, _ = theory.lifespan_rate(p, a, b)
    reach = EXP_REACH * params.R
    return exponential and (eps == 0 or theory.lifespan_bound(p, a, b, eps, 1.0) > reach)


def sweep(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    ladder: Sequence[float],
    threads: int = 1,
) -> SweepResult:
    """March every epsilon at h and h/2; entries sorted ascending, NaN rungs last.

    params.epsilon is ignored.  Every rung is validated first: one that
    fails validation, or an exponential-regime rung predicted past
    EXP_REACH * R (out_of_numerical_reach; epsilon = 0 predicts no end
    there), becomes an error entry.  The other rungs march in lockstep,
    one march_ladder per grid.  threads is accepted and ignored: it is kept
    only because bench/workloads.py::SweepPoly.run_pass passes it, and goes
    when the bench drops its sweep_threads row.
    """
    if len(ladder) == 0:
        raise ValueError("empty epsilon ladder")
    require_valid(replace(params, epsilon=0.0), data, grid)  # per-rung epsilons govern
    if theory.classify_regime(params.p, params.a, params.b).kind is RegimeKind.global_:
        raise ValueError(
            "blow-up sweep rejected: (p, a, b) lies in the global case "
            "a > 0 and p(1+a)+b > 0 of the lifespan table"
        )
    if data.family is not Family.bump or data.amplitude_g <= 0:
        raise ValueError("blow-up sweeps require f = 0 and a positive bump g")

    ladder = sorted(map(float, ladder), key=lambda e: (math.isnan(e), e))
    fine = GridSpec(h=grid.h / 2.0, t_max=grid.t_max, pad=grid.pad)

    def error_of(eps: float) -> Optional[str]:
        try:
            for g in (grid, fine):
                require_valid(replace(params, epsilon=eps), data, g)
        except ValueError as exc:
            return str(exc)
        if _out_of_reach(params, eps):
            return "out_of_numerical_reach"
        return None

    entries = [SweepEntry(eps, None, None, False, error=error_of(eps)) for eps in ladder]
    todo = [e for e in entries if e.error is None]
    eps = [e.epsilon for e in todo]
    at_h = march_ladder(params, data, grid, eps, keep_field=False)
    at_h2 = march_ladder(params, data, fine, eps, keep_field=False)
    for e, (_, est_h), (_, est_h2) in zip(todo, at_h, at_h2):
        e.est_h, e.est_h2 = est_h, est_h2
        if est_h.T_blow is not None and est_h2.T_blow is not None and est_h2.T_blow > 0:
            e.resolved = abs(est_h.T_blow - est_h2.T_blow) / est_h2.T_blow < RESOLVE_TOL
    return SweepResult(entries=entries)


def fit_exponent(
    pairs: Sequence[tuple[float, float]], mode: str = "power", rate: float = 1.0
) -> FitReport:
    """Least-squares line through (X, log T), in closed form.

    power: X = log eps (slope estimates minus the lifespan exponent).
    exponential: X = eps^-rate (slope estimates the constant in the
    exponential lifespan law; pass the regime's rate from
    theory.lifespan_rate, p-1 or p(p-1)).  ValueError unless there are
    3 valid pairs and 2 distinct epsilon among them, and, for exponential,
    unless rate is finite and > 0 and every eps^-rate is finite.
    """
    pairs = [(e, T) for e, T in pairs if e > 0 and T > 0 and math.isfinite(T)]
    if len(pairs) < 3:
        raise ValueError("need at least 3 valid (epsilon, T) pairs")
    eps = np.array([e for e, _ in pairs])
    if not eps.min() < eps.max():
        raise ValueError("need at least 2 distinct epsilon values")
    T = np.array([t for _, t in pairs])
    if mode == "power":
        X = np.log(eps)
    elif mode == "exponential":
        if not 0 < rate < math.inf:
            raise ValueError(f"the exponential fit needs a finite rate > 0, got rate={rate:g}")
        with np.errstate(over="ignore"):
            X = eps ** (-rate)
        if not np.isfinite(X).all():
            raise ValueError(f"eps^-rate is not finite for eps={eps.min():g} at rate={rate:g}")
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    Y = np.log(T)
    dX, dY = X - X.mean(), Y - Y.mean()
    slope = float((dX * dY).sum() / (dX * dX).sum())
    intercept = float(Y.mean() - slope * X.mean())
    ss_res = float(((dY - slope * dX) ** 2).sum())
    ss_tot = float((dY**2).sum())
    r2 = 1.0 if ss_tot == 0 else max(0.0, 1.0 - ss_res / ss_tot)
    return FitReport(mode=mode, slope=slope, intercept=intercept, r2=r2, n_points=len(pairs))


def verify_apriori(
    params: ModelParams,
    data: InitialData,
    h: float,
    T_ladder: Sequence[float],
    test_field: str = "free",
) -> list[tuple[float, float, float]]:
    """Ratios r(T) probing the two a-priori bounds on a T ladder.

    ratio_E = ||L'(|U|^p)|| / (E(T) ||U||^p) for the chosen test field U;
    ratio_D = ||L'(|U0|^{p-1} |U|)|| / (D_a(T) ||U||) with U0 the
    characteristic-band free field.  Both should stay bounded (near
    constant) as T grows.

    The three norms of every T come from one streamed pass over the levels
    up to the largest T (solver.apriori_profiles), which stores no field:
    memory is O(n_x + n_t).  The norm over [0, T] is the running max of the
    per-level sups, read at the level of T.  Every T must be finite, >= 0
    and a lattice level of h, and the largest T positive, checked before
    the grid and the pass.  Raises ValueError naming eps when a norm or
    ||U||^p overflows, and naming T when ||U|| is 0 on [0, T].  The step h
    must be finite and > 0, checked first.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"the step h must be finite and > 0, got h={h:g}")
    T_ladder = sorted(T_ladder)
    if not T_ladder:
        raise ValueError("empty T ladder")
    for T in T_ladder:
        if not 0 <= T < math.inf:
            raise ValueError(f"every T must be finite and >= 0, got T={T:g}")
    grid = GridSpec(h=h, t_max=T_ladder[-1], pad=max(1.0, params.R))
    levels = [grid.index_of_t(T) for T in T_ladder]  # raises for a T off the lattice
    if levels[-1] == 0:
        raise ValueError(f"the largest T must be positive, got T={T_ladder[-1]:g}")
    require_valid(params, data, grid)
    # fmax skips a NaN sup, so one NaN level leaves the norms of later T defined
    norms = np.fmax.accumulate(apriori_profiles(params, data, grid, test_field), axis=1)
    if params.a == 0 and params.R == 1 and norms[0, 0] == math.inf:
        raise ValueError(
            "the weight w is singular where the test field is not 0: "
            "for a = 0, w = 1/log(t+|x|+R) needs R > 1"
        )

    rows = []
    for T, n_T in zip(T_ladder, levels):
        norm_U, norm_LU, norm_LB = (float(v) for v in norms[:, n_T])
        try:
            norm_Up = norm_U**params.p
        except OverflowError:
            norm_Up = math.inf
        if not all(map(math.isfinite, (norm_Up, norm_LU, norm_LB))):  # norm_U too, as p > 1
            raise ValueError(f"the weighted norms overflow at T={T:g} for eps={params.epsilon:g}")
        if norm_U == 0:
            raise ValueError(f"the test field is 0 on [0, T] for T={T:g}: its ratios are undefined")
        E = theory.E_ab(T, params.p, params.a, params.b, params.R)
        D = theory.D_a(T, params.a, params.R)
        rows.append((T, norm_LU / (E * norm_Up), norm_LB / (D * norm_U)))
    return rows


def apriori_csv(rows) -> str:
    lines = ["T,ratio_E,ratio_D"]
    for T, rE, rD in rows:
        lines.append(f"{T:.12g},{rE:.12g},{rD:.12g}")
    return "\n".join(lines) + "\n"


# --- CLI -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavelifespan",
        description="Characteristic-lattice lifespan laboratory for the weighted "
        "1D semilinear wave equation of derivative type",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_flags(sp, need_eps=True):
        sp.add_argument("--p", type=float, default=2.0)
        sp.add_argument("--a", type=float, default=0.0)
        sp.add_argument("--b", type=float, default=0.0)
        if need_eps:
            sp.add_argument("--eps", type=float, default=0.1)

    sp = sub.add_parser("solve", help="march one configuration, report lifespan")
    add_model_flags(sp)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--tmax", type=float, default=20.0)
    sp.add_argument("--config", type=str, default=None)
    sp.add_argument("--out", type=str, default=None, help="CSV field dump path")

    sp = sub.add_parser("sweep", help="epsilon ladder of lifespan runs")
    add_model_flags(sp, need_eps=False)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--tmax", type=float, default=100.0)
    sp.add_argument("--t-lo", type=float, default=20.0)
    sp.add_argument("--t-hi", type=float, default=200.0)
    sp.add_argument("--n-eps", type=int, default=8)
    sp.add_argument("--out", type=str, default=None)
    sp.add_argument("--fit", choices=["power", "exponential"], default=None)

    sp = sub.add_parser("classify", help="lifespan regime of (p, a, b)")
    add_model_flags(sp, need_eps=False)

    sp = sub.add_parser("bounds", help="evaluate the lifespan bound formula")
    add_model_flags(sp)
    sp.add_argument("--c", type=float, default=1.0)

    sp = sub.add_parser("phase-diagram", help="regime labels on an (a,b) grid")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--a-min", type=float, default=-2.0)
    sp.add_argument("--a-max", type=float, default=2.0)
    sp.add_argument("--b-min", type=float, default=-4.0)
    sp.add_argument("--b-max", type=float, default=2.0)
    sp.add_argument("--n-a", type=int, default=9)
    sp.add_argument("--n-b", type=int, default=9)
    sp.add_argument(
        "--mode", choices=["dt_table", "u_nonzero_table", "u_zero_table"], default="dt_table"
    )
    sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("verify-apriori", help="a-priori bound ratio ladder")
    add_model_flags(sp)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--h", type=float, default=0.05)
    sp.add_argument("--T", type=float, nargs="+", default=[10.0, 20.0, 40.0, 80.0])
    sp.add_argument("--field", choices=["free", "picard_U2"], default="free")
    sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("blowup-seq", help="pointwise blow-up iteration sequences")
    add_model_flags(sp)
    sp.add_argument("--n", type=int, default=6)
    sp.add_argument("--M1", type=float, default=None, help="default Cg*eps^p with Cg=1")
    return ap


def _open_out(out: Optional[str]):
    """The --out file opened for writing, or stdout when there is none.

    Commands open it before they compute, so an unwritable path exits 1 at once.
    """
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _check_memory(size: int) -> None:
    """ValueError naming size, the bytes of a pass, when it exceeds MAX_PASS_BYTES."""
    if size > MAX_PASS_BYTES:
        raise ValueError(
            f"the pass would hold {size / 2**30:.3g} GiB, above the "
            f"{MAX_PASS_BYTES / 2**30:g} GiB limit: raise h or lower the horizon"
        )


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    try:
        if args.command == "classify":
            regime = theory.classify_regime(args.p, args.a, args.b)
            if regime.exponent is None:
                print(regime.kind.value)
            else:
                print(f"{regime.kind.value} exponent {regime.exponent:g}")
            return 0

        if args.command == "bounds":
            val = theory.lifespan_bound(args.p, args.a, args.b, args.eps, args.c)
            print("infinity" if math.isinf(val) else f"{val:.4f}")
            return 0

        if args.command == "phase-diagram":
            with _open_out(args.out) as fh:
                rows = theory.phase_diagram(
                    args.p,
                    (args.a_min, args.a_max),
                    (args.b_min, args.b_max),
                    args.n_a,
                    args.n_b,
                    args.mode,
                )
                fh.write(theory.phase_diagram_csv(rows))
            return 0

        if args.command == "blowup-seq":
            if args.eps < 0:
                raise ValueError("epsilon must be >= 0")
            M1 = args.M1
            if M1 is None:
                try:
                    M1 = args.eps**args.p
                except OverflowError:
                    M1 = math.inf
                # past the float range eps^p overflows or underflows to 0
                if 1 < args.p < math.inf and not 0 < M1 < math.inf:
                    raise ValueError(
                        f"the default M1 = eps^p = {M1:g} is not positive and finite "
                        f"at eps={args.eps:g}, p={args.p:g}; give --M1"
                    )
            params = ModelParams(args.p, args.a, args.b, args.eps)
            states = theory.blowup_sequence(params, args.n, M1)
            for s in states:
                print(f"n={s.n} a_n={s.a_n} log_M_n={s.log_M_n:.6g}")
            return 0

        if args.command == "solve":
            if args.config:
                params, data, grid = load_config_file(args.config)
            else:
                params = ModelParams(args.p, args.a, args.b, args.eps, args.R)
                data = InitialData(Family.bump, 0.0, 1.0, args.R)
                grid = GridSpec(h=args.h, t_max=args.tmax, pad=max(1.0, args.R))
            require_valid(params, data, grid)
            _check_memory(march_bytes(grid, 1, bool(args.out)))
            with _open_out(args.out) as fh:
                field, est = march(params, data, grid, keep_field=bool(args.out))
                if args.out:
                    dump_field_csv(field, fh)
            print(est.to_json())
            return 0

        if args.command == "sweep":
            params = ModelParams(args.p, args.a, args.b, 0.0, args.R)
            data = InitialData(Family.bump, 0.0, 1.0, args.R)
            grid = GridSpec(h=args.h, t_max=args.tmax, pad=max(1.0, args.R))
            if args.fit and args.n_eps < 3:
                raise ValueError("--fit needs --n-eps >= 3")
            ladder = make_epsilon_ladder(args.p, args.a, args.b, args.t_lo, args.t_hi, args.n_eps)
            require_valid(params, data, grid)
            n = sum(not _out_of_reach(params, eps) for eps in ladder)  # the rungs marched
            fine = replace(grid, h=grid.h / 2)  # the larger pass, with the coarse one's records
            _check_memory(march_bytes(fine, n, False) + sup_history_bytes(grid, n))
            with _open_out(args.out) as fh:
                result = sweep(params, data, grid, ladder)
                fh.write(result.to_csv())
            if args.fit:
                _, rate = theory.lifespan_rate(args.p, args.a, args.b)
                report = fit_exponent(result.blowup_pairs(), mode=args.fit, rate=rate)
                print(
                    f"fit mode={report.mode} slope={report.slope:.4f} "
                    f"r2={report.r2:.4f} n={report.n_points}"
                )
            return 0

        if args.command == "verify-apriori":
            params = ModelParams(args.p, args.a, args.b, args.eps, args.R)
            data = InitialData(Family.bump, 0.0, 1.0, args.R)
            grid = GridSpec(h=args.h, t_max=max(args.T), pad=max(1.0, args.R))
            if not validate(params, data, grid):  # else verify_apriori names the fault
                _check_memory(apriori_bytes(grid, args.field))
            with _open_out(args.out) as fh:
                rows = verify_apriori(params, data, args.h, args.T, args.field)
                fh.write(apriori_csv(rows))
            return 0
    except (ValueError, OSError) as exc:  # malformed input, unreadable or unwritable file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    return 1


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
