"""Time marching of u_t = eps*u_t0 + L'(|u_t|^p) on the characteristic lattice.

With dx = dt = h both backward characteristics through a node pass through
earlier nodes exactly, so the Duhamel integral is a trapezoid sum of node
values.  Running prefix sums along both characteristic families
(kernels.CharAccumulator) make each node update O(1) amortized; the same
accumulator serves march, apply_duhamel_field and the streamed a-priori
norms of apriori_profiles.  The free data at x_i +/- t_n is read off nodes
i +/- n of two halves sampled once.  The s = t endpoint couples the
node to itself; one vectorised Newton iteration per level resolves it after
a closed-form fold test has ruled out blow-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    CharField,
    Cause,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    Status,
    require_valid,
)

# free_solution_dt stays bound here because the benchmark wraps it at this name
from .kernels import (  # noqa: F401
    CharAccumulator,
    FreeField,
    free_solution_dt,
    nonlinear_weight,
    weight_w,
)


def default_blow_threshold(params: ModelParams, data: InitialData) -> float:
    sup_free = params.epsilon * (data.sup_f_prime() + data.sup_g())
    return 1e6 * (1.0 + sup_free)


def _solve_level(
    base: np.ndarray,
    gamma: np.ndarray,
    p: float,
    inner_tol: float,
    inner_max: int,
    blow_threshold: float,
) -> tuple[np.ndarray, str]:
    """Solve z = base + gamma*|z|^p nodewise; returns (z, flag).

    flag: "ok" (every node resolved), "blowup" (some node has no finite
    solution or escaped the threshold), "failed" (finite but unconverged
    after inner_max Newton steps).

    For base > 0 a root exists iff base <= z_m (1 - 1/p) with
    z_m = (p*gamma)^{-1/(p-1)}; crossing that fold is the blow-up test.
    Otherwise phi(z) = base + gamma*|z|^p - z is convex with
    phi(base) = gamma*|base|^p >= 0, so Newton from z = base climbs
    monotonically to the smallest root, for either sign of base.  A node
    has converged once |phi(z_i)| <= inner_tol * max(1, |z_i|).
    """
    with np.errstate(divide="ignore"):
        z_m = (p * gamma) ** (-1.0 / (p - 1.0))
    if np.any(base > z_m * (1.0 - 1.0 / p) * (1.0 + 1e-12)):
        return base, "blowup"
    z = base
    for _ in range(inner_max):
        az = np.abs(z)
        scale = np.max(az)
        if not np.isfinite(scale) or scale > blow_threshold:
            return z, "blowup"
        gz = gamma * az ** (p - 1.0)
        phi = base + gz * az - z
        if np.all(np.abs(phi) <= inner_tol * np.maximum(az, 1.0)):
            return z, "ok"
        z = z - phi / (p * gz * np.sign(z) - 1.0)
    return z, "failed"


def _masked_weighted_sup(U: np.ndarray, w: np.ndarray) -> float:
    """sup |w*U| treating w*0 as 0 even where the weight is singular."""
    prod = np.where(U == 0.0, 0.0, w) * np.abs(U)
    return float(np.max(prod)) if prod.size else 0.0


def march(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    blow_threshold: Optional[float] = None,
    inner_tol: float = 1e-12,
    inner_max: int = 50,
    keep_field: bool = True,
    track_weighted_sup: bool = False,
) -> tuple[CharField, LifespanEstimate]:
    """March the integral equation level by level until blow-up or t_max."""
    require_valid(params, data, grid)
    if blow_threshold is None:
        blow_threshold = default_blow_threshold(params, data)
    if inner_tol <= 0:
        raise ValueError("inner_tol must be positive")

    h, p, R = grid.h, params.p, params.R
    n_x, n_t = grid.n_x, grid.n_t
    x = grid.x_nodes()
    free = FreeField(data, grid, params.epsilon)

    acc = CharAccumulator(n_x, n_t, h)
    levels = np.zeros((n_t + 1, n_x)) if keep_field else None

    lo, hi = grid.active_slice(0, R)
    xa = x[lo : hi + 1]
    U0 = free.level(0, lo, hi)
    F0 = 0.5 * np.abs(U0) ** p * nonlinear_weight(xa, 0.0, params)
    plus, minus = acc.diagonals(0, lo, hi)
    plus += F0
    minus += F0
    if keep_field:
        levels[0, lo : hi + 1] = U0

    sup_history = [float(np.max(np.abs(U0))) if U0.size else 0.0]
    wsup_history = None
    if track_weighted_sup:
        wsup_history = [_masked_weighted_sup(U0, weight_w(xa, 0.0, params))]

    status = Status.survived
    cause = None
    T_blow = None
    n_done = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_t + 1):
            t = n * h
            lo, hi = grid.active_slice(n, R)
            xa = x[lo : hi + 1]
            W = nonlinear_weight(xa, t, params)
            plus, minus = acc.diagonals(n, lo, hi)
            base = free.level(n, lo, hi) + 0.5 * h * (plus + minus)
            z, flag = _solve_level(base, 0.5 * h * W, p, inner_tol, inner_max, blow_threshold)
            sup_history.append(float(np.max(np.abs(z))))
            if flag != "ok":
                T_blow = t - 0.5 * h
                if flag == "blowup":
                    status, cause = Status.blowup, Cause.threshold_exceeded
                else:
                    status, cause = Status.inner_iteration_failed, Cause.fixed_point_diverged
                break

            F = np.abs(z) ** p * W
            plus += F  # views: scatter along both characteristic diagonals
            minus += F
            if keep_field:
                levels[n, lo : hi + 1] = z
            if track_weighted_sup:
                wsup_history.append(_masked_weighted_sup(z, weight_w(xa, t, params)))
            n_done = n

    if keep_field and status is not Status.survived:
        levels = levels[: n_done + 1, :]  # drop the unresolved detection level
    field_out = CharField(grid=grid, levels=levels, n_levels_done=n_done)
    estimate = LifespanEstimate(
        status=status,
        T_blow=T_blow,
        h=h,
        sup_history=sup_history,
        cause=cause,
        weighted_sup_history=wsup_history,
    )
    return field_out, estimate


def weighted_sup_norm(field: CharField, params: ModelParams, T: float) -> float:
    """Lattice version of sup_{t<=T} |w(x,t) U(x,t)|.

    Nodes where the weight is singular (a = 0 with t+|x|+R = 1) contribute
    only through nonzero U; w * 0 is counted as 0.
    """
    if field.levels is None:
        raise ValueError("field values were not stored for this run")
    grid = field.grid
    n_T = grid.index_of_t(T)
    if n_T > field.levels.shape[0] - 1:
        raise ValueError("T exceeds the computed horizon")
    return field_weighted_sup(field.levels[: n_T + 1], grid, params)


def field_weighted_sup(U: np.ndarray, grid: GridSpec, params: ModelParams) -> float:
    """sup |w U| over the active cones of levels 0..len(U)-1 of a lattice field."""
    x = grid.x_nodes()
    best = 0.0
    for n in range(U.shape[0]):
        lo, hi = grid.active_slice(n, params.R)
        w = weight_w(x[lo : hi + 1], n * grid.h, params)
        best = max(best, _masked_weighted_sup(U[n, lo : hi + 1], w))
    return best


def apply_duhamel_field(
    source: np.ndarray, grid: GridSpec, params: ModelParams, R: float
) -> np.ndarray:
    """L' applied to a lattice source field (|v|^p already taken by caller).

    source[n, i] is the full integrand numerator v(x_i, t_n); the weight is
    applied here.  Explicit trapezoid: no endpoint implicitness.
    """
    n_levels, n_x = source.shape
    x = grid.x_nodes()
    acc = CharAccumulator(n_x, n_levels - 1, grid.h)
    out = np.zeros_like(source)
    for n in range(n_levels):
        lo, hi = grid.active_slice(n, R)
        G = source[n, lo : hi + 1] * nonlinear_weight(x[lo : hi + 1], n * grid.h, params)
        out[n, lo : hi + 1] = acc.explicit_step(n, lo, hi, G)
    return out


def apriori_profiles(
    params: ModelParams, data: InitialData, grid: GridSpec, test_field: str = "free"
) -> np.ndarray:
    """Per-level weighted sups behind the a-priori ratios, in one pass.

    Rows 0, 1 and 2 hold sup |w U|, sup |w L'(|U|^p)| and
    sup |w L'(|B|^{p-1} |U|)| over the active cone of each level 0..n_t,
    where B = eps*u_t0 is the band free field and the test field U is B
    ("free") or L'(|B|^p) ("picard_U2").  Each L' advances level by level
    through its own CharAccumulator, so memory is O(n_x + n_t).  Raises
    ValueError when U vanishes on every level.
    """
    if test_field not in ("free", "picard_U2"):
        raise ValueError(f"unknown test field {test_field!r}")
    p, h = params.p, grid.h
    x = grid.x_nodes()
    free = FreeField(data, grid, params.epsilon)
    acc_U, acc_LU, acc_LB = (CharAccumulator(grid.n_x, grid.n_t, h) for _ in range(3))
    out = np.empty((3, grid.n_t + 1))
    nonzero = False
    for n in range(grid.n_t + 1):
        lo, hi = grid.active_slice(n, params.R)
        xa = x[lo : hi + 1]
        W = nonlinear_weight(xa, n * h, params)
        w = weight_w(xa, n * h, params)
        B = free.level(n, lo, hi)
        U = B if test_field == "free" else acc_U.explicit_step(n, lo, hi, np.abs(B) ** p * W)
        nonzero = nonzero or bool(np.any(U != 0.0))
        LU = acc_LU.explicit_step(n, lo, hi, np.abs(U) ** p * W)
        LB = acc_LB.explicit_step(n, lo, hi, np.abs(B) ** (p - 1) * np.abs(U) * W)
        out[:, n] = [_masked_weighted_sup(V, w) for V in (U, LU, LB)]
    if not nonzero:
        raise ValueError("zero-norm test field")
    return out


@dataclass
class PicardReport:
    """Weighted norms of the Picard sequence U_{j+1} = L'(|U_j + eps u_t0|^p)."""

    norms: list = field(default_factory=list)  # ||U_j|| for j = 1..j_max
    diff_norms: list = field(default_factory=list)  # ||U_{j+1} - U_j|| for j = 1..j_max-1
    final: Optional[np.ndarray] = None
    grid: Optional[GridSpec] = None
    diverged_at: Optional[int] = None

    def contraction_ratios(self) -> list[float]:
        out = []
        for j in range(1, len(self.diff_norms)):
            prev = self.diff_norms[j - 1]
            if prev > 0:
                out.append(self.diff_norms[j] / prev)
        return out


def picard_iterate(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    T: float,
    j_max: int,
) -> PicardReport:
    """Materialize the Picard sequence on [0, T] and record its weighted norms."""
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    n_T = grid.index_of_t(T)
    if n_T > grid.n_t:
        raise ValueError("T exceeds the grid horizon")
    h = grid.h
    free = FreeField(data, grid, params.epsilon).field(n_T)
    sub = GridSpec(h=h, t_max=n_T * h, pad=grid.pad + (grid.t_max - n_T * h))
    report = PicardReport(grid=sub)
    U = np.zeros_like(free)  # U_1 = 0
    report.norms.append(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, j_max):
            source = np.abs(U + free) ** params.p
            if not np.all(np.isfinite(source)):
                report.diverged_at = j
                break
            U_next = apply_duhamel_field(source, sub, params, params.R)
            if not np.all(np.isfinite(U_next)):
                report.diverged_at = j + 1
                break
            report.diff_norms.append(field_weighted_sup(U_next - U, sub, params))
            U = U_next
            report.norms.append(field_weighted_sup(U, sub, params))
    report.final = U
    return report


def reconstruct_u(field: CharField, data: InitialData, epsilon: float) -> np.ndarray:
    """Per-column trapezoid time-integral of U plus eps*f(x)."""
    if field.levels is None:
        raise ValueError("field values were not stored for this run")
    U = field.levels
    u = np.zeros_like(U)
    u[1:] = np.cumsum(field.grid.h * (U[1:] + U[:-1]) / 2.0, axis=0)
    u += epsilon * data.f(field.grid.x_nodes())[None, :]
    return u


def pde_residual(u: np.ndarray, field: CharField, params: ModelParams) -> float:
    """sup over interior nodes of |D_tt u - D_xx u - |U|^p * weight|."""
    if field.levels is None:
        raise ValueError("field values were not stored for this run")
    grid = field.grid
    h = grid.h
    if u.shape[0] < 3:
        raise ValueError("need at least three time levels")
    U = field.levels
    x = grid.x_nodes()[1:-1]
    t = (h * np.arange(u.shape[0]))[1:-1]
    d_tt = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h**2
    d_xx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    W = nonlinear_weight(x[None, :], t[:, None], params)
    res = d_tt - d_xx - np.abs(U[1:-1, 1:-1]) ** params.p * W
    return float(np.max(np.abs(res)))


def dump_field_csv(field: CharField, path: str) -> None:
    """CSV dump with header t,x,u_t in row-major time order."""
    if field.levels is None:
        raise ValueError("field values were not stored for this run")
    grid = field.grid
    x = grid.x_nodes()
    with open(path, "w") as fh:
        fh.write("t,x,u_t\n")
        for n in range(field.levels.shape[0]):
            t = n * grid.h
            for i in range(grid.n_x):
                fh.write(f"{t:.10g},{x[i]:.10g},{field.levels[n, i]:.17g}\n")
