"""Time marching of u_t = eps*u_t0 + L'(|u_t|^p) on the characteristic lattice.

With dx = dt = h both backward characteristics through a node pass through
earlier nodes exactly, so the Duhamel integral is a trapezoid sum of node
values.  Running prefix sums along both characteristic families
(kernels.CharAccumulator) make each node update O(1) amortized; the same
accumulator serves march, apply_duhamel_field and the streamed a-priori
norms of apriori_profiles, which walks the levels in blocks of BLOCK and
steps the accumulators per level only; on the free test field it weighs
only the columns of a block where the free data lives.  Seeded with the
halves of the free data that travel along each family, the two sums
through a node add up to eps*u_t0 plus the trapezoid over the levels below
it.  The s = t endpoint couples the node to itself; one vectorised Newton
iteration per level resolves it after a closed-form fold test has ruled
out blow-up.
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
from .kernels import CharAccumulator, free_solution_dt, nonlinear_weight, weight_w  # noqa: F401


# levels per block of apriori_profiles: enough to amortise the per-call cost
# of the block's numpy expressions, few enough to keep each block small
BLOCK = 32

# Newton's per-node residual tolerance and step budget in march
INNER_TOL = 1e-12
INNER_MAX = 50


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


def _masked_weighted_sup(U: np.ndarray, w: np.ndarray):
    """sup |w*U| over the last axis, treating w*0 as 0 even where w is singular."""
    return np.max(np.where(U == 0.0, 0.0, w) * np.abs(U), axis=-1)


def march(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    blow_threshold: Optional[float] = None,
    keep_field: bool = True,
    track_weighted_sup: bool = False,
) -> tuple[CharField, LifespanEstimate]:
    """March the integral equation level by level until blow-up or t_max.

    Newton solves each level to INNER_TOL within INNER_MAX steps; |U| past
    blow_threshold (default_blow_threshold by default) is blow-up.
    """
    require_valid(params, data, grid)
    if blow_threshold is None:
        blow_threshold = default_blow_threshold(params, data)

    h, p, R = grid.h, params.p, params.R
    x = grid.x_nodes()
    acc = CharAccumulator.seeded(data, grid, params.epsilon)
    levels = np.zeros((grid.n_t + 1, grid.n_x)) if keep_field else None

    lo, hi = grid.active_slice(0, R)
    xa = x[lo : hi + 1]
    U0 = acc.values(0, 1, lo, hi)[0]  # the seed: level 0 has no history
    acc.explicit_step(0, lo, hi, np.abs(U0) ** p * nonlinear_weight(xa, 0.0, params))
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
        for n in range(1, grid.n_t + 1):
            t = n * h
            lo, hi = grid.active_slice(n, R)
            xa = x[lo : hi + 1]
            gamma = acc.c * nonlinear_weight(xa, t, params)
            plus, minus = acc.diagonals(n, lo, hi)
            z, flag = _solve_level(plus + minus, gamma, p, INNER_TOL, INNER_MAX, blow_threshold)
            sup_history.append(float(np.max(np.abs(z))))
            if flag != "ok":
                T_blow = t - 0.5 * h
                if flag == "blowup":
                    status, cause = Status.blowup, Cause.threshold_exceeded
                else:
                    status, cause = Status.inner_iteration_failed, Cause.fixed_point_diverged
                break

            F = np.abs(z) ** p * gamma
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


def apply_duhamel_field(source: np.ndarray, grid: GridSpec, params: ModelParams) -> np.ndarray:
    """L' applied to a lattice source field (|v|^p already taken by caller).

    source[n, i] is the full integrand numerator v(x_i, t_n) on levels
    0..len(source)-1 of grid; the weight is applied here.  Explicit
    trapezoid: no endpoint implicitness.
    """
    n_levels, n_x = source.shape
    x = grid.x_nodes()
    acc = CharAccumulator(n_x, n_levels - 1, grid.h)
    out = np.zeros_like(source)
    for n in range(n_levels):
        lo, hi = grid.active_slice(n, params.R)
        G = source[n, lo : hi + 1] * nonlinear_weight(x[lo : hi + 1], n * grid.h, params)
        out[n, lo : hi + 1] = acc.explicit_step(n, lo, hi, G)
    return out


def _explicit_block(acc: CharAccumulator, n0: int, slices: list, G: np.ndarray) -> np.ndarray:
    """Explicit L' on levels n0.. of a block whose rows G span the last slice.

    Row j steps acc on level n0 + j over its own slices[j]; the nodes of the
    row outside that slice stay 0.
    """
    base = slices[-1][0]
    V = np.zeros_like(G)
    for j, (lo, hi) in enumerate(slices):
        cols = slice(lo - base, hi - base + 1)
        V[j, cols] = acc.explicit_step(n0 + j, lo, hi, G[j, cols])
    return V


def apriori_profiles(
    params: ModelParams, data: InitialData, grid: GridSpec, test_field: str = "free"
) -> np.ndarray:
    """Per-level weighted sups behind the a-priori ratios, in one pass.

    Rows 0, 1 and 2 hold sup |w U|, sup |w L'(|U|^p)| and
    sup |w L'(|B|^{p-1} |U|)| over the active cone of each level 0..n_t,
    where B = eps*u_t0 is the band free field and the test field U is B
    ("free") or L'(|B|^p) ("picard_U2").  Each L' advances level by level
    through its own CharAccumulator, so memory is O(n_x + n_t).  On the
    free test field U = B, so both numerators are one field, L'(|B|^p):
    it is stepped once and its sup fills rows 1 and 2.

    The levels go in blocks of BLOCK: weights, free data, sources and sups
    are taken over the block's widest active slice at once, and only the
    accumulator steps run per level, each on its own level's slice.  The
    fields vanish outside a level's cone, so the extra nodes add nothing.
    With the free test field the one source |B|^p carries a factor |B|, so
    the nonlinear weight is evaluated only on the block's columns where B is
    nonzero (the two d'Alembert bands |x -+ t| < R) and left 0 elsewhere,
    which changes no source; picard_U2 weighs every node, since its L'U
    source is dense.
    """
    if test_field not in ("free", "picard_U2"):
        raise ValueError(f"unknown test field {test_field!r}")
    p, h, R = params.p, grid.h, params.R
    x = grid.x_nodes()
    free = CharAccumulator.seeded(data, grid, params.epsilon)
    if test_field == "free":
        acc_LU = CharAccumulator(grid.n_x, grid.n_t, h)  # L'(|B|^p): both numerators
    else:
        acc_U, acc_LU, acc_LB = (CharAccumulator(grid.n_x, grid.n_t, h) for _ in range(3))
    out = np.empty((3, grid.n_t + 1))
    for n0 in range(0, grid.n_t + 1, BLOCK):
        n1 = min(n0 + BLOCK, grid.n_t + 1)
        slices = [grid.active_slice(n, R) for n in range(n0, n1)]
        LO, HI = slices[-1]  # cones only widen, so the last level's slice holds the others
        xa = x[LO : HI + 1]
        t = h * np.arange(n0, n1)[:, None]
        w = weight_w(xa, t, params)
        B = free.values(n0, n1, LO, HI)
        if test_field == "free":
            # the source |B|^p carries |B|, so W = 0 off B's columns changes nothing
            cols = np.any(B != 0.0, axis=0)
            W = np.zeros_like(B)
            W[:, cols] = nonlinear_weight(xa[cols], t, params)
            LU = _explicit_block(acc_LU, n0, slices, np.abs(B) ** p * W)
            out[0, n0:n1] = _masked_weighted_sup(B, w)
            out[1:, n0:n1] = _masked_weighted_sup(LU, w)
        else:
            W = nonlinear_weight(xa, t, params)  # L'U is dense: so is its source
            U = _explicit_block(acc_U, n0, slices, np.abs(B) ** p * W)
            LU = _explicit_block(acc_LU, n0, slices, np.abs(U) ** p * W)
            LB = _explicit_block(acc_LB, n0, slices, np.abs(B) ** (p - 1) * np.abs(U) * W)
            out[:, n0:n1] = [_masked_weighted_sup(V, w) for V in (U, LU, LB)]
    return out


@dataclass
class PicardReport:
    """Weighted norms of the Picard sequence U_{j+1} = L'(|U_j + eps u_t0|^p)."""

    norms: list = field(default_factory=list)  # ||U_j|| for j = 1..j_max
    diff_norms: list = field(default_factory=list)  # ||U_{j+1} - U_j|| for j = 1..j_max-1
    final: Optional[np.ndarray] = None
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
    free = CharAccumulator.seeded(data, grid, params.epsilon).values(0, n_T + 1, 0, grid.n_x - 1)
    report = PicardReport()
    U = np.zeros_like(free)  # U_1 = 0
    report.norms.append(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, j_max):
            source = np.abs(U + free) ** params.p
            if not np.all(np.isfinite(source)):
                report.diverged_at = j
                break
            U_next = apply_duhamel_field(source, grid, params)
            if not np.all(np.isfinite(U_next)):
                report.diverged_at = j + 1
                break
            report.diff_norms.append(field_weighted_sup(U_next - U, grid, params))
            U = U_next
            report.norms.append(field_weighted_sup(U, grid, params))
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
    xs = [f"{x:.10g}" for x in grid.x_nodes()]
    with open(path, "w") as fh:
        fh.write("t,x,u_t\n")
        for n, row in enumerate(field.levels):
            t = f"{n * grid.h:.10g}"
            fh.write("".join(f"{t},{x},{v:.17g}\n" for x, v in zip(xs, row.tolist())))
