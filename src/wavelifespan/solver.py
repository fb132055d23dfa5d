"""Time marching of u_t = eps*u_t0 + L'(|u_t|^p) on the characteristic lattice.

With dx = dt = h both backward characteristics through a node pass through
earlier nodes exactly, so the Duhamel integral is a trapezoid sum of node
values.  Running prefix sums along both characteristic families
(kernels.CharAccumulator) make each node update O(1) amortized.  Seeded
with the halves of the free data that travel along each family, the two
sums through a node add up to eps*u_t0 plus the trapezoid over the levels
below it.  march resolves the s = t endpoint, which couples a node to
itself, by one vectorised Newton iteration per level after a closed-form
fold test has ruled out blow-up.  The explicit passes, apriori_profiles and
picard_iterate, stream their L' through the level blocks of _level_blocks;
picard_iterate stores only its last iterate, in one field plus
O(j_max (n_x + n_t)), and none when the sequence diverged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, TextIO

import numpy as np

from .core import (
    CharField,
    Cause,
    GridSpec,
    InitialData,
    LifespanEstimate,
    ModelParams,
    default_blow_threshold,
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


def _solve_level(
    base: np.ndarray,
    gamma: np.ndarray,
    p: float,
    inner_tol: float,
    inner_max: int,
    blow_threshold: float,
) -> tuple[np.ndarray, Optional[Cause]]:
    """Solve z = base + gamma*|z|^p nodewise; returns (z, cause).

    cause is None when every node resolved, no_root when some node is past
    the fold, threshold_exceeded when |z| escaped blow_threshold or turned
    non-finite, and inner_max_exhausted when z is finite but unconverged
    after inner_max Newton steps.

    For base > 0 a root exists iff base <= z_m (1 - 1/p) with
    z_m = (p*gamma)^{-1/(p-1)}; crossing that fold is the blow-up test.
    Otherwise phi(z) = base + gamma*|z|^p - z is convex with
    phi(base) = gamma*|base|^p >= 0, so Newton from z = base climbs
    monotonically to the smallest root, for either sign of base.  A node
    has converged once |phi(z_i)| <= inner_tol * max(1, |z_i|).
    """
    with np.errstate(divide="ignore"):
        z_m = (p * gamma) ** (-1.0 / (p - 1.0))
    if (base > z_m * (1.0 - 1.0 / p) * (1.0 + 1e-12)).any():
        return base, Cause.no_root
    z = base
    for _ in range(inner_max):
        az = np.abs(z)
        scale = az.max()
        if not np.isfinite(scale) or scale > blow_threshold:
            return z, Cause.threshold_exceeded
        gz = gamma * az ** (p - 1.0)
        phi = base + gz * az - z
        if (np.abs(phi) <= inner_tol * np.maximum(az, 1.0)).all():
            return z, None
        z = z - phi / (p * gz * np.sign(z) - 1.0)
    return z, Cause.inner_max_exhausted


def _masked_weighted_sup(U: np.ndarray, w: np.ndarray):
    """sup |w*U| over the last axis (0 where it is empty), treating w*0 as 0
    even where w is singular.

    R >= 1 keeps w >= 0, so w*0 is +0 wherever w is finite: the mask is
    applied only when some w is not.  The product is built in place of |U|.
    """
    v = np.abs(U)
    v *= w if w.max(initial=0.0) < np.inf else np.where(U == 0.0, 0.0, w)
    return v.max(axis=-1, initial=0.0)


def march(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    keep_field: bool = True,
    track_weighted_sup: bool = False,
) -> tuple[CharField, LifespanEstimate]:
    """March the integral equation level by level until blow-up or t_max.

    Level 0 is the seed eps*u_t0; Newton solves each later level to
    INNER_TOL within INNER_MAX steps; |U| past default_blow_threshold is
    blow-up.
    """
    require_valid(params, data, grid)
    blow_threshold = default_blow_threshold(params, data)

    h, p, R = grid.h, params.p, params.R
    x = grid.x_nodes()
    acc = CharAccumulator.seeded(data, grid, params.epsilon)
    levels = np.zeros((grid.n_t + 1, grid.n_x)) if keep_field else None
    sup_history = []
    wsup_history = [] if track_weighted_sup else None
    cause = T_blow = None
    n_done = 0

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.n_t + 1):
            t = n * h
            lo, hi = grid.active_slice(n, R)
            xa = x[lo : hi + 1]
            plus, minus = acc.diagonals(n, lo, hi)
            # each branch takes the weight itself: kept alive through the solve, it measured slower
            if n == 0:  # the seed: level 0 has no history, so no endpoint to solve
                G = np.abs(plus + minus) ** p * nonlinear_weight(xa, t, params)
                z = acc.explicit_step(0, lo, hi, G)
            else:
                gamma = acc.c * nonlinear_weight(xa, t, params)
                z, cause = _solve_level(plus + minus, gamma, p, INNER_TOL, INNER_MAX, blow_threshold)
                if cause is None:
                    F = np.abs(z) ** p * gamma
                    plus += F  # views: scatter along both characteristic diagonals
                    minus += F
            sup_history.append(float(np.abs(z).max()))
            if cause is not None:
                T_blow = t - 0.5 * h
                break
            if keep_field:
                levels[n, lo : hi + 1] = z
            if track_weighted_sup:
                wsup_history.append(_masked_weighted_sup(z, weight_w(xa, t, params)))
            n_done = n

    if keep_field and cause is not None:
        levels = levels[: n_done + 1, :]  # drop the unresolved detection level
    field_out = CharField(grid=grid, levels=levels, n_levels_done=n_done)
    estimate = LifespanEstimate(
        T_blow=T_blow,
        h=h,
        sup_history=sup_history,
        cause=cause,
        weighted_sup_history=wsup_history,
    )
    return field_out, estimate


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


def _level_blocks(params: ModelParams, data: InitialData, grid: GridSpec, n_last: int):
    """Levels 0..n_last in blocks of BLOCK, as (n0, slices, xa, t, B).

    slices are the levels' active slices and xa the x nodes of the last and
    widest; t is the column of the block's times and B the free data
    eps*u_t0 on xa.  The fields vanish outside a level's cone, so a block's
    weights, sources and sups can all be taken over xa at once.
    """
    x = grid.x_nodes()
    free = CharAccumulator.seeded(data, grid, params.epsilon)
    for n0 in range(0, n_last + 1, BLOCK):
        n1 = min(n0 + BLOCK, n_last + 1)
        slices = [grid.active_slice(n, params.R) for n in range(n0, n1)]
        LO, HI = slices[-1]
        t = grid.h * np.arange(n0, n1)[:, None]
        yield n0, slices, x[LO : HI + 1], t, free.values(n0, n1, LO, HI)


def apriori_profiles(
    params: ModelParams, data: InitialData, grid: GridSpec, test_field: str = "free"
) -> np.ndarray:
    """Per-level weighted sups behind the a-priori ratios, in one pass.

    Rows 0, 1 and 2 hold sup |w U|, sup |w L'(|U|^p)| and
    sup |w L'(|B|^{p-1} |U|)| over the active cone of each level 0..n_t,
    where B = eps*u_t0 is the band free field and the test field U is B
    ("free") or L = L'(|B|^p) ("picard_U2").  Each L' streams through
    _level_blocks with its own CharAccumulator, so memory is O(n_x + n_t).
    Every source with a factor |B| vanishes off the block's columns where B
    is nonzero (the bands |x -+ t| < R), so it is built there only.  On
    U = B, L is both numerators; on U = L, only the source of L'U is dense.
    """
    require_valid(params, data, grid)
    if test_field not in ("free", "picard_U2"):
        raise ValueError(f"unknown test field {test_field!r}")
    acc = CharAccumulator(grid.n_x, grid.n_t, grid.h)  # L
    if test_field == "picard_U2":
        acc_LU, acc_LB = (CharAccumulator(grid.n_x, grid.n_t, grid.h) for _ in range(2))
    out = np.empty((3, grid.n_t + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, slices, xa, t, B in _level_blocks(params, data, grid, grid.n_t):
            rows = slice(n0, n0 + len(slices))
            w = weight_w(xa, t, params)
            cols = (B != 0.0).any(axis=0)
            absB = np.abs(B[:, cols])
            W_cols = nonlinear_weight(xa[cols], t, params)
            source = np.zeros_like(B)
            source[:, cols] = absB**params.p * W_cols
            del B  # only its columns are read from here on
            L = _explicit_block(acc, n0, slices, source)
            if test_field == "free":
                out[0, rows] = _masked_weighted_sup(absB, w[:, cols])
                out[1:, rows] = _masked_weighted_sup(L, w)
                del w, source, L  # free them now: on picard_U2 that ran slower (more page faults)
                continue
            out[0, rows] = _masked_weighted_sup(L, w)
            W = nonlinear_weight(xa, t, params)  # L is dense: so is the source of L'U
            out[1, rows] = _masked_weighted_sup(
                _explicit_block(acc_LU, n0, slices, np.abs(L) ** params.p * W), w
            )
            source[:, cols] = absB ** (params.p - 1) * np.abs(L[:, cols]) * W_cols  # 0 off cols
            out[2, rows] = _masked_weighted_sup(_explicit_block(acc_LB, n0, slices, source), w)
    return out


@dataclass
class PicardReport:
    """Weighted norms of the Picard sequence U_{j+1} = L'(|U_j + eps u_t0|^p)."""

    norms: list = field(default_factory=list)  # ||U_j|| for j = 1..j_max
    diff_norms: list = field(default_factory=list)  # ||U_{j+1} - U_j|| for j = 1..j_max-1
    final: Optional[np.ndarray] = None  # U_{j_max}; None when the sequence diverged
    diverged_at: Optional[int] = None

    def contraction_ratios(self) -> list[float]:
        d = self.diff_norms
        return [d[j] / d[j - 1] for j in range(1, len(d)) if d[j - 1] > 0]


def picard_iterate(
    params: ModelParams, data: InitialData, grid: GridSpec, T: float, j_max: int
) -> PicardReport:
    """Stream the Picard sequence on [0, T] and record its weighted norms.

    U_{j+1} needs U_j only on its level and below, so all iterates advance
    together through each block.  diverged_at is the j of the first
    non-finite source |U_j + eps u_t0|^p or iterate U_j, in sequence order.
    """
    require_valid(params, data, grid)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    if not (T >= 0 and np.isfinite(T)):
        raise ValueError(f"T={T:g} must be finite and >= 0")
    n_T = grid.index_of_t(T)
    if n_T > grid.n_t:
        raise ValueError("T exceeds the grid horizon")
    accs = [CharAccumulator(grid.n_x, n_T, grid.h) for _ in range(1, j_max)]
    norms, diffs = np.zeros(j_max), np.zeros(j_max - 1)
    final = np.zeros((n_T + 1, grid.n_x))
    bad = 2 * j_max  # first non-finite step: 2j for source j, 2j + 1 for iterate j + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, slices, xa, t, B in _level_blocks(params, data, grid, n_T):
            w, W = weight_w(xa, t, params), nonlinear_weight(xa, t, params)
            U = np.zeros_like(B)  # U_1 = 0
            for j, acc in enumerate(accs, start=1):
                source = np.abs(U + B) ** params.p
                if not np.isfinite(source).all():
                    bad = min(bad, 2 * j)
                    break
                U_next = _explicit_block(acc, n0, slices, source * W)
                if not np.isfinite(U_next).all():
                    bad = min(bad, 2 * j + 1)
                    break
                diffs[j - 1] = max(diffs[j - 1], _masked_weighted_sup(U_next - U, w).max())
                norms[j] = max(norms[j], _masked_weighted_sup(U_next, w).max())
                U = U_next
            LO, HI = slices[-1]
            final[n0 : n0 + len(slices), LO : HI + 1] = U
    report = PicardReport(norms[: bad // 2].tolist(), diffs[: bad // 2 - 1].tolist())
    if bad < 2 * j_max:
        report.diverged_at = (bad + 1) // 2
    else:
        report.final = final
    return report


def reconstruct_u(field: CharField, data: InitialData, epsilon: float) -> np.ndarray:
    """Per-column trapezoid time-integral of U plus eps*f(x)."""
    U = field.stored_levels()
    u = np.zeros_like(U)
    u[1:] = np.cumsum(field.grid.h * (U[1:] + U[:-1]) / 2.0, axis=0)
    u += epsilon * data.f(field.grid.x_nodes())[None, :]
    return u


def pde_residual(u: np.ndarray, field: CharField, params: ModelParams) -> float:
    """sup over interior nodes of |D_tt u - D_xx u - |U|^p * weight|."""
    U = field.stored_levels()
    grid = field.grid
    h = grid.h
    if u.shape[0] < 3:
        raise ValueError("need at least three time levels")
    x = grid.x_nodes()[1:-1]
    t = (h * np.arange(u.shape[0]))[1:-1]
    d_tt = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h**2
    d_xx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    W = nonlinear_weight(x[None, :], t[:, None], params)
    res = d_tt - d_xx - np.abs(U[1:-1, 1:-1]) ** params.p * W
    return float(np.abs(res).max())


def dump_field_csv(field: CharField, fh: TextIO) -> None:
    """CSV dump to the text stream fh, header t,x,u_t, in row-major time order."""
    levels = field.stored_levels()
    grid = field.grid
    xs = [f"{x:.10g}" for x in grid.x_nodes()]
    fh.write("t,x,u_t\n")
    for n, row in enumerate(levels):
        t = f"{n * grid.h:.10g}"
        fh.write("".join(f"{t},{x},{v:.17g}\n" for x, v in zip(xs, row.tolist())))
