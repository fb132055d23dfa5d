"""Time marching of u_t = eps*u_t0 + L'(|u_t|^p) on the characteristic lattice.

With dx = dt = h both backward characteristics through a node pass through
earlier nodes exactly, so the Duhamel integral is a trapezoid sum of node
values.  Running prefix sums along both characteristic families
(kernels.CharAccumulator) make each node update O(1) amortized.  Seeded
with the halves of the free data that travel along each family, the two
sums through a node add up to eps*u_t0 plus the trapezoid over the levels
below it.  march resolves the s = t endpoint, which couples a node to
itself, by one vectorised Newton iteration per level after a closed-form
fold test has ruled out blow-up; march_ladder marches several epsilons in
lockstep, sharing each level's slice, weight and fold cap.  The explicit
passes, apriori_profiles and picard_iterate, stream their L' through the
level blocks of _level_blocks, stepping every level of a block over the
one slice of its last and widest level: their sources vanish outside
each level's cone, where the unseeded sums hold +0.0, so the extra nodes
change nothing.  picard_iterate stores only its last iterate, in one
field plus O(j_max (n_x + n_t)), and none when the sequence diverged.
march_bytes and apriori_bytes count the peak bytes of a march and of an
a-priori pass, for the CLI to check before it starts one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, TextIO

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

SEED_ROWS = 16  # node rows of n_x doubles that seeding a CharAccumulator holds at its peak


def _fold_cap(gamma: np.ndarray, p: float) -> np.ndarray:
    """Largest base for which z = base + gamma*|z|^p has a root, widened by 1e-12.

    For base > 0 a root exists iff base <= z_m (1 - 1/p) with
    z_m = (p*gamma)^{-1/(p-1)}; crossing that fold is the blow-up test.
    The cap does not depend on epsilon, so every rung of a ladder shares it.
    """
    with np.errstate(divide="ignore"):
        z_m = (p * gamma) ** (-1.0 / (p - 1.0))
    return z_m * (1.0 - 1.0 / p) * (1.0 + 1e-12)


def _solve_level(
    base: np.ndarray,
    gamma: np.ndarray,
    cap: np.ndarray,
    p: float,
    inner_tol: float,
    inner_max: int,
    blow_threshold: float,
) -> tuple[np.ndarray, Optional[Cause]]:
    """Solve z = base + gamma*|z|^p nodewise; returns (z, cause).

    cause is None when every node resolved, no_root when some node is past
    the fold (base > cap, the _fold_cap of gamma), threshold_exceeded when
    |z| escaped blow_threshold or turned non-finite, and inner_max_exhausted
    when z is finite but unconverged after inner_max Newton steps.

    Short of the fold, phi(z) = base + gamma*|z|^p - z is convex with
    phi(base) = gamma*|base|^p >= 0, so Newton from z = base climbs
    monotonically to the smallest root, for either sign of base.  A node
    has converged once |phi(z_i)| <= inner_tol * max(1, |z_i|).
    """
    if (base > cap).any():
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


class _Rung:
    """One epsilon's march in march_ladder: its accumulator, threshold and records."""

    def __init__(
        self, params: ModelParams, data: InitialData, grid: GridSpec, keep_field: bool, track: bool
    ):
        require_valid(params, data, grid)
        self.blow_threshold = default_blow_threshold(params, data)
        self.acc = CharAccumulator.seeded(data, grid, params.epsilon)
        self.levels = np.zeros((grid.n_t + 1, grid.n_x)) if keep_field else None
        self.est = LifespanEstimate(
            T_blow=None, h=grid.h, weighted_sup_history=[] if track else None
        )


def march_ladder(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    epsilons: Sequence[float],
    keep_field: bool = True,
    track_weighted_sup: bool = False,
) -> list[tuple[CharField, LifespanEstimate]]:
    """March one rung per epsilon in lockstep; one (field, estimate) per rung, in order.

    params.epsilon is ignored, and every rung is validated before the first
    level.  A level's active slice, weight and fold cap do not depend on
    epsilon, so they are taken once for all live rungs; each rung then
    solves, scatters and records its own level and leaves the loop at its
    own detection level, so its results are bitwise those of its own march.

    Level 0 is the seed eps*u_t0; Newton solves each later level to
    INNER_TOL within INNER_MAX steps; |U| past default_blow_threshold is
    blow-up.
    """
    rungs = [
        _Rung(replace(params, epsilon=eps), data, grid, keep_field, track_weighted_sup)
        for eps in epsilons
    ]
    h, p, R = grid.h, params.p, params.R
    c = 0.5 * h  # the trapezoid factor of every rung's accumulator
    x = grid.x_nodes()
    live = rungs
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(grid.n_t + 1):
            if not live:
                break
            t = n * h
            lo, hi = grid.active_slice(n, R)
            xa = x[lo : hi + 1]
            if n == 0:  # the seed's weight W
                W = nonlinear_weight(xa, t, params)
            else:  # gamma = c*W; W kept alive through the solve measured slower
                gamma = c * nonlinear_weight(xa, t, params)
                cap = _fold_cap(gamma, p)
            w = None  # weight_w, taken at the level's first resolved rung
            for rung in live:
                acc, est = rung.acc, rung.est
                plus, minus = acc.diagonals(n, lo, hi)
                if n == 0:  # the seed: level 0 has no history, so no endpoint to solve
                    z = acc.explicit_step(0, lo, hi, np.abs(plus + minus) ** p * W)
                else:
                    z, est.cause = _solve_level(
                        plus + minus, gamma, cap, p, INNER_TOL, INNER_MAX, rung.blow_threshold
                    )
                    if est.cause is None:
                        F = np.abs(z) ** p * gamma
                        plus += F  # views: scatter along both characteristic diagonals
                        minus += F
                est.sup_history.append(float(np.abs(z).max()))
                if est.cause is not None:
                    est.T_blow = t - 0.5 * h
                    continue
                if keep_field:
                    rung.levels[n, lo : hi + 1] = z
                if track_weighted_sup:
                    w = weight_w(xa, t, params) if w is None else w
                    est.weighted_sup_history.append(_masked_weighted_sup(z, w))
            live = [rung for rung in live if rung.est.cause is None]

    out = []
    for rung in rungs:
        levels, est = rung.levels, rung.est
        n_done = len(est.sup_history) - 1 - (est.cause is not None)  # the last resolved level
        if levels is not None and est.cause is not None:
            levels = levels[: n_done + 1, :]  # drop the unresolved detection level
        out.append((CharField(grid=grid, levels=levels, n_levels_done=n_done), est))
    return out


def march(
    params: ModelParams,
    data: InitialData,
    grid: GridSpec,
    keep_field: bool = True,
    track_weighted_sup: bool = False,
) -> tuple[CharField, LifespanEstimate]:
    """March the integral equation level by level until blow-up or t_max:
    march_ladder with the one rung params.epsilon."""
    return march_ladder(params, data, grid, [params.epsilon], keep_field, track_weighted_sup)[0]


def sup_history_bytes(grid: GridSpec, rungs: int) -> int:
    """Bytes of the sup histories of march_ladder's rungs: lists of 32-byte floats."""
    return 32 * rungs * (grid.n_t + 1)


def march_bytes(grid: GridSpec, rungs: int, keep_field: bool) -> int:
    """Peak bytes of march_ladder over grid: each rung's accumulator (2 (n_x + n_t)
    doubles), sup history and, if kept, field, and the seeding's scratch."""
    n_x, n_t = grid.n_x, grid.n_t
    per_rung = 2 * (n_x + n_t) + keep_field * (n_t + 1) * n_x
    return 8 * (rungs * per_rung + SEED_ROWS * n_x) + sup_history_bytes(grid, rungs)


def apply_duhamel_field(source: np.ndarray, grid: GridSpec, params: ModelParams) -> np.ndarray:
    """L' applied to a lattice source field (|v|^p already taken by caller).

    source[n, i] is the full integrand numerator v(x_i, t_n) on levels
    0..len(source)-1 of grid; the weight is applied here.  Explicit
    trapezoid: no endpoint implicitness.
    """
    x = grid.x_nodes()
    acc = CharAccumulator(grid)
    out = np.zeros_like(source)
    for n in range(len(source)):
        lo, hi = grid.active_slice(n, params.R)
        G = source[n, lo : hi + 1] * nonlinear_weight(x[lo : hi + 1], n * grid.h, params)
        out[n, lo : hi + 1] = acc.explicit_step(n, lo, hi, G)
    return out


def _explicit_block(acc: CharAccumulator, n0: int, lo: int, G: np.ndarray) -> np.ndarray:
    """Explicit L' on levels n0.. of a block, each row G[j] stepped over nodes lo...

    A row's nodes outside its own level's cone add its source there, +0.0,
    and read diagonals fed only by such nodes of earlier levels, +0.0 too:
    they come out +0.0, as a slice per level would leave them.
    """
    hi = lo + G.shape[1] - 1
    return np.stack([acc.explicit_step(n0 + j, lo, hi, row) for j, row in enumerate(G)])


def _level_blocks(params: ModelParams, data: InitialData, grid: GridSpec):
    """Levels 0..n_t of grid in blocks of BLOCK, as (n0, lo, xa, t, B).

    xa are the x nodes lo..hi of the active slice of the block's last and
    widest level, t is the column of the block's times and B the free data
    eps*u_t0 on xa.  The fields vanish outside a level's cone, so a block's
    weights, sources, sups and explicit steps can all be taken over xa at
    once.
    """
    x = grid.x_nodes()
    free = CharAccumulator.seeded(data, grid, params.epsilon)
    for n0 in range(0, grid.n_t + 1, BLOCK):
        n1 = min(n0 + BLOCK, grid.n_t + 1)
        lo, hi = grid.active_slice(n1 - 1, params.R)
        t = grid.h * np.arange(n0, n1)[:, None]
        yield n0, lo, x[lo : hi + 1], t, free.values(n0, n1, lo, hi)


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
    acc = CharAccumulator(grid)  # L
    if test_field == "picard_U2":
        acc_LU, acc_LB = CharAccumulator(grid), CharAccumulator(grid)
    out = np.empty((3, grid.n_t + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, lo, xa, t, B in _level_blocks(params, data, grid):
            rows = slice(n0, n0 + len(t))
            w = weight_w(xa, t, params)
            cols = (B != 0.0).any(axis=0)
            absB = np.abs(B[:, cols])
            W_cols = nonlinear_weight(xa[cols], t, params)
            source = np.zeros_like(B)
            source[:, cols] = absB**params.p * W_cols
            del B  # only its columns are read from here on
            L = _explicit_block(acc, n0, lo, source)
            if test_field == "free":
                out[0, rows] = _masked_weighted_sup(absB, w[:, cols])
                out[1:, rows] = _masked_weighted_sup(L, w)
                del w, source, L  # free them now: on picard_U2 that ran slower (more page faults)
                continue
            out[0, rows] = _masked_weighted_sup(L, w)
            W = nonlinear_weight(xa, t, params)  # L is dense: so is the source of L'U
            out[1, rows] = _masked_weighted_sup(
                _explicit_block(acc_LU, n0, lo, np.abs(L) ** params.p * W), w
            )
            source[:, cols] = absB ** (params.p - 1) * np.abs(L[:, cols]) * W_cols  # 0 off cols
            out[2, rows] = _masked_weighted_sup(_explicit_block(acc_LB, n0, lo, source), w)
    return out


def apriori_bytes(grid: GridSpec, test_field: str) -> int:
    """Peak bytes of apriori_profiles over grid, with the running maximum that
    verify_apriori takes of its table: the free field's and L's accumulators
    (picard_U2 adds two), the table and its maximum (6 rows of n_t + 1), and the
    seeding's scratch and 4 level blocks of BLOCK x n_x per pair of accumulators."""
    n_x, n_t, k = grid.n_x, grid.n_t, 1 if test_field == "free" else 2
    return 8 * (4 * k * (n_x + n_t) + 6 * (n_t + 1) + (SEED_ROWS + 4 * k * BLOCK) * n_x)


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
    params: ModelParams, data: InitialData, grid: GridSpec, j_max: int
) -> PicardReport:
    """Stream the Picard sequence over the levels of grid and record its weighted norms.

    U_{j+1} needs U_j only on its level and below, so all iterates advance
    together through each block.  diverged_at is the j of the first
    non-finite source |U_j + eps u_t0|^p or iterate U_j, in sequence order.
    """
    require_valid(params, data, grid)
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    accs = [CharAccumulator(grid) for _ in range(1, j_max)]
    norms, diffs = np.zeros(j_max), np.zeros(j_max - 1)
    final = np.zeros((grid.n_t + 1, grid.n_x))
    bad = 2 * j_max  # first non-finite step: 2j for source j, 2j + 1 for iterate j + 1
    with np.errstate(over="ignore", invalid="ignore"):
        for n0, lo, xa, t, B in _level_blocks(params, data, grid):
            w, W = weight_w(xa, t, params), nonlinear_weight(xa, t, params)
            U = np.zeros_like(B)  # U_1 = 0
            for j, acc in enumerate(accs, start=1):
                source = np.abs(U + B) ** params.p
                if not np.isfinite(source).all():
                    bad = min(bad, 2 * j)
                    break
                U_next = _explicit_block(acc, n0, lo, source * W)
                if not np.isfinite(U_next).all():
                    bad = min(bad, 2 * j + 1)
                    break
                diffs[j - 1] = max(diffs[j - 1], _masked_weighted_sup(U_next - U, w).max())
                norms[j] = max(norms[j], _masked_weighted_sup(U_next, w).max())
                U = U_next
            final[n0 : n0 + len(t), lo : lo + len(xa)] = U
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


def pde_residual(field: CharField, data: InitialData, params: ModelParams) -> float:
    """sup over interior nodes of |D_tt u - D_xx u - |U|^p * weight|, where U is
    the stored field and u its reconstruct_u."""
    u = reconstruct_u(field, data, params.epsilon)
    grid = field.grid
    h = grid.h
    if u.shape[0] < 3:
        raise ValueError("need at least three time levels")
    x = grid.x_nodes()[1:-1]
    t = (h * np.arange(u.shape[0]))[1:-1]
    d_tt = (u[2:, 1:-1] - 2.0 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h**2
    d_xx = (u[1:-1, 2:] - 2.0 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    W = nonlinear_weight(x[None, :], t[:, None], params)
    res = d_tt - d_xx - np.abs(field.levels[1:-1, 1:-1]) ** params.p * W
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
