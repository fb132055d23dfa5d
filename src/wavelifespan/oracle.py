"""Independent explicit leapfrog solver used to cross-check the
characteristic solver and its blow-up times.

Structurally different from the lattice solver on purpose: u (not u_t) is
the unknown, the source is evaluated explicitly from a lagged centered time
difference, and the grid is a standard finite-difference grid with
dt = cfl * dx.

The data vanish outside |x| <= R and the stencil reaches one node per
step, so each level is updated and stored only on the nodes it can reach:
one flat buffer holds the levels back to back (LeapfrogResult), and
LeapfrogResult.level rebuilds a whole row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Cause, InitialData, LifespanEstimate, ModelParams, default_blow_threshold, require_valid
)
from .kernels import nonlinear_weight


@dataclass
class LeapfrogResult:
    """Leapfrog levels 0..n_levels-1, each stored on the nodes it can reach.

    Level n holds u at nodes lo[n] .. lo[n] + offsets[n+1] - offsets[n] - 1
    in values[offsets[n] : offsets[n+1]]; u is 0 at every other node.
    """

    values: np.ndarray
    lo: np.ndarray  # (n_levels,)
    offsets: np.ndarray  # (n_levels + 1,)
    x: np.ndarray
    dx: float
    dt: float

    @property
    def n_levels(self) -> int:
        return self.lo.size

    def level(self, n: int) -> np.ndarray:
        """u at every node of level n."""
        if not 0 <= n < self.n_levels:
            raise IndexError(f"level {n} outside 0..{self.n_levels - 1}")
        row = np.zeros_like(self.x)
        a, b = self.offsets[n], self.offsets[n + 1]
        row[self.lo[n] : self.lo[n] + b - a] = self.values[a:b]
        return row

    @property
    def u(self) -> np.ndarray:
        """u at every node of every level, as a (n_levels, n_x) array."""
        return np.stack([self.level(n) for n in range(self.n_levels)])

    def u_t_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered-difference u_t at interior time levels; returns (times, u_t)."""
        n = self.n_levels
        if n < 3:
            raise ValueError("too few levels for a centered difference")
        u = self.u
        ut = (u[2:, :] - u[:-2, :]) / (2.0 * self.dt)
        times = self.dt * np.arange(1, n - 1)
        return times, ut


def leapfrog_solve(
    params: ModelParams,
    data: InitialData,
    dx: float,
    cfl: float = 0.9,
    t_max: float = 10.0,
) -> tuple[LeapfrogResult, LifespanEstimate]:
    """Three-level explicit scheme for the weighted wave equation.

    f and g vanish outside |x| <= data.R, so level 1 is nonzero only on that
    support widened by one node, and each later level by one node more.
    Levels are updated and stored on that reach, clamped to the interior
    of the Dirichlet domain; u is exactly 0 elsewhere.  A level blows up
    when it is not finite or sup |u_t| exceeds default_blow_threshold.
    """
    require_valid(params, data)
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    if not (0 < dx < np.inf):
        raise ValueError("dx must be positive and finite")
    if not (0 < t_max < np.inf):
        raise ValueError("t_max must be positive and finite")
    blow_threshold = default_blow_threshold(params, data)

    eps, p = params.epsilon, params.p
    L = t_max + params.R + 1.0
    n_side = int(np.ceil(L / dx))
    x = dx * np.arange(-n_side, n_side + 1)
    dt = cfl * dx
    n_t = int(np.ceil(t_max / dt))
    lam2 = (dt / dx) ** 2

    support = np.flatnonzero(np.abs(x) <= data.R)
    grow = np.maximum(np.arange(n_t + 1) - 1, 0)
    lo = np.maximum(support[0] - 1 - grow, 1)
    hi = np.minimum(support[-1] + 1 + grow, x.size - 2)
    offsets = np.concatenate(([0], np.cumsum(hi - lo + 1)))
    values = np.empty(offsets[-1])

    def store(n, row):
        values[offsets[n] : offsets[n + 1]] = row[lo[n] : hi[n] + 1]

    u0 = eps * data.f(x)
    g0 = eps * data.g(x)
    u0_xx = np.zeros_like(x)
    u0_xx[1:-1] = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / dx**2
    src0 = np.abs(g0) ** p * nonlinear_weight(x, 0.0, params)
    u1 = u0 + dt * g0 + 0.5 * dt**2 * (u0_xx + src0)
    u1[0] = u1[-1] = 0.0
    store(0, u0)
    store(1, u1)

    cause = None
    T_blow = None
    n_done = 1
    sup_history = [float(np.max(np.abs(g0))), float(np.max(np.abs((u1 - u0) / dt)))]

    # whole rows of levels n-2, n-1 and n; each is 0 outside its reach
    older, prev, cur = np.zeros_like(x), u0, u1
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_t):
            t = n * dt
            a, b = lo[n + 1], hi[n + 1] + 1  # reach of level n + 1
            # lagged centered difference keeps the source explicit
            if n >= 2:
                ut = (cur[a:b] - older[a:b]) / (2.0 * dt)
            else:
                ut = (cur[a:b] - prev[a:b]) / dt
            src = np.abs(ut) ** p * nonlinear_weight(x[a:b], t, params)
            unew = (
                2.0 * cur[a:b]
                - prev[a:b]
                + lam2 * (cur[a + 1 : b + 1] - 2.0 * cur[a:b] + cur[a - 1 : b - 1])
                + dt**2 * src
            )
            sup_ut = float(np.max(np.abs(ut)))
            sup_history.append(sup_ut)
            if not np.all(np.isfinite(unew)) or sup_ut > blow_threshold:
                cause = Cause.threshold_exceeded
                T_blow = t - 0.5 * dt
                break
            # the reach of level n - 2 lies inside that of n + 1, so the
            # write below replaces every nonzero node of the reused row
            older[a:b] = unew
            older, prev, cur = prev, cur, older
            store(n + 1, cur)
            n_done = n + 1

    result = LeapfrogResult(
        values=values[: offsets[n_done + 1]], lo=lo[: n_done + 1],
        offsets=offsets[: n_done + 2], x=x, dx=dx, dt=dt,
    )
    estimate = LifespanEstimate(T_blow=T_blow, h=dt, sup_history=sup_history, cause=cause)
    return result, estimate


def discrete_energy(result: LeapfrogResult, n: int) -> float:
    """(1/2) sum (u_t^2 + u_x^2) dx at time level n (centered differences)."""
    if not (1 <= n <= result.n_levels - 2):
        raise ValueError("level must be interior for the centered u_t")
    ut = (result.level(n + 1) - result.level(n - 1)) / (2.0 * result.dt)
    ux = np.gradient(result.level(n), result.dx)
    return float(0.5 * np.sum(ut**2 + ux**2) * result.dx)


def compare_fields(
    char_field,
    leapfrog: LeapfrogResult,
    window: tuple[float, float, float, float],
) -> float:
    """sup over common nodes in the window of |u_t(march) - u_t(leapfrog)|.

    window = (x_lo, x_hi, t_lo, t_hi).  Leapfrog u_t is the centered time
    difference, linearly interpolated in time onto the march levels; x nodes
    are matched to the nearest leapfrog node (grids are commensurate by
    construction).  The difference is taken only on the two bracketing
    leapfrog levels and the matched columns, so no u_t array is built.
    """
    levels = char_field.stored_levels()
    x_lo, x_hi, t_lo, t_hi = window
    if not (x_lo < x_hi and t_lo <= t_hi):
        raise ValueError("empty comparison window")
    grid = char_field.grid
    dt = leapfrog.dt
    if leapfrog.n_levels < 3:
        raise ValueError("too few levels for a centered difference")
    times_l = dt * np.arange(1, leapfrog.n_levels - 1)  # times of the centered u_t levels
    xs = grid.x_nodes()
    xmask = (xs >= x_lo) & (xs <= x_hi)
    if not np.any(xmask):
        raise ValueError("empty comparison window")
    ix_leap = np.rint((xs[xmask] - leapfrog.x[0]) / leapfrog.dx).astype(int)
    if np.any(ix_leap < 0) or np.any(ix_leap >= leapfrog.x.size):
        raise ValueError("window exceeds the leapfrog domain")

    def centred_u_t(j):  # u_t of leapfrog level j + 1 at the matched columns
        return (leapfrog.level(j + 2)[ix_leap] - leapfrog.level(j)[ix_leap]) / (2.0 * dt)

    worst = None
    for n in range(levels.shape[0]):
        t = n * grid.h
        if t < t_lo or t > t_hi or t < times_l[0] or t > times_l[-1]:
            continue
        # bracketing u_t levels k and k1, both k when there is only one
        k = max(0, min(int((t - times_l[0]) / dt), len(times_l) - 2))
        k1 = min(k + 1, len(times_l) - 1)
        frac = (t - times_l[k]) / dt
        ut_here = (1.0 - frac) * centred_u_t(k) + frac * centred_u_t(k1)
        diff = np.max(np.abs(levels[n, xmask] - ut_here))
        worst = diff if worst is None else max(worst, diff)
    if worst is None:
        raise ValueError("empty comparison window")
    return float(worst)
