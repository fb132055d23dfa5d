"""Independent explicit leapfrog solver used to cross-check the
characteristic solver and its blow-up times.

Structurally different from the lattice solver on purpose: u (not u_t) is
the unknown, the source is evaluated explicitly from a lagged centered time
difference, and the grid is a standard finite-difference grid with
dt = cfl * dx.

The data vanish outside |x| <= R and the stencil reaches one node per
step, so each level is updated only on the nodes it can reach.  No level
is stored: leapfrog_solve runs the three-level step of _levels to its
verdict, and LeapfrogResult keeps only what replays it.  Consumers replay
the same step, so they read the values the run computed, in O(n_x) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from .core import (
    Cause, InitialData, LifespanEstimate, ModelParams, default_blow_threshold, lattice_index,
    require_valid,
)
from .kernels import nonlinear_weight


def _levels(params: ModelParams, data: InitialData, x: np.ndarray, dx: float, dt: float):
    """The three-level scheme on nodes x, level by level without end.

    Yields (u, ut, new) for levels 0, 1, 2, ...: u is the whole row of the
    level, overwritten when the level three after it is computed; ut is the
    u_t sample its source came from (eps*g on level 0, the forward
    difference on level 1, the lagged centered difference on the level's
    reach after that); new is u on the nodes the level updated.  f and g
    vanish outside |x| <= data.R, so level 1 is nonzero only on that support
    widened by one node and each later level by one node more, clamped to
    the interior of the Dirichlet domain; u is exactly 0 elsewhere.
    """
    eps, p = params.epsilon, params.p
    lam2 = (dt / dx) ** 2
    support = np.flatnonzero(np.abs(x) <= data.R)

    u0 = eps * data.f(x)
    g0 = eps * data.g(x)
    u0_xx = np.zeros_like(x)
    u0_xx[1:-1] = (u0[2:] - 2.0 * u0[1:-1] + u0[:-2]) / dx**2
    src0 = np.abs(g0) ** p * nonlinear_weight(x, 0.0, params)
    u1 = u0 + dt * g0 + 0.5 * dt**2 * (u0_xx + src0)
    u1[0] = u1[-1] = 0.0
    yield u0, g0, u0
    yield u1, (u1 - u0) / dt, u1

    # whole rows of levels n-2, n-1 and n; each is 0 outside its reach
    older, prev, cur = np.zeros_like(x), u0, u1
    for n in count(1):
        t = n * dt
        a = max(support[0] - 1 - n, 1)  # reach of level n + 1
        b = min(support[-1] + 1 + n, x.size - 2) + 1
        # lagged centered difference keeps the source explicit
        if n >= 2:
            ut = (cur[a:b] - older[a:b]) / (2.0 * dt)
        else:
            ut = (cur[a:b] - prev[a:b]) / dt
        src = np.abs(ut) ** p * nonlinear_weight(x[a:b], t, params)
        # the reach of level n - 2 lies inside that of n + 1, so the write
        # below replaces every nonzero node of the reused row
        older[a:b] = (
            2.0 * cur[a:b]
            - prev[a:b]
            + lam2 * (cur[a + 1 : b + 1] - 2.0 * cur[a:b] + cur[a - 1 : b - 1])
            + dt**2 * src
        )
        older, prev, cur = prev, cur, older
        yield cur, ut, cur[a:b]


@dataclass
class LeapfrogResult:
    """What replays leapfrog levels 0..n_levels-1 of one run.

    No level is stored: rows and compare_fields replay the run's three-level
    step from params and data, bitwise the values the run computed, holding
    a few rows at a time.
    """

    params: ModelParams
    data: InitialData
    n_levels: int
    x: np.ndarray
    dx: float
    dt: float

    def rows(self):
        """Whole rows of levels 0..n_levels-1, each overwritten three levels later.

        A caller that keeps a row past the next three must copy it.
        """
        levels = _levels(self.params, self.data, self.x, self.dx, self.dt)
        return islice((u for u, _, _ in levels), self.n_levels)


def leapfrog_solve(
    params: ModelParams,
    data: InitialData,
    dx: float,
    cfl: float = 0.9,
    t_max: float = 10.0,
) -> tuple[LeapfrogResult, LifespanEstimate]:
    """Three-level explicit scheme for the weighted wave equation.

    Steps _levels up to t_max.  A level from 2 on blows up when it is not
    finite on the nodes it updated or the sup |u_t| its source came from
    exceeds default_blow_threshold; the run then ends on the level before.
    """
    require_valid(params, data)
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    if not (0 < dx < np.inf):
        raise ValueError("dx must be positive and finite")
    if not (0 < t_max < np.inf):
        raise ValueError("t_max must be positive and finite")
    blow_threshold = default_blow_threshold(params, data)

    L = t_max + params.R + 1.0
    n_side = int(np.ceil(L / dx))
    x = dx * np.arange(-n_side, n_side + 1)
    dt = cfl * dx
    n_t = int(np.ceil(t_max / dt))

    cause = None
    T_blow = None
    sup_history = []
    with np.errstate(over="ignore", invalid="ignore"):
        for n, (_, ut, new) in enumerate(islice(_levels(params, data, x, dx, dt), n_t + 1)):
            sup_ut = float(np.abs(ut).max())
            sup_history.append(sup_ut)
            if n >= 2 and (not np.isfinite(new).all() or sup_ut > blow_threshold):
                cause = Cause.threshold_exceeded
                t = (n - 1) * dt  # the step from level n - 1 failed
                T_blow = t - 0.5 * dt
                break

    n_levels = len(sup_history) - (cause is not None)
    result = LeapfrogResult(params=params, data=data, n_levels=n_levels, x=x, dx=dx, dt=dt)
    estimate = LifespanEstimate(T_blow=T_blow, h=dt, sup_history=sup_history, cause=cause)
    return result, estimate


def compare_fields(
    char_field,
    leapfrog: LeapfrogResult,
    window: tuple[float, float, float, float],
) -> float:
    """sup over common nodes in the window of |u_t(march) - u_t(leapfrog)|.

    window = (x_lo, x_hi, t_lo, t_hi).  Leapfrog u_t is the centered time
    difference, linearly interpolated in time onto the march levels.  Every
    march node must be a leapfrog node: ValueError unless h is a multiple of
    the leapfrog dx and x_min a leapfrog node.  The leapfrog is replayed
    once, up to the last level the window needs, keeping u only on the
    matched columns of the last four levels replayed.
    """
    levels = char_field.stored_levels()
    x_lo, x_hi, t_lo, t_hi = window
    if not (x_lo < x_hi and t_lo <= t_hi):
        raise ValueError("empty comparison window")
    grid = char_field.grid
    dt = leapfrog.dt
    if leapfrog.n_levels < 3:
        raise ValueError("too few levels for a centered difference")
    lattice_index(grid.h, leapfrog.dx, f"march step {grid.h} is not a multiple of the leapfrog step")
    lattice_index(grid.x_min, leapfrog.dx, f"march x_min={grid.x_min} is not a leapfrog node")
    times_l = dt * np.arange(1, leapfrog.n_levels - 1)  # times of the centered u_t levels
    xs = grid.x_nodes()
    xmask = (xs >= x_lo) & (xs <= x_hi)
    if not xmask.any():
        raise ValueError("empty comparison window")
    ix_leap = np.rint((xs[xmask] - leapfrog.x[0]) / leapfrog.dx).astype(int)
    if (ix_leap < 0).any() or (ix_leap >= leapfrog.x.size).any():
        raise ValueError("window exceeds the leapfrog domain")

    replay = enumerate(leapfrog.rows())
    held = {}  # level -> u at the matched columns, for the last four levels replayed

    def centred_u_t(j):  # u_t of leapfrog level j + 1 at the matched columns
        while j + 2 not in held:
            m, row = next(replay)
            held[m] = row[ix_leap]
            held.pop(m - 4, None)
        return (held[j + 2] - held[j]) / (2.0 * dt)

    worst = None
    for n in range(levels.shape[0]):
        t = n * grid.h
        if t < t_lo or t > t_hi or t < times_l[0] or t > times_l[-1]:
            continue
        # bracketing u_t levels k and k1, both k when there is only one; k
        # never decreases with n, so the levels are replayed in order
        k = max(0, min(int((t - times_l[0]) / dt), len(times_l) - 2))
        k1 = min(k + 1, len(times_l) - 1)
        frac = (t - times_l[k]) / dt
        ut_here = (1.0 - frac) * centred_u_t(k) + frac * centred_u_t(k1)
        diff = np.abs(levels[n, xmask] - ut_here).max()
        worst = diff if worst is None else max(worst, diff)
    if worst is None:
        raise ValueError("empty comparison window")
    return float(worst)
