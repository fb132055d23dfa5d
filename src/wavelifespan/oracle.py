"""Independent explicit leapfrog solver used to cross-check the
characteristic solver and its blow-up times.

Structurally different from the lattice solver on purpose: u (not u_t) is
the unknown, the source is evaluated explicitly from a lagged centered time
difference, and the grid is a standard finite-difference grid with
dt = cfl * dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Cause, InitialData, LifespanEstimate, ModelParams, Status
from .kernels import nonlinear_weight
from .solver import default_blow_threshold


@dataclass
class LeapfrogResult:
    u: np.ndarray  # (n_levels, n_x)
    x: np.ndarray
    dx: float
    dt: float

    def u_t_levels(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered-difference u_t at interior time levels; returns (times, u_t)."""
        n = self.u.shape[0]
        if n < 3:
            raise ValueError("too few levels for a centered difference")
        ut = (self.u[2:, :] - self.u[:-2, :]) / (2.0 * self.dt)
        times = self.dt * np.arange(1, n - 1)
        return times, ut


def leapfrog_solve(
    params: ModelParams,
    data: InitialData,
    dx: float,
    cfl: float = 0.9,
    t_max: float = 10.0,
    blow_threshold: Optional[float] = None,
) -> tuple[LeapfrogResult, LifespanEstimate]:
    """Three-level explicit scheme for the weighted wave equation."""
    if not (0 < cfl <= 1):
        raise ValueError("cfl must lie in (0, 1]")
    if dx <= 0:
        raise ValueError("dx must be positive")
    if blow_threshold is None:
        blow_threshold = default_blow_threshold(params, data)

    eps, p = params.epsilon, params.p
    L = t_max + params.R + 1.0
    n_side = int(np.ceil(L / dx))
    x = dx * np.arange(-n_side, n_side + 1)
    dt = cfl * dx
    n_t = int(np.ceil(t_max / dt))
    lam2 = (dt / dx) ** 2

    u = np.zeros((n_t + 1, x.size))
    u[0] = eps * data.f(x)
    g0 = eps * data.g(x)
    u0_xx = np.zeros_like(x)
    u0_xx[1:-1] = (u[0, 2:] - 2.0 * u[0, 1:-1] + u[0, :-2]) / dx**2
    src0 = np.abs(g0) ** p * nonlinear_weight(x, 0.0, params)
    u[1] = u[0] + dt * g0 + 0.5 * dt**2 * (u0_xx + src0)
    u[1, 0] = u[1, -1] = 0.0

    status = Status.survived
    cause = None
    T_blow = None
    n_done = 1
    sup_history = [float(np.max(np.abs(g0))), float(np.max(np.abs((u[1] - u[0]) / dt)))]

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_t):
            t = n * dt
            # lagged centered difference keeps the source explicit
            if n >= 2:
                ut = (u[n] - u[n - 2]) / (2.0 * dt)
            else:
                ut = (u[1] - u[0]) / dt
            src = np.abs(ut) ** p * nonlinear_weight(x, t, params)
            unew = np.zeros_like(x)
            unew[1:-1] = (
                2.0 * u[n, 1:-1]
                - u[n - 1, 1:-1]
                + lam2 * (u[n, 2:] - 2.0 * u[n, 1:-1] + u[n, :-2])
                + dt**2 * src[1:-1]
            )
            sup_ut = float(np.max(np.abs(ut)))
            sup_history.append(sup_ut)
            if not np.all(np.isfinite(unew)) or sup_ut > blow_threshold:
                status = Status.blowup
                cause = Cause.threshold_exceeded
                T_blow = t - 0.5 * dt
                break
            u[n + 1] = unew
            n_done = n + 1

    result = LeapfrogResult(u=u[: n_done + 1], x=x, dx=dx, dt=dt)
    estimate = LifespanEstimate(
        status=status, T_blow=T_blow, h=dt, sup_history=sup_history, cause=cause
    )
    return result, estimate


def discrete_energy(result: LeapfrogResult, n: int) -> float:
    """(1/2) sum (u_t^2 + u_x^2) dx at time level n (centered differences)."""
    u = result.u
    if not (1 <= n <= u.shape[0] - 2):
        raise ValueError("level must be interior for the centered u_t")
    ut = (u[n + 1] - u[n - 1]) / (2.0 * result.dt)
    ux = np.gradient(u[n], result.dx)
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
    if char_field.levels is None:
        raise ValueError("march field has no stored levels")
    x_lo, x_hi, t_lo, t_hi = window
    if not (x_lo < x_hi and t_lo <= t_hi):
        raise ValueError("empty comparison window")
    grid = char_field.grid
    u, dt = leapfrog.u, leapfrog.dt
    if u.shape[0] < 3:
        raise ValueError("too few levels for a centered difference")
    times_l = dt * np.arange(1, u.shape[0] - 1)  # times of the centered u_t levels
    xs = grid.x_nodes()
    xmask = (xs >= x_lo) & (xs <= x_hi)
    if not np.any(xmask):
        raise ValueError("empty comparison window")
    ix_leap = np.rint((xs[xmask] - leapfrog.x[0]) / leapfrog.dx).astype(int)
    if np.any(ix_leap < 0) or np.any(ix_leap >= leapfrog.x.size):
        raise ValueError("window exceeds the leapfrog domain")

    def centred_u_t(j):  # u_t of leapfrog level j + 1 at the matched columns
        return (u[j + 2, ix_leap] - u[j, ix_leap]) / (2.0 * dt)

    worst = None
    n_levels = char_field.levels.shape[0]
    for n in range(n_levels):
        t = n * grid.h
        if t < t_lo or t > t_hi or t < times_l[0] or t > times_l[-1]:
            continue
        # bracketing u_t levels k and k1, both k when there is only one
        k = max(0, min(int((t - times_l[0]) / dt), len(times_l) - 2))
        k1 = min(k + 1, len(times_l) - 1)
        frac = (t - times_l[k]) / dt
        ut_here = (1.0 - frac) * centred_u_t(k) + frac * centred_u_t(k1)
        diff = np.max(np.abs(char_field.levels[n, xmask] - ut_here))
        worst = diff if worst is None else max(worst, diff)
    if worst is None:
        raise ValueError("empty comparison window")
    return float(worst)
