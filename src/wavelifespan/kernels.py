"""Pointwise weights, d'Alembert formulas, and trapezoid Duhamel operators.

The functions are pure; CharAccumulator carries the running sums of one
pass over the levels.  Duhamel integrals are taken along backward
characteristics on the lattice dx = dt = h, so every integrand sample sits
exactly on a node and no interpolation is needed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import ALIGN_TOL, GridSpec, InitialData, ModelParams


def bracket(x):
    """Japanese bracket sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def nonlinear_weight(x, t, params: ModelParams):
    """Damping factor <t+<x>>^{-(1+a)} <t-<x>>^{-(1+b)} of the source term."""
    bx = bracket(x)
    plus = bracket(np.asarray(t, dtype=float) + bx)
    minus = bracket(np.asarray(t, dtype=float) - bx)
    out = plus ** (-(1.0 + params.a)) * minus ** (-(1.0 + params.b))
    return float(out) if np.ndim(out) == 0 else out


def free_solution_dt(x, t, data: InitialData, epsilon: float):
    """Time derivative of the free wave: eps/2 {f'(x+t)-f'(x-t)+g(x+t)+g(x-t)}."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * epsilon * (
        data.f_prime(x + t) - data.f_prime(x - t) + data.g(x + t) + data.g(x - t)
    )
    return float(out) if out.ndim == 0 else out


class FreeField:
    """eps*u_t0 on a characteristic lattice, read off two sampled halves.

    With dx = dt = h the feet x_i +/- t_n of node (i, n) are the nodes
    i +/- n, so eps*u_t0(x_i, t_n) = right[i + n] + left[i - n] with
    right = eps/2 (g + f') and left = eps/2 (g - f') sampled once on the
    lattice padded by n_t nodes at each end (stored offset by n_t).
    free_solution_dt is the pointwise reference for the same values.
    """

    def __init__(self, data: InitialData, grid: GridSpec, epsilon: float):
        self.grid, self.R, self.n_t = grid, data.R, grid.n_t
        y = grid.x_min + grid.h * np.arange(-self.n_t, grid.n_x + self.n_t)
        g, fp = data.g(y), data.f_prime(y)
        self.right = 0.5 * epsilon * (g + fp)
        self.left = 0.5 * epsilon * (g - fp)

    def level(self, n: int, lo: int, hi: int, out=None) -> np.ndarray:
        """Values at nodes lo..hi of level n (into out when given)."""
        k = self.n_t
        return np.add(
            self.right[lo + n + k : hi + n + k + 1], self.left[lo - n + k : hi - n + k + 1], out=out
        )

    def field(self, n_last: int) -> np.ndarray:
        """Levels 0..n_last, written row by row inside the cone |x| <= t + R.

        Outside that cone the free data vanishes, and those zeros are left
        unwritten.
        """
        out = np.zeros((n_last + 1, self.grid.n_x))
        for n in range(n_last + 1):
            lo, hi = self.grid.active_slice(n, self.R)
            self.level(n, lo, hi, out=out[n, lo : hi + 1])
        return out


class CharAccumulator:
    """Running trapezoid sums of a source along both characteristic families.

    Node (i, n) reads the plus diagonal i + n and the minus diagonal i - n
    (stored offset by n_t) of a lattice with n_x nodes and levels 0..n_t.
    The sums are kept without the trapezoid factor h/2.
    """

    def __init__(self, n_x: int, n_t: int, h: float):
        self.h, self.off = h, n_t
        self.plus = np.zeros(n_x + n_t)
        self.minus = np.zeros(n_x + n_t)

    def diagonals(self, n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the plus and minus sums through nodes lo..hi of level n."""
        k = self.off
        return self.plus[lo + n : hi + n + 1], self.minus[lo - n + k : hi - n + k + 1]

    def explicit_step(self, n: int, lo: int, hi: int, G: np.ndarray) -> np.ndarray:
        """Explicit trapezoid L' at nodes lo..hi of level n, then add G there.

        G is the weighted source on level n.  Level 0 has no history, so its
        value is 0 and G enters the sums at the trapezoid end weight 1/2.
        """
        plus, minus = self.diagonals(n, lo, hi)
        if n > 0:
            out = 0.5 * self.h * (plus + minus + G)
        else:
            out = np.zeros_like(G)
            G = 0.5 * G
        plus += G
        minus += G
        return out


def free_solution(x, t, data: InitialData, epsilon: float):
    """d'Alembert value eps*u0(x,t); g-integral from the exact antiderivative."""
    x = np.asarray(x, dtype=float)
    out = epsilon * (
        0.5 * (data.f(x + t) + data.f(x - t))
        + 0.5 * (data.g_antiderivative(x + t) - data.g_antiderivative(x - t))
    )
    return float(out) if out.ndim == 0 else out


def weight_w(x, t, params: ModelParams):
    """Piecewise weight of the contraction norm; chi = 1 iff t - |x| > R.

    Branches: a>0 outer weight 1; a=0 outer 1/log(t+|x|+R); -1<=a<0 outer
    (t+|x|+R)^a; a<-1 inner weight switches to (1+t+|x|)^{1+a}.
    """
    x = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    a, R = params.a, params.R
    chi = t - x > R
    if a < -1:
        inner = (1.0 + t + x) ** (1.0 + a)
    else:
        # only evaluated where chi holds, so keep the base positive elsewhere
        inner = np.where(chi, 1.0 + t - x, 1.0) ** (1.0 + a)
    if a > 0:
        outer = np.ones_like(inner)
    elif a == 0:
        with np.errstate(divide="ignore"):
            outer = 1.0 / np.log(t + x + R)
    else:
        outer = (t + x + R) ** a
    out = np.where(chi, inner, outer)
    return float(out) if out.ndim == 0 else out


def _check_lattice(value: float, h: float, name: str) -> int:
    ratio = value / h
    k = int(round(ratio))
    if abs(ratio - k) > ALIGN_TOL * max(1.0, abs(ratio)) + ALIGN_TOL:
        raise ValueError(f"{name}={value} is not on the lattice with step h={h}")
    return k


def duhamel_Lprime(F: Callable, x: float, t: float, params: ModelParams, h: float) -> float:
    """Trapezoid value of the characteristic Duhamel operator applied to F.

    F is sampled at the backward-characteristic nodes (x +/- (t-s), s) for
    s = 0, h, ..., t.  F must be defined at every such node; a sampler that
    raises there is a contract violation surfacing as that exception.
    """
    _check_lattice(x, h, "x")
    n = _check_lattice(t, h, "t")
    if n == 0:
        return 0.0
    s = h * np.arange(n + 1)
    yp = x + t - s
    ym = x - t + s
    Fp = np.asarray(F(yp, s), dtype=float)
    Fm = np.asarray(F(ym, s), dtype=float)
    Ip = Fp * nonlinear_weight(yp, s, params)
    Im = Fm * nonlinear_weight(ym, s, params)
    return float(0.5 * (np.trapezoid(Ip, dx=h) + np.trapezoid(Im, dx=h)))


def duhamel_L(F: Callable, x: float, t: float, params: ModelParams, h: float) -> float:
    """2D trapezoid value of the full Duhamel term over the backward triangle."""
    _check_lattice(x, h, "x")
    n = _check_lattice(t, h, "t")
    if n == 0:
        return 0.0
    inner = np.zeros(n + 1)
    for k in range(n):  # at k = n the y-interval degenerates; inner stays 0
        s = k * h
        y = np.arange(x - t + s, x + t - s + 0.5 * h, h)
        vals = np.asarray(F(y, np.full_like(y, s)), dtype=float)
        vals = vals * nonlinear_weight(y, s, params)
        inner[k] = np.trapezoid(vals, dx=h)
    return float(0.5 * np.trapezoid(inner, dx=h))


def field_sampler(field) -> Callable:
    """Wrap a CharField as an (x, t) -> U callable that refuses missing nodes."""

    grid = field.grid
    if field.levels is None:
        raise ValueError("field has no stored levels")

    def sample(x, t):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = np.rint((x - grid.x_min) / grid.h).astype(int)
        n = np.rint(t / grid.h).astype(int)
        if np.any(np.abs(x - (grid.x_min + i * grid.h)) > 1e-8) or np.any(
            np.abs(t - n * grid.h) > 1e-8
        ):
            raise KeyError("off-lattice access to field values")
        if (
            np.any(i < 0)
            or np.any(i >= grid.n_x)
            or np.any(n < 0)
            or np.any(n >= field.levels.shape[0])
        ):
            raise KeyError("field access outside the computed lattice")
        return field.levels[n, i]

    return sample
