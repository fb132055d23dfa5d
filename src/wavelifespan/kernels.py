"""Pointwise weights, the free wave's u_t, and trapezoid Duhamel operators.

The functions are pure; CharAccumulator carries the running sums of one
pass over the levels, seeded with the free data eps*u_t0 when the pass
needs it.  Duhamel integrals are taken along backward characteristics on
the lattice dx = dt = h, so every integrand sample sits exactly on a node
and no interpolation is needed.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import GridSpec, InitialData, ModelParams, align_slack, lattice_index


def bracket(x):
    """Japanese bracket sqrt(1 + x^2)."""
    x = np.asarray(x, dtype=float)
    out = np.sqrt(1.0 + x * x)
    return float(out) if out.ndim == 0 else out


def nonlinear_weight(x, t, params: ModelParams):
    """Damping factor <t+<x>>^{-(1+a)} <t-<x>>^{-(1+b)} of the source term.

    At a = b = -1 both exponents are 0: no bracket is taken, and the weight
    is ones of the broadcast shape of x and t.
    """
    ea, eb = -(1.0 + params.a), -(1.0 + params.b)
    if ea == 0.0 and eb == 0.0:
        out = np.ones(np.broadcast_shapes(np.shape(x), np.shape(t)))
    else:
        bx = bracket(x)
        plus = bracket(np.asarray(t, dtype=float) + bx)
        minus = bracket(np.asarray(t, dtype=float) - bx)
        out = plus ** ea * minus ** eb
    return float(out) if np.ndim(out) == 0 else out


def free_solution_dt(x, t, data: InitialData, epsilon: float):
    """Time derivative of the free wave: eps/2 {f'(x+t)-f'(x-t)+g(x+t)+g(x-t)}."""
    x = np.asarray(x, dtype=float)
    out = 0.5 * epsilon * (
        data.f_prime(x + t) - data.f_prime(x - t) + data.g(x + t) + data.g(x - t)
    )
    return float(out) if out.ndim == 0 else out


class CharAccumulator:
    """Running trapezoid sums of a source along both characteristic families.

    Node (i, n) reads the plus diagonal i + n and the minus diagonal i - n
    (stored offset by n_t) of a lattice with n_x nodes and levels 0..n_t.
    The sums include the trapezoid factor c = h/2, so plus + minus at a node
    is the trapezoid L' of the levels below it.  A seeded accumulator starts
    the two families at the halves of eps*u_t0 that d'Alembert carries along
    them, eps/2 (g + f') and eps/2 (g - f') at the feet of their diagonals,
    so plus + minus adds eps*u_t0 as well.
    """

    def __init__(self, n_x: int, n_t: int, h: float):
        self.c, self.off = 0.5 * h, n_t
        self.plus = np.zeros(n_x + n_t)
        self.minus = np.zeros(n_x + n_t)

    @classmethod
    def seeded(cls, data: InitialData, grid: GridSpec, epsilon: float) -> CharAccumulator:
        """Accumulator on grid whose sums start at the free data.

        free_solution_dt is the pointwise reference for the seeded values.
        """
        k, n_x = grid.n_t, grid.n_x
        acc = cls(n_x, k, grid.h)
        y = grid.x_min + grid.h * np.arange(-k, n_x + k)
        g, fp = data.g(y), data.f_prime(y)
        acc.plus[:] = 0.5 * epsilon * (g[k:] + fp[k:])
        acc.minus[:] = 0.5 * epsilon * (g[: n_x + k] - fp[: n_x + k])
        return acc

    def diagonals(self, n: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the plus and minus sums through nodes lo..hi of level n."""
        k = self.off
        return self.plus[lo + n : hi + n + 1], self.minus[lo - n + k : hi - n + k + 1]

    def values(self, n0: int, n1: int, lo: int, hi: int) -> np.ndarray:
        """plus + minus at nodes lo..hi of levels n0..n1-1, one level per row.

        The windows of plus move one node up per level and those of minus
        one node down.
        """
        k, m = self.off, hi - lo + 1
        plus = sliding_window_view(self.plus, m)[lo + n0 : lo + n1]
        minus = sliding_window_view(self.minus, m)[lo - n1 + k + 1 : lo - n0 + k + 1]
        return plus + minus[::-1]

    def explicit_step(self, n: int, lo: int, hi: int, G: np.ndarray) -> np.ndarray:
        """Explicit trapezoid value at nodes lo..hi of level n, then add G there.

        G is the weighted source on level n.  Level 0 has no history, so its
        value is the seed and G enters the sums at the trapezoid end weight
        1/2.
        """
        plus, minus = self.diagonals(n, lo, hi)
        out = plus + minus
        if n > 0:
            G = self.c * G
            out += G
        else:
            G = 0.5 * self.c * G
        plus += G
        minus += G
        return out


def weight_w(x, t, params: ModelParams):
    """Piecewise weight of the contraction norm; chi = 1 iff t - |x| > R.

    Branches: a>0 outer weight 1; a=0 outer 1/log(t+|x|+R); -1<=a<0 outer
    (t+|x|+R)^a; a<-1 inner weight switches to (1+t+|x|)^{1+a}.  chi is strict:
    a node on t - |x| = R, to within core.align_slack(t), takes the outer one.

    The inner weight is built in place on every node.  At a > 0 it is also
    the outer one: off chi its base is 1, and 1^{1+a} = 1.  At a <= 0 the
    outer weight is evaluated only on the columns (the last axis) where
    some node leaves chi.
    """
    x = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    a, R = params.a, params.R
    chi = x < t - (R + align_slack(t))  # x against a scalar or column: no full-size pass
    # numpy's power of a scalar and of an array can differ in the last bit,
    # so each power below acts on a scalar exactly where the dense form's did
    if a < -1:
        out = 1.0 + t + x
        out **= 1.0 + a
        out = np.asarray(out)
    else:
        # off chi the base is 1: positive, and at a > 0 the outer weight
        out = np.asarray(1.0 + t - x)
        np.copyto(out, 1.0, where=~chi)
        out **= 1.0 + a
    if a <= 0:
        # the columns where some node leaves chi; a scalar is its own column
        cols = (..., ~chi.all(axis=tuple(range(chi.ndim - 1)))) if chi.ndim else ()
        xo, to = (np.broadcast_to(v, chi.shape)[cols] for v in (x, t))
        if a == 0:
            with np.errstate(divide="ignore"):
                outer = 1.0 / np.log(to + xo + R)
        else:
            outer = (to + xo + R) ** a
        out[cols] = np.where(chi[cols], out[cols], outer)
    return float(out) if out.ndim == 0 else out


def duhamel_Lprime(F: Callable, x: float, t: float, params: ModelParams, h: float) -> float:
    """Trapezoid value of the characteristic Duhamel operator applied to F.

    F is sampled at the backward-characteristic nodes (x +/- (t-s), s) for
    s = 0, h, ..., t.  F must be defined at every such node; a sampler that
    raises there is a contract violation surfacing as that exception.
    """
    lattice_index(x, h, f"x={x} is not a lattice node")
    n = lattice_index(t, h, f"t={t} is not a lattice level")
    if n < 0:
        raise ValueError(f"t={t} must be >= 0")
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


def field_sampler(field) -> Callable:
    """Wrap a CharField as an (x, t) -> U callable; KeyError off its lattice or levels."""
    grid = field.grid
    levels = field.stored_levels()

    def sample(x, t):
        try:
            i, n = grid.index_of_x(x), grid.index_of_t(t)
        except ValueError as exc:
            raise KeyError(f"off-lattice access to field values: {exc}") from None
        if np.any(i < 0) or np.any(i >= grid.n_x) or np.any(n < 0) or np.any(n >= len(levels)):
            raise KeyError("field access outside the computed lattice")
        return levels[n, i]

    return sample
