"""Independent reference evaluations that the tests hold the package to."""

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from wavelifespan.core import Family, InitialData, ModelParams, align_slack
from wavelifespan.kernels import bracket


def free_solution(x, t, data: InitialData, epsilon: float):
    """d'Alembert value eps*u0(x,t); g-integral from the exact antiderivative."""
    x = np.asarray(x, dtype=float)
    out = epsilon * (
        0.5 * (data.f(x + t) + data.f(x - t))
        + 0.5 * (data.g_antiderivative(x + t) - data.g_antiderivative(x - t))
    )
    return float(out) if out.ndim == 0 else out


def nonlinear_weight(x, t, params: ModelParams):
    """Both factors of the source weight, evaluated on every node."""
    bx = bracket(x)
    plus = bracket(np.asarray(t, dtype=float) + bx)
    minus = bracket(np.asarray(t, dtype=float) - bx)
    out = plus ** (-(1.0 + params.a)) * minus ** (-(1.0 + params.b))
    return float(out) if np.ndim(out) == 0 else out


def weight_w(x, t, params: ModelParams):
    """The norm's weight with both branches evaluated on every node."""
    x = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    a, R = params.a, params.R
    chi = x < t - (R + align_slack(t))
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


class TrapezoidSums:
    """Unseeded running trapezoid sums along both characteristic families,
    stepped one node at a time in Python floats.

    plus[d] sums the weighted source c G of the nodes with i + n = d, and
    minus[d] that of the nodes with i - n = d; a diagonal not yet reached
    holds +0.0.
    """

    def __init__(self, h: float):
        self.c = 0.5 * h
        self.plus, self.minus = defaultdict(float), defaultdict(float)

    def step(self, n: int, lo: int, row) -> list:
        """Values at nodes lo.. of level n, then add the source row there;
        level 0 adds it at the trapezoid end weight 1/2."""
        weight = self.c if n > 0 else 0.5 * self.c
        values = []
        for i, g in enumerate(row, start=lo):
            F = weight * float(g)
            value = self.plus[i + n] + self.minus[i - n]
            values.append(value + F if n > 0 else value)
            self.plus[i + n] += F
            self.minus[i - n] += F
        return values


@dataclass(frozen=True)
class FlatTop:
    """Data f = 0, g = amplitude_g on |x| <= R - 1 with a C^2 taper to 0 at |x| = R.

    It stands in for InitialData wherever march and the leapfrog read their
    data.  At a = b = -1 the source weight is 1, so on the plateau's domain
    of dependence u_t = v(t) with v' = |v|^p and v(0) = eps amplitude_g,
    which blows up at T* = (eps amplitude_g)^(1-p) / (p-1) when T* < R - 1.
    """

    amplitude_g: float
    R: float
    family = Family.bump
    amplitude_f = 0.0

    def f(self, x):
        return np.zeros(np.shape(x))

    f_prime = f

    def g(self, x):
        s = np.clip(np.abs(np.asarray(x, dtype=float)) - (self.R - 1.0), 0.0, 1.0)
        return self.amplitude_g * (1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s * s))

    def sup_f_prime(self) -> float:
        return 0.0

    def sup_g(self) -> float:
        return self.amplitude_g
