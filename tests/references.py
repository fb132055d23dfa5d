"""Independent reference evaluations that the tests hold the package to."""

import numpy as np

from wavelifespan.core import InitialData, ModelParams, align_slack
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
