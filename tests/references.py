"""Independent reference evaluations that the tests hold the package to."""

import numpy as np

from wavelifespan.core import InitialData


def free_solution(x, t, data: InitialData, epsilon: float):
    """d'Alembert value eps*u0(x,t); g-integral from the exact antiderivative."""
    x = np.asarray(x, dtype=float)
    out = epsilon * (
        0.5 * (data.f(x + t) + data.f(x - t))
        + 0.5 * (data.g_antiderivative(x + t) - data.g_antiderivative(x - t))
    )
    return float(out) if out.ndim == 0 else out
