"""Central finite-difference verification of analytic gradients.

Runs in float64. The numeric side re-executes the op forward-only, so it is
independent of the tape machinery it checks.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .ops import mul, sum_all
from .tensor import Tape, Tensor, backward


class GradcheckFailure(AssertionError):
    pass


def gradcheck(op_fn: Callable[..., Tensor], arrays: Sequence[np.ndarray],
              rng: np.random.Generator, h: float = 1e-5,
              rel_tol: float = 1e-4, abs_tol: float = 1e-6) -> float:
    """Compare analytic and central-difference gradients of op_fn.

    op_fn maps len(arrays) Tensors to one Tensor; its output is reduced to a
    scalar through a fixed random weighting so every output element
    contributes. An analytic gradient must have its input's shape. Returns
    the worst observed error ratio (error / tolerance).
    """
    params = [Tensor(np.asarray(a, dtype=np.float64).copy(), requires_grad=True)
              for a in arrays]

    probe = op_fn(*params)
    weights = rng.standard_normal(probe.data.shape)

    def scalar() -> float:
        out = op_fn(*params)
        return float((out.data * weights).sum())

    with Tape():
        out = op_fn(*params)
        loss = sum_all(mul(out, Tensor(weights)))
        grad_map = backward(loss)

    name = getattr(op_fn, "__name__", op_fn)
    worst = 0.0
    for pi, p in enumerate(params):
        analytic = grad_map[p] if p in grad_map else np.zeros_like(p.data)
        if analytic.shape != p.data.shape:
            raise GradcheckFailure(f"{name}: input {pi} gradient shape {analytic.shape}, "
                                   f"input shape {p.data.shape}")
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            f_plus = scalar()
            flat[i] = keep - h
            f_minus = scalar()
            flat[i] = keep
            num[i] = (f_plus - f_minus) / (2.0 * h)
        numeric = num.reshape(p.data.shape)
        denom = abs_tol + rel_tol * np.maximum(np.abs(analytic), np.abs(numeric))
        ratio = np.abs(analytic - numeric) / denom
        bad = ratio > 1.0
        if np.any(bad):
            j = int(np.argmax(ratio))
            raise GradcheckFailure(
                f"{name}: input {pi} element {j}: "
                f"analytic {analytic.reshape(-1)[j]:.8g} vs "
                f"numeric {numeric.reshape(-1)[j]:.8g}"
            )
        if ratio.size:
            worst = max(worst, float(ratio.max()))
    return worst
