"""Adam optimizer over named parameter dicts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..errors import ShapeMismatchError
from .tensor import Tensor

# Kingma & Ba 2015's default moments and epsilon.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """First/second moment estimates plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0

    @classmethod
    def for_params(cls, params: Mapping[str, Tensor]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p.data) for k, p in params.items()},
            v={k: np.zeros_like(p.data) for k, p in params.items()},
        )


def adam_step(params: Mapping[str, Tensor], grads: Mapping[str, np.ndarray],
              state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place on params; advances state by 1.

    Every parameter must have a gradient of matching shape. m, v and the
    parameter are updated in place through one pair of scratch buffers the
    size of the largest parameter, so a step makes no array per parameter.
    The operations and their order are those of the expressions in the
    comments, so each value rounds as they do; m and v keep their dtype.
    """
    t = state.step + 1
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    largest = max((p.data.size for p in params.values()), default=0)
    scratch = {}                                 # dtype -> (2, largest)
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            raise ShapeMismatchError(f"adam_step: missing gradient for {name!r}")
        g = np.asarray(g)
        if g.shape != p.data.shape:
            raise ShapeMismatchError(
                f"adam_step: {name!r} param {p.data.shape} vs grad {g.shape}"
            )
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.data.shape or v.shape != p.data.shape:
            raise ShapeMismatchError(
                f"adam_step: {name!r} state {m.shape}/{v.shape} vs param {p.data.shape}"
            )
        if m.dtype not in scratch:
            scratch[m.dtype] = np.empty((2, largest), dtype=m.dtype)
        a, b = (row[:m.size].reshape(m.shape) for row in scratch[m.dtype])
        np.multiply(m, BETA1, out=m)             # m = BETA1 * m + (1 - BETA1) * g
        np.multiply(g, 1.0 - BETA1, out=a)
        np.add(m, a, out=m)
        np.multiply(v, BETA2, out=v)             # v = BETA2 * v + (1 - BETA2) * (g * g)
        np.multiply(g, g, out=a)
        np.multiply(a, 1.0 - BETA2, out=a)
        np.add(v, a, out=v)
        np.multiply(m, lr / bc1, out=a)          # p -= (lr / bc1) * m / (sqrt(v / bc2) + EPS)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        np.add(b, EPS, out=b)
        np.divide(a, b, out=a)
        p.data -= a
    state.step = t
