"""Weight functions on R^d.

A weight is a positive function of the points of a grid:

    constant_one     1
    polynomial(s)    (1 + |x|^2)^(s/2)
    exponential(r)   exp(r |x|)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_KINDS = ("constant_one", "polynomial", "exponential")


@dataclass(frozen=True)
class Weight:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown weight kind: {self.kind!r}")

    @staticmethod
    def constant_one() -> "Weight":
        return Weight("constant_one")

    @staticmethod
    def polynomial(s: float) -> "Weight":
        return Weight("polynomial", {"s": float(s)})

    @staticmethod
    def exponential(r: float) -> "Weight":
        return Weight("exponential", {"r": float(r)})

    @property
    def is_constant_one(self) -> bool:
        if self.kind == "constant_one":
            return True
        if self.kind == "polynomial":
            return self.params["s"] == 0.0
        return self.params["r"] == 0.0

    def evaluate(self, pts):
        """Weight values; pts has shape (..., d), the result has shape (...)."""
        pts = np.asarray(pts, dtype=float)
        if self.kind == "constant_one":
            out = np.ones(pts.shape[:-1])
        elif self.kind == "polynomial":
            out = (1.0 + np.sum(pts * pts, axis=-1)) ** (self.params["s"] / 2.0)
        else:
            # exp overflows to inf, the weight's value far out
            with np.errstate(over="ignore"):
                out = np.exp(self.params["r"] * np.sqrt(np.sum(pts * pts, axis=-1)))
        return float(out) if pts.ndim == 1 else out
