"""Weight functions on R^d.

A weight is a positive function of |x|, evaluated on the samples of a grid:

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

    def evaluate(self, grid) -> np.ndarray:
        """Weight values at the samples of a grid, an array of its shape.

        |x|^2 is summed from the per-axis coordinates of grid.mesh() in axis
        order into one float array, which is then transformed in place."""
        if self.kind == "constant_one":
            return np.ones(grid.shape)
        out = np.zeros(grid.shape)
        for coords in grid.mesh():
            out += coords * coords
        if self.kind == "polynomial":
            out += 1.0
            out **= self.params["s"] / 2.0
        else:
            np.sqrt(out, out=out)
            out *= self.params["r"]
            # exp overflows to inf, the weight's value far out
            with np.errstate(over="ignore"):
                np.exp(out, out=out)
        return out
