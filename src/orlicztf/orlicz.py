"""Weighted Luxemburg norms, iterated mixed norms, inequality verifiers.

The Luxemburg norm is inf{lambda > 0 : sum_k w_k Phi(|f_k omega_k| / lambda) <= 1}
with w_k the quadrature weight.  Power-family functions are answered in
closed form.  For everything else the Illinois root finder shared with the
Young-function layer (young._illinois) solves log G = 0 in -log lambda, where
G(lambda) is the non-increasing gauge, evaluated by the function's own
evaluator: the entropy conjugate by its Lambert-W closed form, any other
conjugate by its Legendre transform.  Mixed norms iterate stages of axis
groups, innermost first, with the weight entering only at the innermost stage,
evaluated from the per-axis coordinates into one array of the field's shape.
The Luxemburg norm of a field is the one-stage mixed norm over all its axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import Field, make_grid
from .weights import Weight
from .young import YoungFunction, _gauge_level, closed_power_form


def _luxemburg_batch(a: np.ndarray, w: float, phi: YoungFunction) -> np.ndarray:
    """Row-wise Luxemburg norms of the nonnegative matrix a with scalar
    quadrature weight w: closed form for the power family, else the
    Illinois root finder on the log-gauge in log lambda, to a few ulps.
    The gauge always evaluates Phi through phi._eval_array, so a conjugate
    is exact too (the entropy conjugate in closed form).
    A row with a NaN entry has norm NaN, else one with an inf entry inf.
    Rows are summed C-ordered, whatever the layout of a."""
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
        squeeze = True
    else:
        squeeze = False

    mx = a.max(axis=1) if a.shape[1] else np.zeros(a.shape[0])
    # the row max is NaN or inf exactly when the norm is
    out = np.where(np.isfinite(mx), 0.0, mx)
    live = (mx > 0) & (mx < np.inf)

    cp = closed_power_form(phi)
    if cp is not None:
        c, p = cp
        # a[live] would copy a batch in which every row is live
        rows = a if live.all() else a[live]
        out[live] = (c * w * np.sum(rows ** p, axis=1)) ** (1.0 / p)
    elif np.any(live):
        out[live] = np.exp(-_gauge_level(phi, a[live], w))
    return out[0] if squeeze else out


@dataclass(frozen=True)
class MixedNormSpec:
    """Ordered stages (axis group, Young function), applied innermost first,
    plus one weight that multiplies the integrand at the innermost stage."""

    stages: tuple
    weight: Weight = dc_field(default_factory=Weight.constant_one)

    def __post_init__(self):
        stages = tuple((tuple(axes), phi) for axes, phi in self.stages)
        object.__setattr__(self, "stages", stages)
        seen = [a for axes, _ in stages for a in axes]
        if len(seen) != len(set(seen)):
            raise ValueError("each axis may appear in exactly one stage")

    def axes_covered(self) -> set:
        return {a for axes, _ in self.stages for a in axes}


def mixed_norm(f: Field, spec: MixedNormSpec) -> float:
    """Iterated weighted norm over the given stage list.

    |f|, times the weight, is written straight into the first stage's rows:
    one contiguous row per batch entry, its reduced axes last, as a
    transposed copy would hold them, but with no copy."""
    nd = f.values.ndim
    if spec.axes_covered() != set(range(nd)):
        raise ValueError("stage axes must partition the field axes")

    vals = f.values
    remaining = list(range(nd))
    for k, (axes, phi) in enumerate(spec.stages):
        pos = [remaining.index(a) for a in axes]
        keep = [i for i in range(vals.ndim) if i not in pos]
        perm = keep + pos
        moved = np.transpose(vals, perm)
        if k == 0:
            moved = np.abs(moved, out=np.empty(moved.shape))
            if not spec.weight.is_constant_one:
                moved *= np.transpose(spec.weight.evaluate(f.grid), perm)
        batch_shape = moved.shape[: len(keep)]
        red = int(np.prod(moved.shape[len(keep):], dtype=int)) if pos else 1
        mat = moved.reshape(-1, red)
        w = 1.0
        for a in axes:
            w *= f.grid.axes[a].spacing
        normed = _luxemburg_batch(mat, w, phi)
        vals = normed.reshape(batch_shape)
        remaining = [remaining[i] for i in keep]
    return float(vals.reshape(()))


def luxemburg_norm(f: Field, phi: YoungFunction, omega: Weight | None = None) -> float:
    """Weighted Luxemburg norm of a sampled field: the one-stage mixed norm
    over all of its axes."""
    stages = ((tuple(range(f.values.ndim)), phi),)
    return mixed_norm(f, MixedNormSpec(stages, Weight.constant_one() if omega is None else omega))


# -- inequality verifiers -----------------------------------------------------


def _inverse_product_ok(bound, phi1, phi2) -> bool:
    """phi1^{-&}(s) phi2^{-&}(s) <= bound(s) on a log grid of s in [1e-6, 1e6],
    where the product is finite: the inverse-product premise of the product
    inequality (bound = phi0^{-&}) and of the convolution one (s phi0^{-&})."""
    s = np.geomspace(1e-6, 1e6, 61)
    i1 = phi1._inverse_array(s)
    i2 = phi2._inverse_array(s)
    with np.errstate(invalid="ignore"):
        bad = i1 * i2 > bound(s) * (1.0 + 1e-9)
    return not bool(np.any(bad & np.isfinite(i1 * i2)))


def _young_sum_ok(phi0, phi1, phi2) -> bool:
    def tgrid(phi):
        t2 = phi.infinity_point()
        top = min(t2 * (1 - 1e-9), 1e4) if math.isfinite(t2) else 1e4
        return np.geomspace(1e-4, top, 40)

    t1 = tgrid(phi1)
    t2 = tgrid(phi2)
    lhs = phi0._eval_array(np.outer(t1, t2))
    rhs = phi1._eval_array(t1)[:, None] + phi2._eval_array(t2)[None, :]
    tol = 1e-9 * (1.0 + np.where(np.isfinite(rhs), rhs, 0.0))
    return bool(np.all((lhs <= rhs + tol) | np.isinf(rhs)))


def _random_pair(grid, trials: int, seed: int):
    """Two seeded trials x N batches of unit-variance complex Gaussian rows,
    each drawn when it is taken."""
    rng = np.random.default_rng(seed)
    n = grid.shape[0]
    return ((rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n)))
            / math.sqrt(2.0) for _ in range(2))


def _ratio_report(phis, combine, r1, r2, w: float, precondition: str, pre_ok: bool,
                  trials: int, seed: int) -> dict:
    """The verifiers' report: max |combine(f1, f2)|_{Phi0} / (|f1|_{Phi1} |f2|_{Phi2})
    over the rows f1 of r1 and f2 of r2, and whether it is at most 2."""
    phi0, phi1, phi2 = phis
    # combined here, its rows are freed once their norms are taken
    n0 = _luxemburg_batch(np.abs(combine(r1, r2)), w, phi0)
    n1 = _luxemburg_batch(np.abs(r1), w, phi1)
    n2 = _luxemburg_batch(np.abs(r2), w, phi2)
    mr = float(np.max(n0 / (n1 * n2)))
    return {
        "max_ratio": mr,
        "holds": bool(mr <= 2.0),
        "precondition": precondition,
        "precondition_ok": pre_ok,
        "trials": trials,
        "seed": seed,
    }


def verify_holder(triples, trials: int = 1000, seed: int = 42) -> list:
    """Empirical check of the product inequality

        |f1 f2|_{Phi0} <= 2 |f1|_{Phi1} |f2|_{Phi2}

    for each (phi0, phi1, phi2) in triples, all on one draw of the rows:
    one report per triple, after verifying one of the inequality's two
    sufficient premises on a log grid: the inverse-product comparison, or
    the pointwise two-variable sum bound (the latter is what conjugate
    pairs satisfy exactly).
    """
    grid = make_grid()
    r1, r2 = _random_pair(grid, trials, seed)
    reports = []
    for phi0, phi1, phi2 in triples:
        if _inverse_product_ok(phi0._inverse_array, phi1, phi2):
            pre = "inverse_product"
        elif _young_sum_ok(phi0, phi1, phi2):
            pre = "young_sum"
        else:
            pre = "none"
        reports.append(_ratio_report((phi0, phi1, phi2), np.multiply, r1, r2, grid.weight,
                                     pre, pre != "none", trials, seed))
    return reports


def verify_young_convolution(triples, trials: int = 1000, seed: int = 42) -> list:
    """Empirical check of |f1 * f2|_{Phi0} <= 2 |f1|_{Phi1} |f2|_{Phi2} for
    periodic Riemann-sum convolution, for each (phi0, phi1, phi2) in triples,
    all on one draw of the rows: one report per triple.  The supports are
    confined to the middle half of the axis (the rows are masked in place)
    so the circular convolution agrees with the real one."""
    grid = make_grid()
    w = grid.weight
    r1, r2 = _random_pair(grid, trials, seed)
    mask = np.abs(grid.axes[0].points) <= grid.axes[0].half_extent / 2.0
    r1 *= mask
    r2 *= mask

    def convolve(a, b):
        return np.fft.ifft(np.fft.fft(a, axis=1) * np.fft.fft(b, axis=1), axis=1) * w

    return [_ratio_report((phi0, phi1, phi2), convolve, r1, r2, w, "inverse_product",
                          _inverse_product_ok(lambda s: s * phi0._inverse_array(s), phi1, phi2),
                          trials, seed)
            for phi0, phi1, phi2 in triples]
