"""Weighted Luxemburg norms and iterated mixed norms.

The Luxemburg norm is inf{lambda > 0 : sum_k w_k Phi(|f_k omega_k| / lambda) <= 1}
with w_k the quadrature weight.  Power-family functions are answered in
closed form, taken over the row max where the sum leaves the floating-point
range or where its p-th root would lose digits to the rounding of 1/p.
Every other row is solved here by one driver (_gauge_level): the row is
divided by its max, and the Illinois root finder shared with the
Young-function layer (young._illinois) solves log G = 0 in
v = log(max / lambda), where G(lambda) is the non-increasing gauge, so the
tolerance is relative to the norm at every scale.  Only the evaluator of
the log-gauge depends on the kind: the entropy gauge is read from sorted
prefix sums of each row (_entropy_gauge); every other gauge is evaluated by
the function's own evaluator (_phi_gauge): the entropy conjugate by its
Lambert-W closed form, any other conjugate by its Legendre transform.
Mixed norms iterate stages of axis groups, innermost first, with the weight
entering only at the innermost stage, evaluated from the per-axis
coordinates into one array of the field's shape.  The first stage can take
the field in slabs along axis 0, as a d >= 2 modulation norm feeds its
STFT: a power stage then sums each slab into its rows and drops it, so the
samples are never held at once.
The Luxemburg norm of a field is the one-stage mixed norm over all its axes.
Every batch of rows is solved in blocks of whole rows, at most _BLOCK
samples a block, so the solvers' temporaries are the size of a block, not
of the batch; each row's solve reads only its own row, so the blocks do not
change a bit of the norms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .field import Field
from .weights import Weight
from .young import (ENTROPY_INTERCEPT, ENTROPY_SLOPE, ENTROPY_SPLICE, _TINY, YoungFunction,
                    _illinois, closed_power_form)

_BLOCK = 2 ** 16  # most samples in a block of Luxemburg rows; larger blocks raise peak memory


def _settled(mx: np.ndarray):
    """(out, live) for rows with maxima mx: the norm wherever the max
    settles it (NaN or inf exactly when the max is, 0 for a zero row), and
    the rows left to solve."""
    return np.where(np.isfinite(mx), 0.0, mx), (mx > 0) & (mx < np.inf)


@functools.cache
def _root_range(p: float) -> tuple:
    """(lo, hi): the s > 0 whose root s ** (1/p) keeps its digits.  The
    rounding error e of 1/p moves the root by |log s| e relative, which
    stays within an ulp while |log s| <= eps / e: everywhere when 1/p is
    exact (p a power of 2) or not finite."""
    r = 1.0 / p
    if r == math.inf:
        return 0.0, math.inf
    (a, b), (c, d) = p.as_integer_ratio(), r.as_integer_ratio()
    e = abs(b * d - a * c) / (a * d)  # |b/a - c/d|, rounded once
    reach = float(np.finfo(float).eps) / e if e else math.inf
    return math.exp(-reach), math.exp(reach) if reach < 709.0 else math.inf


def _power_norms(mx: np.ndarray, sums: np.ndarray, c: float, w: float, p: float):
    """(out, lost): the closed-form norms (c w sum a^p)^(1/p) of rows with
    maxima mx and power sums sums, and the live rows whose c w sum left the
    normal range, which the closed form cannot answer.  A sum whose root
    would lose digits (_root_range) is taken over its row max m instead,
    m (c w sum a^p / m^p)^(1/p), from the same sum.  Over- and underflow
    are the caller's to silence."""
    out, live = _settled(mx)
    total = c * w * sums[live]
    norms = total ** (1.0 / p)
    normal = (total >= _TINY) & (total < np.inf)
    lo, hi = _root_range(p)
    far = normal & ((total < lo) | (total > hi))
    m = mx[live][far]
    norms[far] = m * (total[far] / m ** p) ** (1.0 / p)
    out[live] = norms
    return out, np.flatnonzero(live)[~normal]


def _luxemburg_batch(a: np.ndarray, w: float, phi: YoungFunction, *,
                     overwrite: bool = False) -> np.ndarray:
    """Row-wise Luxemburg norms of the nonnegative matrix a with scalar
    quadrature weight w: the power family in closed form, every other kind
    by one root finder on the log-gauge of the rows scaled to max 1
    (_gauge_level), which stops within a few ulps of the norm at every
    scale.  The gauge is read from sorted prefix sums for the entropy kind,
    and evaluates Phi through phi._eval_array for every other kind, so that
    a conjugate is exact too (the entropy conjugate in closed form).
    A row with a NaN entry has norm NaN, else one with an inf entry inf.
    Rows are summed C-ordered, whatever the layout of a.

    The rows are solved in blocks of whole rows, at most _BLOCK samples a
    block (a longer row is a block of its own), so every temporary is the
    size of a block.  Each row's solve, closed form or root finder, reads
    only that row, so the norms do not depend on the blocking.  With
    overwrite, the gauge may work in a block of a whose rows are all live
    (it scales the rows in place, and the entropy gauge sorts them); any
    other block is solved on a copy of its live rows."""
    a = np.ascontiguousarray(a, dtype=float)
    if a.ndim == 1:
        a = a[None, :]
        squeeze = True
    else:
        squeeze = False

    out = np.empty(a.shape[0])
    step = max(1, _BLOCK // max(1, a.shape[1]))
    cp = closed_power_form(phi)
    for i in range(0, a.shape[0], step):
        b = a[i:i + step]
        mx = b.max(axis=1) if b.shape[1] else np.zeros(b.shape[0])
        if cp is not None:
            c, p = cp
            with np.errstate(over="ignore", under="ignore"):
                norms, lost = _power_norms(mx, np.sum(b ** p, axis=1), c, w, p)
                if lost.size:
                    # a sum out of the normal range is taken again over the
                    # row max, which keeps the power of every entry at most 1
                    m = mx[lost]
                    sums = np.sum((b[lost] / m[:, None]) ** p, axis=1)
                    norms[lost] = m * (c * w * sums) ** (1.0 / p)
        else:
            norms, live = _settled(mx)
            if np.any(live):
                rows = b if overwrite and live.all() else b[live]
                norms[live] = _gauge_level(phi, rows, mx[live], w)
        out[i:i + step] = norms
    return out[0] if squeeze else out


def _gauge_level(phi: YoungFunction, rows: np.ndarray, m: np.ndarray, w: float):
    """The Luxemburg norms m_i e^{-v_i} of the rows, with maxima m_i > 0,
    where v_i = sup{v : w sum_k Phi(b_ik e^v) <= 1} for b = rows / m,
    written over the rows.

    The log-gauge rises in v at least as fast as the quasi-Young order q,
    since Phi(t)/t^q is nondecreasing, which bounds the first bracket; it is
    -inf while every entry sits in the zero set [0, t1] and +inf once the
    row max 1 passes t2, so v is confined to [log t1, log t2].  Each row's
    max is 1, so the root finder's tolerance is relative to the norm at
    every scale.  The log-gauge comes from the entropy kind's sorted prefix
    sums (_entropy_gauge), or else from Phi's own evaluator (_phi_gauge)."""
    rows /= m[:, None]
    gauge, data, total = (_entropy_gauge if phi.kind == "entropy" else _phi_gauge)(phi, rows, w)
    with np.errstate(divide="ignore"):
        lo, hi = np.log([phi.zero_point(), phi.infinity_point()])
    v = _illinois(gauge, -np.log(w * total + 1.0), lo, hi, phi.quasi_order, *data)
    return m * np.exp(-v)


def _phi_gauge(phi: YoungFunction, b: np.ndarray, w: float):
    """(log_gauge, data, row sums) of the rows b with max 1, evaluating Phi
    through phi._eval_array at every step, so that a conjugate is exact too
    (the entropy conjugate in closed form, any other by its Legendre
    transform)."""
    t2 = phi.infinity_point()

    def log_gauge(v, b):
        x = b * np.exp(v)[:, None]
        if math.isfinite(t2):
            # v <= log t2, so only rounding can carry an entry past t2
            np.minimum(x, t2, out=x)
        s = w * phi._eval_array(x).sum(axis=1)
        # Phi >= 0, so a NaN sum has a NaN term, which counts as +inf
        s[np.isnan(s)] = np.inf
        return np.log(s)

    return log_gauge, (b,), b.sum(axis=1)


def _entropy_gauge(phi: YoungFunction, b: np.ndarray, w: float):
    """(log_gauge, data, row sums) of the rows b with max 1 for the entropy
    Phi, read from tables of b sorted ascending in each row, in place.

    With j = #{b_k <= e^{-3/2} e^{-v}} the entries below the splice, the
    sum is e^{2v} (P_j - v Q_j) + 2 e^{-3/2} e^v S_j - e^{-3} (n - j) / 2,
    from the prefix sums Q_j of b^2 and P_j of -b^2 log b and the suffix
    sums S_j of b, each a sum of nonnegative terms.  A small entry has
    -log b - v >= 3/2, so P_j - v Q_j >= 3/2 Q_j and nothing cancels.
    The temporaries scale with the rows passed.
    """
    b.sort(axis=1)
    r, n = b.shape
    sq, ent, top = np.zeros((3, r, n + 1))
    np.multiply(b, b, out=sq[:, 1:])
    np.log(b, out=ent[:, 1:], where=b > 0)
    ent *= sq
    np.negative(ent, out=ent)
    np.cumsum(sq[:, 1:], axis=1, out=sq[:, 1:])
    np.cumsum(ent[:, 1:], axis=1, out=ent[:, 1:])
    np.cumsum(b[:, ::-1], axis=1, out=top[:, -2::-1])

    def log_gauge(v, live):
        # b is read in place, never copied: a row that has left the loop is
        # compared with 0 and its count dropped
        x = np.zeros(r)
        x[live] = ENTROPY_SPLICE * np.exp(-v)
        j = np.count_nonzero(b <= x[:, None], axis=1)[live]
        ev = np.exp(v)
        # fmax turns inf * 0, where the small set holds only zeros, into 0
        small = np.fmax(ev * ev * (ent[live, j] - v * sq[live, j]), 0.0)
        return np.log(w * (small + ENTROPY_SLOPE * ev * top[live, j]
                           - ENTROPY_INTERCEPT * (n - j)))

    # the suffix sum S_0 is the row sum
    return log_gauge, (np.arange(r),), top[:, 0]


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
    """Iterated weighted norm over the given stage list, of the field taken
    as one slab (see _streamed_mixed_norm)."""
    return _streamed_mixed_norm(f.grid, spec, f.values.__getitem__, f.grid.shape[0])


def _spacing(grid, axes) -> float:
    w = 1.0
    for a in axes:
        w *= grid.axes[a].spacing
    return w


def _streamed_mixed_norm(grid, spec: MixedNormSpec, slab, step: int) -> float:
    """Iterated weighted norm of the field on `grid` whose samples at the
    axis-0 indices of a slice `rows` are slab(rows), fed in slabs of `step`
    indices; only the first stage sees the samples, each slab once."""
    nd = grid.dimension
    if spec.axes_covered() != set(range(nd)):
        raise ValueError("stage axes must partition the field axes")

    vals = _first_stage(grid, spec, slab, step)
    remaining = [i for i in range(nd) if i not in spec.stages[0][0]]
    for axes, phi in spec.stages[1:]:
        pos = [remaining.index(a) for a in axes]
        keep = [i for i in range(vals.ndim) if i not in pos]
        moved = np.transpose(vals, keep + pos)
        batch_shape = moved.shape[: len(keep)]
        red = int(np.prod(moved.shape[len(keep):], dtype=int)) if pos else 1
        normed = _luxemburg_batch(moved.reshape(-1, red), _spacing(grid, axes), phi)
        vals = normed.reshape(batch_shape)
        remaining = [remaining[i] for i in keep]
    return float(vals.reshape(()))


def _first_stage(grid, spec: MixedNormSpec, slab, step: int) -> np.ndarray:
    """The first stage's norms, shaped by its kept axes, reducing each slab
    as it comes.

    A closed power stage over several slabs adds each slab's row maxima and
    power sums, reduced in the slab's own layout, into its rows: a slab's
    own rows when axis 0 is kept, else every row; a row whose sum leaves the
    normal range is summed again, as (a / max)^p, in a second pass.
    Every other stage, and a single slab (so that a formed field keeps its
    bits), solve the stage's rows by _luxemburg_batch: |f|, times the
    weight, of each slab is written straight into them, one contiguous row
    per batch entry with its reduced axes last, as a transposed copy would
    hold them, but with no copy."""
    (axes, phi), nd = spec.stages[0], grid.dimension
    keep = [i for i in range(nd) if i not in axes]
    perm = keep + list(axes)
    shape = tuple(grid.shape[i] for i in perm)
    batch = shape[: len(keep)]
    w = _spacing(grid, axes)
    weight = None if spec.weight.is_constant_one else spec.weight.evaluate(grid)
    slabs = [slice(i, i + step) for i in range(0, grid.shape[0], step)]

    def moduli():  # (where in the batch, |f| times the weight) of each slab
        for rows in slabs:
            a = np.abs(slab(rows))
            if weight is not None:
                a *= weight[rows]
            yield (rows if 0 in keep else Ellipsis), a

    cp = closed_power_form(phi)
    if cp is not None and len(slabs) > 1:
        c, p = cp
        mx, sums = np.zeros(batch), np.zeros(batch)
        for at, a in moduli():
            mx[at] = np.maximum(mx[at], a.max(axis=axes))
            with np.errstate(over="ignore", under="ignore"):
                sums[at] += np.power(a, p, out=a).sum(axis=axes)
        with np.errstate(over="ignore", under="ignore"):
            out, lost = _power_norms(mx.reshape(-1), sums.reshape(-1), c, w, p)
        if lost.size:
            # as in _luxemburg_batch, a sum out of the normal range is taken
            # again over the row max, in a second pass over the slabs (a row
            # whose max is 0 divides to NaN and is not read)
            top, sums = np.expand_dims(mx, axes), np.zeros(batch)
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                for at, a in moduli():
                    sums[at] += np.power(np.divide(a, top[at], out=a), p, out=a).sum(axis=axes)
                m = mx.reshape(-1)[lost]
                out[lost] = m * (c * w * sums.reshape(-1)[lost]) ** (1.0 / p)
        return out.reshape(batch)

    buf = np.empty(shape)
    in_field_order = np.transpose(buf, np.argsort(perm))
    for rows in slabs:
        moved = np.abs(np.transpose(slab(rows), perm),
                       out=np.transpose(in_field_order[rows], perm))
        if weight is not None:
            moved *= np.transpose(weight[rows], perm)
    weight = None  # freed before the rows are solved
    rows = buf.reshape(-1, math.prod(shape[len(keep):]))
    return _luxemburg_batch(rows, w, phi, overwrite=True).reshape(batch)


def luxemburg_norm(f: Field, phi: YoungFunction, omega: Weight | None = None) -> float:
    """Weighted Luxemburg norm of a sampled field: the one-stage mixed norm
    over all of its axes."""
    stages = ((tuple(range(f.values.ndim)), phi),)
    return mixed_norm(f, MixedNormSpec(stages, Weight.constant_one() if omega is None else omega))

