"""Centered uniform grids, sampled complex fields, quadrature, Fourier transform.

Grids are products of centered axes x_k = -L + k*Delta with Delta = 2L/N and
N even.  The dual axis carries xi_m = (pi/L)(m - N/2); dualizing twice
returns the original axis up to rounding, and all grid compatibility checks
are tolerant to that rounding.  The inverse Fourier transform uses the
normalization (2*pi)^(-d/2) * integral F(xi) exp(i<x, xi>) dxi, realized as
an inverse FFT centred by sign vectors (N is even) so that it is exactly
unitary on the grid.

Fields are saved as CSV or JSON text whose bytes are Python's own: each
number is format(v, ".17g") in CSV and json.dumps(v) (repr(v), or NaN,
Infinity, -Infinity) in JSON.  One numpy kernel (_cells) computes that
text for a whole array: the exact decimal digits from a double-double
product, then the bytes from a few templates.  The rare samples where its
error bound cannot settle the digits, and the non-finite ones, are
formatted by Python one at a time.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

_CLOSE = 1e-12  # relative tolerance on half-extents when comparing grids


@dataclass(frozen=True)
class Axis:
    """Centered uniform axis with n points on [-half_extent, half_extent)."""

    n: int
    half_extent: float

    def __post_init__(self):
        if self.n <= 0 or self.n % 2 != 0:
            raise ValueError("axis point count must be positive and even")
        if not (0 < self.half_extent < math.inf):
            raise ValueError("axis half-extent must be finite and positive")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.n

    @property
    def points(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.n)

    def dual(self) -> "Axis":
        return Axis(self.n, math.pi * self.n / (2.0 * self.half_extent))

    def close_to(self, other: "Axis") -> bool:
        return self.n == other.n and math.isclose(
            self.half_extent, other.half_extent, rel_tol=_CLOSE
        )


@dataclass(frozen=True)
class Grid:
    """Product of centered axes; roles label each axis "x" or "xi"."""

    axes: tuple
    roles: tuple = ()

    def __post_init__(self):
        if not self.axes:
            raise ValueError("grid needs at least one axis")
        if not self.roles:
            object.__setattr__(self, "roles", ("x",) * len(self.axes))
        if len(self.roles) != len(self.axes):
            raise ValueError("one role per axis")
        if any(r not in ("x", "xi") for r in self.roles):
            raise ValueError("axis roles are 'x' or 'xi'")

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return tuple(ax.n for ax in self.axes)

    @property
    def weight(self) -> float:
        """Quadrature weight per sample: the product of the axis spacings."""
        w = 1.0
        for ax in self.axes:
            w *= ax.spacing
        return w

    def mesh(self) -> list:
        """Per-axis coordinate arrays shaped for broadcasting over the grid."""
        d = self.dimension
        out = []
        for i, ax in enumerate(self.axes):
            shape = [1] * d
            shape[i] = ax.n
            out.append(ax.points.reshape(shape))
        return out

    def matches(self, other: "Grid") -> bool:
        return self.dimension == other.dimension and all(
            a.close_to(b) for a, b in zip(self.axes, other.axes)
        )

    def with_dual_axes(self, which) -> "Grid":
        axes = list(self.axes)
        roles = list(self.roles)
        for i in which:
            axes[i] = axes[i].dual()
            roles[i] = "xi" if roles[i] == "x" else "x"
        return Grid(tuple(axes), tuple(roles))


def make_grid(n: int = 256, half_extent: float = 12.0, d: int = 1) -> Grid:
    return Grid((Axis(n, half_extent),) * d)


def phase_grid(base: Grid) -> Grid:
    """x-axes of the base grid followed by their dual xi-axes."""
    axes = base.axes + tuple(ax.dual() for ax in base.axes)
    roles = ("x",) * base.dimension + ("xi",) * base.dimension
    return Grid(axes, roles)


@dataclass(frozen=True)
class Field:
    """Complex samples on a grid.  Treated as immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", v)

    def with_values(self, values) -> "Field":
        return Field(self.grid, values)


def inner_product(f: Field, g: Field) -> complex:
    """<f, g> = sum f conj(g) * quadrature weight."""
    if not f.grid.matches(g.grid):
        raise ValueError("grid mismatch in inner product")
    return complex(np.vdot(g.values, f.values) * f.grid.weight)


def l2_norm(f: Field) -> float:
    return float(math.sqrt(np.sum(np.abs(f.values) ** 2) * f.grid.weight))


def _centering_signs(shape, axes) -> tuple:
    """(s, c) with s = prod_i (-1)^(k_i) over `axes`, shaped to broadcast
    against an array of `shape`, and c = (-1)^(sum_i n_i/2)."""
    s = np.ones((1,) * len(shape))
    for i in axes:
        v = np.ones(shape[i])
        v[1::2] = -1.0
        s = s * v.reshape([-1 if a == i else 1 for a in range(len(shape))])
    return s, (-1.0) ** sum(shape[i] // 2 for i in axes)


def _centered_fft(values: np.ndarray, axes, inverse: bool, scale: float = 1.0) -> np.ndarray:
    """scale * the (inverse) DFT along `axes`, indices read as k - n/2.  For even n
    it equals (-1)^(k + n/2) DFT((-1)^j x)_k: sign vectors centre it, not rolls."""
    s, c = _centering_signs(values.shape, axes)
    out = (np.fft.ifftn if inverse else np.fft.fftn)(values * s, axes=axes)
    out *= s * (c * scale)
    return out


def inverse_fourier_transform(f: Field, axes=None) -> Field:
    """Unitary inverse Fourier transform along the selected axes (default all)."""
    d = f.grid.dimension
    axes = tuple(range(d)) if axes is None else tuple(axes)
    out_grid = f.grid.with_dual_axes(axes)
    scale = math.prod(math.sqrt(2.0 * math.pi) / out_grid.axes[i].spacing for i in axes)
    vals = _centered_fft(f.values, axes, inverse=True, scale=scale)
    return Field(out_grid, vals)


# -- constructors -------------------------------------------------------------


def make_gaussian(grid: Grid, lam: float = 1.0, x0=None, xi0=None) -> Field:
    """pi^(-d/4) lam^(d/4) exp(-lam|x - x0|^2 / 2) exp(i <x, xi0>)."""
    if lam <= 0:
        raise ValueError("gaussian width parameter must be positive")
    d = grid.dimension
    x0 = np.zeros(d) if x0 is None else np.broadcast_to(np.atleast_1d(x0), (d,))
    xi0 = np.zeros(d) if xi0 is None else np.broadcast_to(np.atleast_1d(xi0), (d,))
    # the exponent separates over the axes, so d 1-d complex exps, multiplied
    # out by broadcasting, replace one exp per grid point (N vs N^d exps)
    vals = math.pi ** (-d / 4.0) * lam ** (d / 4.0)
    for i, x in enumerate(grid.mesh()):
        vals = vals * np.exp(-0.5 * lam * (x - x0[i]) ** 2 + 1j * xi0[i] * x)
    return Field(grid, vals)


def make_hermite(grid: Grid, n: int) -> Field:
    """n-th orthonormal Hermite function on a 1-d grid, by stable recurrence."""
    if grid.dimension != 1:
        raise ValueError("hermite fields are one-dimensional")
    if n < 0:
        raise ValueError("hermite order must be nonnegative")
    x = grid.axes[0].points
    h_prev = np.zeros_like(x)
    h = math.pi ** -0.25 * np.exp(-0.5 * x * x)
    for k in range(1, n + 1):
        h, h_prev = math.sqrt(2.0 / k) * x * h - math.sqrt((k - 1) / k) * h_prev, h
    return Field(grid, h.astype(complex))


def make_noise(grid: Grid, seed) -> Field:
    """Complex white noise: independent standard normal real and imaginary
    parts.  seed is an int or a numpy Generator, whose stream it continues."""
    rng = np.random.default_rng(seed)
    re = rng.standard_normal(grid.shape)
    im = rng.standard_normal(grid.shape)
    return Field(grid, re + 1j * im)


def make_random_bandlimited(grid: Grid, seed: int, band: float) -> Field:
    """Inverse transform of a seeded random spectrum supported in |xi| <= band.

    Spectral modes are visited in a fixed centered order (0, +1, -1, +2, ...,
    -N/2) per axis, nested, so the same seed yields the same underlying
    function on any grid whose dual extent covers the band.  The result is
    periodic; consumers that need decay should window it.
    """
    if not (band > 0 and math.isfinite(band)):
        raise ValueError("band must be positive and finite")
    rng = np.random.default_rng(seed)
    spec = np.zeros(grid.shape, dtype=complex)
    duals = [ax.dual() for ax in grid.axes]
    orders = []
    for dx in duals:
        half = dx.n // 2
        centered = sorted(range(-half, half), key=lambda r: (abs(r), -r))
        orders.append([r for r in centered if abs(r) * dx.spacing <= band])
    for multi in itertools.product(*orders):
        xi2 = sum((r * dx.spacing) ** 2 for r, dx in zip(multi, duals))
        if math.sqrt(xi2) > band:
            continue
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
        pos = tuple(dx.n // 2 + r for r, dx in zip(multi, duals))
        spec[pos] = c * math.exp(-((math.sqrt(xi2) / band) ** 2))
    spec_field = Field(Grid(tuple(duals)), spec)
    out = inverse_fourier_transform(spec_field)
    return Field(grid, out.values)


def make_gaussian_mix(grid: Grid, seed: int, terms: int = 3) -> Field:
    """Seeded superposition of translated, modulated gaussians.

    Analytic in the coordinates, so the same seed describes the same function
    at every resolution; used wherever results at different N must refer to
    one underlying object.
    """
    if terms < 1:
        raise ValueError("a gaussian mix needs at least one term")
    rng = np.random.default_rng(seed)
    d = grid.dimension
    vals = np.zeros(grid.shape, dtype=complex)
    for _ in range(terms):
        lam = rng.uniform(0.6, 1.4)
        x0 = rng.uniform(-3.0, 3.0, size=d)
        xi0 = rng.uniform(-2.0, 2.0, size=d)
        coef = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
        atom = make_gaussian(grid, lam, x0, xi0)
        vals = vals + coef * atom.values
    return Field(grid, vals)


# -- file formats -------------------------------------------------------------

# Rows (CSV) or samples (JSON) per write.  A chunk holds about 140 bytes of
# padded text a CSV row and a few dozen words of temporaries a sample.  On
# the N = 256 STFT, 2048 keeps the traced peak at 1.5 MiB (CSV) and 0.6 MiB
# (JSON); 4096 writes JSON about 10% faster and CSV no faster, but peaks at
# 2.9 MiB, and 1024 writes JSON about 25% slower, the per-call cost of the
# kernel's numpy operations.
_CHUNK = 2048

_K_MIN, _K_MAX = -310, 345  # 10^k for k = 16 - E, E the decimal exponent of any double
_TIE = 2.0 ** -30  # fallback margin, in units of the 17th significant digit
_POW10_INT = 10 ** np.arange(19, dtype=np.int64)


def _tail(*ends: bytes) -> np.ndarray:
    """The last word of a cell, one per end: NULs, then the end's bytes."""
    return np.frombuffer(b"".join(b"\0" * 6 + e.ljust(2, b"\0") for e in ends), np.uint64)


_COMMA = _tail(b",")
_CSV_ENDS = _tail(b",", b"\n")  # after the real part, after the imaginary part
_JSON_SEP = _tail(b", ")


@functools.cache
def _pow10() -> tuple:
    """(hi, lo, hi_hi, hi_lo, b), indexed by k - _K_MIN for k in [_K_MIN,
    _K_MAX]: 10^k = (hi + lo) 2^b to within 2^-105 relative, hi in [1, 2)
    and lo doubles, and hi_hi + hi_lo = hi split into 26-bit halves."""
    hi, lo, b = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        s = 110 - e  # c = floor(10^k 2^(110 - e)), within 1 of the exact value
        c = (num << s) // den if s >= 0 else num // (den << -s)
        h = float(c)  # int to float rounds to nearest
        hi.append(math.ldexp(h, -110))
        lo.append(math.ldexp(float(c - int(h)), -110))
        b.append(e)
    hi = np.array(hi)
    t = hi * 134217729.0
    hi_hi = t - (t - hi)
    return hi, np.array(lo), hi_hi, hi - hi_hi, np.array(b)


@functools.cache
def _glyphs() -> tuple:
    """The byte templates of a cell (see _cells), as native words: quad[i],
    the four ASCII digits of i < 10^4; zeros[i], the trailing zeros of
    0 < i < 10^4; top[i], "." NUL NUL and the digit i < 10; keep[17 (split
    - 1) + shown - 1], the bytes of the two digit blocks that show;
    prefix[2 lead + negative], the sign and, for lead = 1..4, "0." and
    lead - 1 zeros; exponent[E + 324], "e" and E with its sign and at
    least two digits, and at 633 no exponent."""
    i = np.arange(10_000)
    quad = 48 + np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], 1)
    zeros = (i % 10 == 0).astype(int) + (i % 100 == 0) + (i % 1000 == 0)
    top = np.zeros((10, 4), int)
    top[:, 0], top[:, 3] = ord("."), 48 + np.arange(10)
    split, shown = np.arange(1, 18)[:, None, None], np.arange(1, 18)[None, :, None]
    at = np.arange(20) - 3  # byte -> digit index; byte 0 holds the point
    keep = np.concatenate([(at >= 0) & (at < np.minimum(split, shown)),
                           ((at >= split) & (at < shown)) | ((at == -3) & (shown > split))], 2)
    prefix = [sign + lead for lead in (b"", b"0.", b"0.0", b"0.00", b"0.000")
              for sign in (b"", b"-")]
    exponent = [b"e%+03d" % e for e in range(-324, 309)] + [b""]
    return (quad.astype(np.uint8).view(np.uint32).reshape(-1), zeros,
            top.astype(np.uint8).view(np.uint32).reshape(-1),
            (keep * 255).astype(np.uint8).view(np.uint32).reshape(289, 2, 5),
            np.array(prefix, "S8").view(np.uint64), np.array(exponent, "S8").view(np.uint64))


def _scaled(m, q, k):
    """S = m 2^q 10^k, for integer-valued doubles 0 < m < 2^53 with S near
    10^16, as (n, r): n the double nearest S's leading part, integer-valued,
    and r = S - n.  m hi is exact as Dekker's two-product, and the scaling
    by 2^(q + b) is exact; m lo and the sums round."""
    hi, lo, hh, hl, b = _pow10()
    i = k - _K_MIN
    p = m * hi[i]
    mh = m * 134217729.0
    mh -= mh - m
    ml = m - mh
    h, l = hh[i], hl[i]
    err = ((mh * h - p) + mh * l + ml * h) + ml * l
    scale = ((q + b[i] + 1023) << 52).view(np.float64)  # 2^(q + b)
    p *= scale
    n = np.rint(p)
    return n, (p - n) + (err + m * lo[i]) * scale


def _decimal(x, shortest: bool) -> tuple:
    """(d, e, fallback) for the doubles x: |x| = d 10^(e - 16) with d a
    17-digit integer, 0 for zeros, and the samples left to Python.

    |x| = m 2^q is scaled by _scaled to S = |x| 10^(16 - E) in [10^16,
    10^17), E = floor(log10 |x|): hi + lo is 10^k to 2^-105, m hi is exact
    and the rest rounds at most twice more, so S and its remainder r are
    good to 2^-103 S < 10^-14.  For ".17g" d is round(S), with E fixed by
    the range test and the carry to 10^17.  For repr d has the fewest
    digits that stay within half an ulp of x (a quarter below a power of
    two), scaled like S, and of those the nearest S: the interval holds w
    integers, w >= 1 as half an ulp is more than 0.55 units, so with 10^j
    <= w < 10^(j + 1) it holds a multiple of 10^j and at most one of
    10^(j + 1), which then is the shortest.  A sample whose S lies within
    _TIE = 2^-30 of a rounding tie or of 10^16 or 10^17, or whose interval
    end or choice of two candidates lies within _TIE (1 + half an ulp) of
    one, where the error bound could flip the outcome (with a factor of
    10^4 to spare), falls back, as do NaN and the infinities.  So every
    other sample's digits are Python's, and the rule on which interval
    ends count is Python's own."""
    bits = x.view(np.uint64)
    expo = (bits >> 52 & 0x7FF).astype(np.int64)
    frac = bits & (2 ** 52 - 1)
    finite = expo < 0x7FF
    zero = bits << 1 == 0
    live = finite & ~zero
    m = (frac | (expo > 0).astype(np.uint64) << 52).astype(float)
    q = np.maximum(expo, 1) - 1075
    # 1.5 stands in for zeros and non-finite values, far from every boundary
    m[~live], q[~live] = 3 * 2 ** 51, -52
    e = np.floor(np.log10(m) + q * math.log10(2)).astype(np.int64)
    n, r = _scaled(m, q, 16 - e)
    # the estimate of E can be one off next to a power of ten
    off = ((n - 1e17) + r >= 0).astype(np.int64) - ((n - 1e16) + r < 0)
    fix = np.flatnonzero(off)
    if fix.size:
        e[fix] += off[fix]
        n[fix], r[fix] = _scaled(m[fix], q[fix], 16 - e[fix])
    near = np.minimum(abs((n - 1e16) + r), abs((n - 1e17) + r))
    whole = np.rint(r)
    r -= whole  # S = d + r, |r| <= 1/2
    d = n.astype(np.int64) + whole.astype(np.int64)
    fallback = ~finite | (live & ((near < _TIE) | (abs(abs(r) - 0.5) < _TIE)))
    if shortest:
        hi, b = _pow10()[0::4]
        k = 16 - e - _K_MIN
        half = hi[k] * ((q + b[k] + 1022) << 52).view(np.float64)  # half an ulp, in units of S
        below = half * np.where((frac == 0) & (expo > 1), 0.5, 1.0)
        tol = _TIE * (1.0 + half)  # half is good to 2^-53 relative
        first, last = r - below, r + half  # the interval's ends, less d
        fallback |= live & ((abs(first - np.rint(first)) < tol)
                            | (abs(last - np.rint(last)) < tol))
        first = d + np.ceil(first).astype(np.int64)
        last = d + np.floor(last).astype(np.int64)
        u = _POW10_INT[np.searchsorted(_POW10_INT, last - first + 1, side="right") - 1]
        c0 = d // u * u  # c0 or c0 + u is the multiple of 10^j nearest S inside
        d0 = (d - c0).astype(float) + r  # S - c0
        d1 = (c0 + u - d).astype(float) - r  # c0 + u - S
        both = (c0 >= first) & (c0 + u <= last)
        fallback |= live & both & (abs(d1 - d0) < tol)
        tens = last // (10 * u) * (10 * u)
        d = np.where(tens >= first, tens, c0 + u * ((c0 < first) | (both & (d1 < d0))))
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry
    d[zero], e[zero] = 0, 0
    return d, e, fallback


def _cells(x, shortest: bool, tail) -> np.ndarray:
    """The decimal text of each double in x, as uint64 words of shape
    x.shape + (7,) whose bytes, NULs dropped, are the text and then the
    word `tail` (from _tail, broadcast against x).  The text is format(v,
    ".17g") or, with `shortest`, json.dumps(v): repr(v) for finite v, else
    NaN, Infinity or -Infinity.

    The one decimal kernel.  The digits come from _decimal; the samples it
    leaves are formatted by Python, one at a time.  The words of a cell:
    the sign and a leading "0.000"; two 20-byte copies of the 17 digits,
    the first showing the integer part, the second the point and the
    fraction (in exponent form: the first digit, then the point and the
    rest); the exponent and the tail.  Trailing zeros are dropped; repr is
    positional for -4 <= E < 16 with ".0" on integral values, ".17g" for
    -4 <= E < 17; zeros are the digit 0 with E = 0."""
    x = np.ascontiguousarray(x, dtype=float)
    shape, x = x.shape, x.reshape(-1)
    out = np.empty(shape + (7,), np.uint64)
    d, e, fallback = _decimal(x, shortest)
    quad, zeros, top, keep, prefix, exponent = _glyphs()
    hi8 = d // 10 ** 8
    lo8 = d - hi8 * 10 ** 8
    h4, l4 = hi8 // 10 ** 4, lo8 // 10 ** 4
    groups = [h4 % 10 ** 4, hi8 - h4 * 10 ** 4, l4, lo8 - l4 * 10 ** 4]
    dig = np.stack([top[hi8 // 10 ** 8]] + [quad[g] for g in groups], 1)
    p = 1  # significant digits: up to the last nonzero group, less its trailing zeros
    for i, g in enumerate(groups):
        p = np.where(g == 0, p, 5 + 4 * i - zeros[g])
    sci = (e < -4) | (e >= (16 if shortest else 17))
    lead = ~sci & (e < 0)
    split = np.where(sci, 1, np.where(lead, 17, e + 1))
    shown = np.where(sci | lead, p, np.maximum(p, e + 1 + (shortest & (p <= e + 1))))
    words = out.reshape(-1, 7)
    blocks = words.view(np.uint32)[:, 2:12]
    blocks.shape = (x.size, 2, 5)  # a view: assigning the shape cannot copy
    np.bitwise_and(dig[:, None], keep.take(17 * split + shown - 18, axis=0), out=blocks)
    words[:, 0] = prefix[2 * np.where(lead, -e, 0) + np.signbit(x)]
    out[..., 6] = exponent[np.where(sci & ~fallback, e + 324, 633)].reshape(shape) | tail
    bad = np.flatnonzero(fallback)
    if bad.size:
        fmt = json.dumps if shortest else (lambda v: format(v, ".17g"))
        text = np.array([fmt(v).encode() for v in x[bad].tolist()], "S48")
        words.view(np.uint8)[bad, :48] = text.view(np.uint8).reshape(-1, 48)
    return out


def _grid_header(grid: Grid) -> str:
    ls = ",".join(format(ax.half_extent, ".17g") for ax in grid.axes)
    ns = ",".join(str(ax.n) for ax in grid.axes)
    head = f"# grid d={grid.dimension} L={ls} N={ns}"
    if any(r == "xi" for r in grid.roles):
        head += " roles=" + ",".join(grid.roles)
    return head


def _parse_grid_header(line: str) -> Grid:
    if not line.startswith("# grid "):
        raise ValueError("missing grid header")
    tokens = dict(tok.split("=", 1) for tok in line[len("# grid "):].split())
    d = int(tokens["d"])
    ls = [float(s) for s in tokens["L"].split(",")]
    ns = [int(s) for s in tokens["N"].split(",")]
    if len(ls) == 1:
        ls = ls * d
    if len(ns) == 1:
        ns = ns * d
    roles = tuple(tokens["roles"].split(",")) if "roles" in tokens else ("x",) * d
    return Grid(tuple(Axis(n, l) for n, l in zip(ns, ls)), roles)


def _samples(re, im, shape) -> np.ndarray:
    """Complex samples with the given real and imaginary parts, each set
    directly: re + 1j*im would turn 1 + inf*j into nan + inf*j."""
    re, im = np.asarray(re), np.asarray(im)
    if re.dtype.kind not in "biuf" or im.dtype.kind not in "biuf" or re.shape != im.shape:
        raise ValueError("samples must be numbers, one imaginary part per real part")
    vals = np.empty(re.shape, dtype=complex)
    vals.real, vals.imag = re, im
    return vals.reshape(shape)


def save_csv(f: Field, path: str) -> None:
    """A `# grid ...` header line, then one row per sample in C order: its
    coordinates, real part and imaginary part, each the bytes of
    format(v, ".17g"), so every double is read back exactly.

    Every number goes through the decimal kernel _cells, which leaves to
    format() only NaN, the infinities and the rare samples its error bound
    cannot settle: each axis's coordinates once, the samples _CHUNK rows at
    a time, each chunk one uint8 matrix of whole rows and one write."""
    grid = f.grid
    # each axis's coordinate cells once, at the width of its longest text
    coords = [np.array([t + b"," for t in _cells(ax.points, False, _COMMA).tobytes()
                        .translate(None, b"\0").split(b",")[:-1]]) for ax in grid.axes]
    coords = [c.view(np.uint8).reshape(c.size, -1) for c in coords]
    width = sum(c.shape[1] for c in coords) + 2 * 56  # and two 7-word cells
    flat = f.values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write((_grid_header(grid) + "\n").encode())
        for start in range(0, flat.size, _CHUNK):
            z = flat[start:start + _CHUNK]
            at = np.unravel_index(np.arange(start, start + z.size), grid.shape)
            parts = _cells(np.stack((z.real, z.imag), -1), False, _CSV_ENDS)
            text = bytearray(z.size * width)
            np.concatenate([c.take(i, axis=0) for c, i in zip(coords, at)]
                           + [parts.view(np.uint8).reshape(z.size, -1)], axis=1,
                           out=np.frombuffer(text, np.uint8).reshape(z.size, -1))
            fh.write(text.translate(None, b"\0"))


def load_csv(path: str) -> Field:
    """A field saved by save_csv.  Blank lines and `#` lines after the header
    are skipped, and of each row only the last two cells are read."""
    with open(path) as fh:
        try:
            grid = _parse_grid_header(fh.readline().rstrip("\n"))
            with warnings.catch_warnings():
                # a header-only file: the reshape below reports it
                warnings.simplefilter("ignore", UserWarning)
                body = np.loadtxt(fh, delimiter=",", usecols=(-2, -1), ndmin=2)
            return Field(grid, _samples(body[:, 0], body[:, 1], grid.shape))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path} is not a saved field ({type(exc).__name__}: {exc})") from exc


def save_json(f: Field, path: str) -> None:
    """One object with keys "grid" (d, L, N, roles), "re" and "im", the
    samples in C order: the bytes of json.dump on that object, so finite
    samples are repr(v) and non-finite ones the tokens NaN, Infinity and
    -Infinity, which strict JSON parsers reject.

    The samples go through the decimal kernel _cells _CHUNK at a time, one
    write per chunk; it leaves to json.dumps only the non-finite samples
    and the rare ones its error bound cannot settle."""
    grid = {
        "d": f.grid.dimension,
        "L": [ax.half_extent for ax in f.grid.axes],
        "N": [ax.n for ax in f.grid.axes],
        "roles": list(f.grid.roles),
    }
    flat = f.values.reshape(-1)
    with open(path, "wb") as fh:
        fh.write(('{"grid": ' + json.dumps(grid)).encode())
        for key, part in (("re", flat.real), ("im", flat.imag)):
            fh.write(f', "{key}": ['.encode())
            for start in range(0, flat.size, _CHUNK):
                text = _cells(part[start:start + _CHUNK], True, _JSON_SEP)
                text = text.tobytes().translate(None, b"\0")
                fh.write(text if start + _CHUNK < flat.size else text[:-2])
            fh.write(b"]")
        fh.write(b"}")


def load_json(path: str) -> Field:
    with open(path) as fh:
        try:
            doc = json.load(fh)
            g = doc["grid"]
            grid = Grid(
                tuple(Axis(n, l) for n, l in zip(g["N"], g["L"])),
                tuple(g.get("roles", ["x"] * g["d"])),
            )
            return Field(grid, _samples(doc["re"], doc["im"], grid.shape))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path} is not a saved field ({type(exc).__name__}: {exc})") from exc
