"""Centered uniform grids, sampled complex fields, quadrature, Fourier transform.

Grids are products of centered axes x_k = -L + k*Delta with Delta = 2L/N and
N even.  The dual axis carries xi_m = (pi/L)(m - N/2); dualizing twice
returns the original axis up to rounding, and all grid compatibility checks
are tolerant to that rounding.  The inverse Fourier transform uses the
normalization (2*pi)^(-d/2) * integral F(xi) exp(i<x, xi>) dxi, realized as
an inverse FFT centred by sign vectors (N is even) so that it is exactly
unitary on the grid.
"""

from __future__ import annotations

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

_CHUNK = 1024  # samples formatted per write; larger chunks raise peak memory


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
    coordinates, real part and imaginary part, each printed as "%.17g".

    Each axis's coordinates are formatted once, and the rows are formatted
    and written _CHUNK at a time, one % operation per chunk."""
    coords = map(",".join, itertools.product(
        *[[format(c, ".17g") for c in ax.points.tolist()] for ax in f.grid.axes]))
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(_grid_header(f.grid) + "\n")
        for start in range(0, flat.size, _CHUNK):
            z = flat[start:start + _CHUNK]
            cells = [None] * (3 * z.size)
            cells[0::3] = itertools.islice(coords, z.size)
            cells[1::3] = z.real.tolist()
            cells[2::3] = z.imag.tolist()
            fh.write(("%s,%.17g,%.17g\n" * z.size) % tuple(cells))


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
    samples in C order.  Non-finite samples are the tokens NaN and Infinity,
    which strict JSON parsers reject.

    The text is that of json.dump on the whole object, but the samples go
    through the C encoder _CHUNK at a time."""
    grid = {
        "d": f.grid.dimension,
        "L": [ax.half_extent for ax in f.grid.axes],
        "N": [ax.n for ax in f.grid.axes],
        "roles": list(f.grid.roles),
    }
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write('{"grid": ' + json.dumps(grid))
        for key, part in (("re", flat.real), ("im", flat.imag)):
            fh.write(f', "{key}": [')
            for start in range(0, flat.size, _CHUNK):
                chunk = json.dumps(part[start:start + _CHUNK].tolist())[1:-1]
                fh.write(chunk if start == 0 else ", " + chunk)
            fh.write("]")
        fh.write("}")


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
