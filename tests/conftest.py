import math

import numpy as np
import pytest

import orlicztf as o


@pytest.fixture(scope="session")
def grid64():
    return o.make_grid(64, 8.0)


@pytest.fixture(scope="session")
def grid128():
    return o.make_grid(128, 10.0)


@pytest.fixture(scope="session")
def grid256():
    return o.make_grid(256, 12.0)


def gaussian_window(grid, lam=1.0):
    return o.make_gaussian(grid, lam)


def noise_field(grid, seed):
    rng = np.random.default_rng(seed)
    return o.Field(grid, rng.standard_normal(grid.shape)
                   + 1j * rng.standard_normal(grid.shape))


def coordinate_stack(grid):
    """Test oracle: the coordinates of every sample, shape grid.shape + (d,),
    built by np.meshgrid."""
    mesh = np.meshgrid(*[ax.points for ax in grid.axes], indexing="ij")
    return np.stack(mesh, axis=-1)


def weight_oracle(w, grid):
    """Test oracle: the weight's formula on the coordinate stack, with |x|^2
    summed over its last axis."""
    pts = coordinate_stack(grid)
    r2 = np.sum(pts * pts, axis=-1)
    if w.kind == "constant_one":
        return np.ones(grid.shape)
    if w.kind == "polynomial":
        return (1.0 + r2) ** (w.params["s"] / 2.0)
    with np.errstate(over="ignore"):
        return np.exp(w.params["r"] * np.sqrt(r2))


def unit(f):
    return o.Field(f.grid, f.values / o.l2_norm(f))


def upsample2(vals):
    """Test oracle: trigonometric interpolation onto the doubled grid
    (spacing halved), splitting the Nyquist bin so real inputs stay real."""
    n = vals.shape[0]
    F = np.fft.fft(np.fft.ifftshift(vals))
    G = np.zeros(2 * n, dtype=complex)
    G[: n // 2] = F[: n // 2]
    G[-(n // 2) + 1 :] = F[n // 2 + 1 :]
    G[n // 2] = 0.5 * F[n // 2]
    G[2 * n - n // 2] = 0.5 * F[n // 2]
    return np.fft.fftshift(np.fft.ifft(G) * 2.0)


def direct_shifted(values, shifts, spacing):
    """Test oracle: the trigonometric shift with its ramp formed as one
    np.exp over the outer product of the DFT frequencies and the shifts,
    the Nyquist row cos(pi s / spacing)."""
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    ramp = np.exp(1j * np.multiply.outer(k, shifts * (2.0 * math.pi / (n * spacing))))
    ramp[n // 2] = np.cos(shifts * (math.pi / spacing))
    return np.fft.ifft(ramp * np.fft.fft(values, axis=0).reshape(n, -1), axis=0)


def direct_quantization_change(a, t1, t2):
    """Test oracle: the centred transform of a symbol times one np.exp of
    i (t1 - t2) <u, v> over the coordinates of the dual grid, transformed
    back."""
    d = a.grid.dimension // 2
    axes = tuple(range(2 * d))
    mesh = a.grid.with_dual_axes(axes).mesh()
    mult = np.exp(1j * (t1 - t2) * sum(mesh[i] * mesh[d + i] for i in range(d)))
    s = 1.0
    for i, n in enumerate(a.grid.shape):
        s = s * ((-1.0) ** np.arange(n)).reshape([n if k == i else 1 for k in axes])
    return np.fft.ifftn(np.fft.fftn(a.values * s) * mult) * s
