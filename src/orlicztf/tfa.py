"""Time-frequency transforms: STFT and adjoint, projection, twisted
convolution, parameterized Wigner distributions, quantization change.

Conventions: V_phi f(x, xi) = (2pi)^(-d/2) integral f(y) conj(phi(y - x))
exp(-i<y, xi>) dy, realized on the grid with periodic window translates.
The translates are a zero-copy strided view (a circulant per axis), so the
adjoint forms the N^(2d) product once, and the STFT forms it in slabs of
x_1 indices, each transformed and scaled in place (_stft_slabs).  `stft` is
one slab over the whole range.  A norm of the STFT of a d >= 2 signal
(modspace.modulation_norm) takes one x_1 index per slab, N^(2d-1) samples,
and reduces each slab as it comes, so it forms no N^(2d) complex array.
Every centred FFT is centred by sign vectors, not rolls
(field._centered_fft).
On a phase grid dx dxi = 2pi/N, so exp(-i y eta) is a power of
w = exp(2pi i/N) and the twisted-convolution quadrature is exactly the
convolution of the finite Heisenberg group over Z_N x Z_N.  The Schroedinger
representation carries it to a matrix product: a DFT along xi and an index
shear turn each field into an N x N operator matrix, one matmul multiplies
them, and the product's wrapped diagonals and an inverse DFT give the result.
The Wigner family W^A with A = tI evaluates f1(x + t y) conj(f2(x + (t-1) y))
and transforms in y.  Every t takes the same path: the samples are shifted
by trigonometric interpolation, one FFT, a phase ramp per shift and one
inverse FFT, with the Nyquist bin split symmetrically so that lattice shifts
are exact rolls and real data stays real.
Every N x N phase factor, the shift ramp and the quantization-change
multiplier, is exp(i k beta_l) over the DFT frequencies k in FFT order and
one real beta_l per column (_phases).  Its rows k >= 0 are products of two
small tables, exp(i S q beta) and exp(i r beta) for k = S q + r with S
near sqrt(N/2), and its rows -k are their conjugates: about 2 sqrt(N/2)
exponentials per column, not N, each entry within a few ulps of its
phase.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .field import (
    Field,
    Grid,
    _centered_fft,
    _centering_signs,
    inverse_fourier_transform,
    l2_norm,
    phase_grid,
)


def _quantization(A) -> float:
    """The parameter t of the quantization matrix A = t I, checked to lie
    in [0, 1] (NaN does not)."""
    t = float(A)
    if not (0.0 <= t <= 1.0):
        raise ValueError("quantization parameter must lie in [0, 1]")
    return t


def _translates(window_values: np.ndarray) -> np.ndarray:
    """Read-only view v[j..., k...] = window[(k - j + n/2) mod n, per axis]
    (the window moved to x_j, sampled at x_k), strided over the window tiled
    three times per axis: row j starts at tile index n + n/2 - j."""
    shape = window_values.shape
    tiled = np.tile(window_values, (3,) * len(shape))
    rows = np.lib.stride_tricks.sliding_window_view(tiled, shape)
    return rows[tuple(slice(n + n // 2, n // 2, -1) for n in shape)]


def _stft_slabs(f: Field, window: Field):
    """slab(rows) -> V[rows]: the STFT of f at the x_1 indices of the slice
    `rows`, an array of shape (len(rows),) + the rest of the phase grid's
    shape.

    The product (f s) conj(window translates)[rows] is the only array of a
    slab's size: the input centring signs s ride on f, the output signs on
    the scale, and the FFT writes over the product."""
    d = f.grid.dimension
    axes = tuple(range(d, 2 * d))
    s, c = _centering_signs((1,) * d + f.grid.shape, axes)
    fs = f.values * s
    translates = _translates(np.conj(window.values))
    scale = s * (c * f.grid.weight / (2.0 * math.pi) ** (d / 2.0))

    def slab(rows: slice) -> np.ndarray:
        prod = fs * translates[rows]
        np.fft.fftn(prod, axes=axes, out=prod)
        prod *= scale
        return prod

    return slab


def stft(f: Field, window: Field) -> Field:
    """Short-time Fourier transform onto the phase grid of f's grid: one
    slab over the whole x_1 range."""
    if not f.grid.matches(window.grid):
        raise ValueError("signal and window must share a grid")
    return Field(phase_grid(f.grid), _stft_slabs(f, window)(slice(None)))


def _split_phase(F: Field):
    """(d, base) of a field on phase_grid(base), which every phase-field
    entry point needs: its DFT identities hold only when dx dxi = 2pi/N."""
    nd = F.grid.dimension
    if nd % 2 != 0:
        raise ValueError("phase fields have an even number of axes")
    d = nd // 2
    if F.grid.roles != ("x",) * d + ("xi",) * d:
        raise ValueError("expected axis roles x...x xi...xi")
    base = Grid(F.grid.axes[:d])
    if not F.grid.matches(phase_grid(base)):
        raise ValueError("a phase field needs the xi axes dual to the x axes, each "
                         "xi axis dual to the x axis it pairs with (dx dxi = 2pi/N)")
    return d, base


def stft_adjoint(F: Field, window: Field) -> Field:
    """Adjoint of the STFT: g(y) = (2pi)^(-d/2) integral integral F(x, xi)
    window(y - x) exp(i<y, xi>) dx dxi, by quadrature."""
    d, base = _split_phase(F)
    if not base.matches(window.grid):
        raise ValueError("phase field does not match the window grid")
    B = inverse_fourier_transform(F, axes=tuple(range(d, 2 * d)))
    vals = np.sum(_translates(window.values) * B.values, axis=tuple(range(d))) * base.weight
    return Field(window.grid, vals)


def stft_projection(F: Field, window: Field) -> Field:
    """P F = |window|_2^{-2} V(V* F); reproduces STFTs taken with the window."""
    nw = l2_norm(window)
    if nw == 0.0:
        raise ValueError("projection window must be nonzero")
    out = stft(stft_adjoint(F, window), window)
    return out.with_values(out.values / nw ** 2)


def twisted_convolution(F: Field, G: Field) -> Field:
    """(F #V G)(x, xi) = (2pi)^(-d/2) integral integral F(x-y, xi-eta) G(y, eta)
    exp(-i<y, xi-eta>) dy deta on a phase grid (one-dimensional base).

    With dx dxi = 2pi/N the quadrature is exactly a convolution on the finite
    Heisenberg group: in centred indices, h[a, b] = sum_{y, s} f[a - y, s]
    g[y, b - s] w^(-y s) with w = exp(2pi i/N).  Along xi its DFT is
    h^[a, q] = sum_y f^[a - y, q + y] g^[y, q], the Schroedinger matrix
    product K_H = K_F K_G with K_F[p, q] = f^[p - q, q], read back along the
    wrapped diagonals h^[a, q] = K_H[q + a, q]: one complex matmul, O(N^3)."""
    d, base = _split_phase(F)
    if d != 1:
        raise ValueError("twisted convolution is implemented for a 1-d base grid")
    if not F.grid.matches(G.grid):
        raise ValueError("grid mismatch in twisted convolution")
    n = base.axes[0].n
    s, _ = _centering_signs((1, n), (1,))
    j = np.arange(n)
    # the gathers carry the centring offsets: row p - q + n/2 shears a field
    # into its operator matrix, and row q + j + n/2 = q + a (mod n) reads
    # output row j = a + n/2 back; G's xi signs (-1)^q cancel the inverse's,
    # so only F carries them
    shear = (j[:, None] - j[None, :] + n // 2) % n
    K = np.take_along_axis(np.fft.fft(F.values, axis=1) * s, shear, axis=0)
    K = K @ np.take_along_axis(np.fft.fft(G.values, axis=1), shear, axis=0)
    diag = (j[:, None] + j[None, :] + n // 2) % n
    out = np.fft.ifft(np.take_along_axis(K, diag, axis=0), axis=1)
    out *= base.axes[0].spacing * F.grid.axes[1].spacing / math.sqrt(2.0 * math.pi)
    return Field(F.grid, out)


def _phases(n: int, beta: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """P[k, l] = exp(i k beta[l]) over the n DFT frequencies k in FFT order,
    with the row k = -n/2 set to `edge`.  The rows k = 0 .. n/2 - 1 come from
    two small tables: with k = S q + r and S a power of two near sqrt(n/2),
    exp(i S q beta) times exp(i r beta), written into P one block of S rows
    at a time, so each column takes n/(2S) + S exponentials, not n.  The
    rows -k are their conjugates.  Each entry is within a few ulps of the
    phase k beta[l] of exp."""
    h = n // 2
    out = np.empty((n,) + beta.shape, dtype=complex)
    step = 1 << (h.bit_length() // 2)
    coarse = np.exp(1j * np.multiply.outer(np.arange(0, h, step), beta))
    fine = np.exp(1j * np.multiply.outer(np.arange(step), beta))
    for q, start in enumerate(range(0, h, step)):
        block = out[start:min(start + step, h)]
        np.multiply(coarse[q], fine[:len(block)], out=block)
    out[h] = edge
    np.conjugate(out[h - 1:0:-1], out=out[h + 1:])
    return out


def _shifted(values: np.ndarray, shifts: np.ndarray, spacing: float) -> np.ndarray:
    """E[j, l] = v_l(x_j + shifts[l]) by trigonometric interpolation along
    axis 0, where v_l is the 1-d values or its column l (periodic, O(n^2 log n)):
    the spectrum times the ramp exp(i k beta_l) of _phases, beta_l =
    2 pi shifts[l] / (n spacing).  The Nyquist bin is split evenly between
    +n/2 and -n/2, so its ramp is cos(pi s / spacing): lattice shifts are
    exact and real data stays real."""
    n = values.shape[0]
    ramp = _phases(n, shifts * (2.0 * math.pi / (n * spacing)),
                   np.cos(shifts * (math.pi / spacing)))
    ramp *= np.fft.fft(values, axis=0).reshape(n, -1)
    return np.fft.ifft(ramp, axis=0)


def wigner(f1: Field, f2: Field, A=0.5) -> Field:
    """W^A_{f1,f2}(x, xi) = F_y[ f1(x + t y) conj(f2(x + (t-1) y)) ](xi),
    A = t I."""
    t = _quantization(A)
    if not f1.grid.matches(f2.grid):
        raise ValueError("grid mismatch in wigner transform")
    if f1.grid.dimension != 1:
        raise ValueError("wigner transform is implemented for a 1-d base grid")
    dx = f1.grid.axes[0].spacing
    y = f1.grid.axes[0].points
    prod = _shifted(f1.values, t * y, dx)
    prod *= np.conj(_shifted(f2.values, (t - 1.0) * y, dx))
    vals = _centered_fft(prod, (1,), inverse=False, scale=dx / math.sqrt(2.0 * math.pi))
    return Field(phase_grid(f1.grid), vals)


def quantization_change(a: Field, A1, A2) -> Field:
    """Fourier multiplier carrying the symbol for parameter A1 to the symbol
    for A2 of the same operator: hat a picks up exp(i (t1 - t2) <u, v>)."""
    t1, t2 = _quantization(A1), _quantization(A2)
    d, _ = _split_phase(a)
    if t1 == t2:
        return Field(a.grid, a.values.copy())
    # the multiplier is the product over the axis pairs (u_i, v_i) of
    # exp(i k beta_l), u_i = k du_i with k the DFT frequency in FFT order
    # (-n/2 in the Nyquist row, as on the centred grid) and beta_l =
    # (t1 - t2) du_i v_l: one table of _phases per pair.  In FFT order the
    # transforms need no centring signs (the phase that the grid's offset
    # puts on the spectrum, the inverse transform takes off); they and the
    # product are taken in place, and the multiplier is freed before the
    # inverse transform (the product is vals * mult: with fused
    # multiply-adds the operand order of a complex product can move its
    # last bit)
    axes = tuple(range(2 * d))
    dual = a.grid.with_dual_axes(axes).axes
    tables = []
    for i in range(d):
        u, v = dual[i], dual[d + i]
        beta = np.fft.fftfreq(v.n, d=1.0 / v.n) * ((t1 - t2) * u.spacing * v.spacing)
        table = _phases(u.n, beta, np.exp(-1j * (u.n // 2) * beta))
        tables.append(table.reshape([u.n if k == i else v.n if k == d + i else 1
                                     for k in axes]))
    mult = functools.reduce(np.multiply, tables)
    vals = a.values.copy()
    np.fft.fftn(vals, out=vals)
    vals *= mult
    del mult
    np.fft.ifftn(vals, out=vals)
    return Field(a.grid, vals)
