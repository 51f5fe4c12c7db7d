import math
import tracemalloc

import numpy as np
import pytest

import orlicztf as o
from conftest import (direct_quantization_change, direct_shifted, gaussian_window,
                      noise_field, upsample2)
from orlicztf.field import Axis
from orlicztf.tfa import _phases, _quantization, _shifted


def test_moyal_isometry(grid64):
    phi = gaussian_window(grid64)
    for seed in range(5):
        f = noise_field(grid64, seed)
        V = o.stft(f, phi)
        ref = o.l2_norm(f) * o.l2_norm(phi)
        assert abs(o.l2_norm(V) - ref) < 1e-12 * ref


def test_adjoint_inverts(grid64):
    phi = gaussian_window(grid64)
    f = noise_field(grid64, 7)
    back = o.stft_adjoint(o.stft(f, phi), phi)
    rec = o.Field(grid64, back.values / o.l2_norm(phi) ** 2)
    assert np.max(np.abs(rec.values - f.values)) < 1e-12


def test_adjoint_rejects_a_xi_axis_not_dual_to_x(grid64):
    phi = gaussian_window(grid64)
    V = o.stft(o.make_gaussian_mix(grid64, 7), phi)
    x, xi = V.grid.axes
    wide = o.Field(o.Grid((x, Axis(xi.n, 2.0 * xi.half_extent)), V.grid.roles), V.values)
    for op in (o.stft_adjoint, o.stft_projection):
        with pytest.raises(ValueError, match="xi axes dual to the x axes"):
            op(wide, phi)


def test_projection_idempotent_and_reproducing(grid64):
    phi = gaussian_window(grid64)
    f = noise_field(grid64, 8)
    V = o.stft(f, phi)
    P = o.stft_projection(V, phi)
    assert np.max(np.abs(P.values - V.values)) < 1e-12
    PP = o.stft_projection(P, phi)
    assert np.max(np.abs(PP.values - P.values)) < 1e-12


def test_twisted_reproducing_and_asymmetry(grid64):
    phi = gaussian_window(grid64)
    f = o.make_gaussian_mix(grid64, 5)
    V = o.stft(f, phi)
    Vpp = o.stft(phi, phi)
    nrm = o.l2_norm(phi) ** 2
    good = o.twisted_convolution(Vpp, V)
    err = np.linalg.norm(good.values / nrm - V.values) / np.linalg.norm(V.values)
    assert err < 1e-12
    bad = o.twisted_convolution(V, Vpp)
    err_bad = np.linalg.norm(bad.values / nrm - V.values) / np.linalg.norm(V.values)
    assert err_bad > 0.1  # the product is genuinely noncommutative


def _twisted_quadrature_oracle(F, G):
    """Test oracle: the direct quadrature, one gathered N x N matmul per
    xi - eta slice s, with the phase exp(-i y (xi - eta)) per slice."""
    n = F.grid.axes[0].n
    x = F.grid.axes[0].points
    dxi = F.grid.axes[1].spacing
    j = np.arange(n)
    idx = (j[:, None] - j[None, :] + n // 2) % n
    out = np.zeros((n, n), dtype=complex)
    for s in range(n):
        A = F.values[idx, s]
        ph = np.exp(-1j * x * dxi * (s - n // 2))
        out += A @ (G.values[:, (j - s + n // 2) % n] * ph[:, None])
    return out * F.grid.axes[0].spacing * dxi / math.sqrt(2.0 * math.pi)


def _balanced_grid(n):
    """A grid with dx = dxi, so both phase axes resolve the test signals."""
    return o.make_grid(n, math.sqrt(math.pi * n / 2.0))


@pytest.mark.parametrize("n", [10, 16, 64, 128])
@pytest.mark.parametrize("inputs", ["noise", "stft"])
def test_twisted_matches_quadrature_oracle(n, inputs):
    """n = 10 is 2 mod 4, where the centring constant (-1)^(n/2) is -1."""
    g = _balanced_grid(n)
    if inputs == "noise":
        F, G = noise_field(o.phase_grid(g), 1), noise_field(o.phase_grid(g), 2)
    else:
        phi = gaussian_window(g)
        F = o.stft(o.make_gaussian_mix(g, 3), phi)
        G = o.stft(o.make_gaussian_mix(g, 4), phi)
    for A, B in ((F, G), (G, F)):
        ref = _twisted_quadrature_oracle(A, B)
        got = o.twisted_convolution(A, B).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_twisted_is_associative():
    pg = o.phase_grid(_balanced_grid(64))
    F, G, H = (noise_field(pg, seed) for seed in (4, 5, 6))
    tw = o.twisted_convolution
    left = tw(tw(F, G), H).values
    right = tw(F, tw(G, H)).values
    assert np.max(np.abs(left - right)) <= 1e-12 * np.max(np.abs(right))


def test_stft_covariance_magnitude_shift(grid64):
    phi = gaussian_window(grid64)
    f = o.make_gaussian_mix(grid64, 5)
    V = o.stft(f, phi)
    k = 9
    Vr = o.stft(o.Field(grid64, np.roll(f.values, k)), phi)
    assert np.max(np.abs(np.abs(Vr.values)
                         - np.roll(np.abs(V.values), k, axis=0))) < 1e-12


def test_wigner_real_for_weyl_pairing(grid256):
    f = o.make_gaussian_mix(grid256, 3)
    W = o.wigner(f, f, 0.5)
    assert np.max(np.abs(W.values.imag)) < 1e-10 * np.max(np.abs(W.values.real))


def test_wigner_norm_product(grid64):
    f, g = o.make_gaussian_mix(grid64, 1), o.make_gaussian_mix(grid64, 2)
    W = o.wigner(f, g, 0.5)
    got = o.l2_norm(W)
    ref = o.l2_norm(f) * o.l2_norm(g)
    assert abs(got - ref) < 1e-8 * ref


def test_quantization_change_round_trip(grid128):
    a = o.make_gaussian_mix(o.phase_grid(grid128), 9)
    for t1, t2 in ((0.0, 0.5), (0.5, 1.0), (0.0, 1.0), (0.3, 0.7)):
        b = o.quantization_change(a, t1, t2)
        back = o.quantization_change(b, t2, t1)
        assert np.max(np.abs(back.values - a.values)) < 1e-12
        assert abs(o.l2_norm(b) - o.l2_norm(a)) < 1e-10 * o.l2_norm(a)


def test_quantization_change_identity(grid128):
    a = o.make_gaussian_mix(o.phase_grid(grid128), 10)
    b = o.quantization_change(a, 0.5, 0.5)
    assert np.max(np.abs(b.values - a.values)) < 1e-14


def test_quantization_parameter_range():
    for t in (0.0, 0.3, 1.0):
        assert _quantization(t) == t
    for t in (-0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            _quantization(t)


def test_shifted_lattice_shifts_are_rolls(grid64):
    f = noise_field(grid64, 3)
    dx = grid64.axes[0].spacing
    steps = np.array([0, 1, -1, 5, -17, 32, 63])
    E = _shifted(f.values, steps * dx, dx)
    for l, k in enumerate(steps):
        ref = np.roll(f.values, -k)
        assert np.max(np.abs(E[:, l] - ref)) < 1e-12 * np.max(np.abs(ref))
    cols = noise_field(o.Grid((grid64.axes[0], grid64.axes[0])), 4).values[:, :3]
    E = _shifted(cols, steps[:3] * dx, dx)
    for l, k in enumerate(steps[:3]):
        ref = np.roll(cols[:, l], -k)
        assert np.max(np.abs(E[:, l] - ref)) < 1e-12 * np.max(np.abs(ref))


def test_shifted_half_lattice_keeps_real_data_real(grid64):
    v = noise_field(grid64, 5).values.real
    dx = grid64.axes[0].spacing
    E = _shifted(v, (np.arange(-8, 8) + 0.5) * dx, dx)
    assert np.max(np.abs(E.imag)) < 1e-14 * np.max(np.abs(E))
    # and the half-step samples are the trigonometric interpolant
    up = upsample2(v)
    for l, k in enumerate(range(-8, 8)):
        ref = np.roll(up, -(2 * k + 1))[::2]
        assert np.max(np.abs(E[:, l] - ref)) < 1e-12 * np.max(np.abs(ref))


def lattice_wigner(f1, f2, t):
    """Test oracle: the index-gather (t = 0, 1) and half-grid upsampling
    (t = 1/2) evaluation of the Wigner distribution."""
    n = f1.grid.axes[0].n
    j = np.arange(n)[:, None]
    l = np.arange(n)[None, :]
    v1, v2 = f1.values, f2.values
    if t == 0.0:
        prod = v1[:, None] * np.conj(v2[(j - (l - n // 2)) % n])
    elif t == 1.0:
        prod = v1[(j + l - n // 2) % n] * np.conj(v2[:, None])
    else:
        u1, u2 = upsample2(v1), upsample2(v2)
        prod = (u1[(2 * j + l - n // 2) % (2 * n)]
                * np.conj(u2[(2 * j - l + n // 2) % (2 * n)]))
    vals = np.fft.fftshift(np.fft.fft(np.fft.ifftshift(prod, axes=1), axis=1),
                           axes=1)
    return vals * f1.grid.axes[0].spacing / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("n, half_extent", [(64, 8.0), (342, 16.0)])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_wigner_matches_lattice_oracle(n, half_extent, t):
    g = o.make_grid(n, half_extent)
    f1, f2 = o.make_gaussian_mix(g, 11), noise_field(g, 12)
    ref = lattice_wigner(f1, f2, t)
    got = o.wigner(f1, f2, t).values
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_stft_of_kernel_matches_shifted_stft_of_symbol():
    """The 4-d spectrogram of an operator kernel coincides, up to index
    shear and one factor of sqrt(2 pi), with the spectrogram of its symbol
    taken against a chirped window."""
    n = 32
    g = o.make_grid(n, 8.0)
    pg = o.phase_grid(g)
    a = o.make_gaussian_mix(pg, 17)
    K = o.kernel(a, 0.0)
    kf = o.Field(o.Grid((g.axes[0], g.axes[0])), K.matrix)
    w2 = o.make_gaussian(kf.grid, 1.0)
    base = o.make_gaussian(pg, 1.0)
    X, XI = [np.ascontiguousarray(np.broadcast_to(v, pg.shape))
             for v in pg.mesh()]
    psi = o.Field(pg, np.exp(-1j * X * XI) * base.values)

    A = np.abs(o.stft(kf, w2).values)
    B = np.abs(o.stft(a, psi).values) / math.sqrt(2 * math.pi)
    J, Kk, M, N2 = np.meshgrid(*[np.arange(n)] * 4, indexing="ij")
    Bm = B[J, (n - N2) % n, (M + N2 - n // 2) % n, (Kk - J + n // 2) % n]
    assert np.linalg.norm(A - Bm) / np.linalg.norm(Bm) < 1e-6


def rolled_centered_fft(values, axes, inverse=False):
    """Test oracle: the centred DFT as ifftshift, FFT, fftshift."""
    fft = np.fft.ifftn if inverse else np.fft.fftn
    return np.fft.fftshift(fft(np.fft.ifftshift(values, axes=axes), axes=axes), axes=axes)


def gathered_translates(window_values):
    """Test oracle: w[j..., k...] = window[(k - j + n/2) mod n, per axis],
    built with broadcast index arrays and one fancy-index copy."""
    shape = window_values.shape
    d = len(shape)
    idx = []
    for i, n in enumerate(shape):
        j = np.arange(n).reshape([n if a == i else 1 for a in range(2 * d)])
        k = np.arange(n).reshape([n if a == d + i else 1 for a in range(2 * d)])
        idx.append((k - j + n // 2) % n)
    return window_values[tuple(idx)]


def gathered_stft(f, window):
    d = f.grid.dimension
    prod = f.values.reshape((1,) * d + f.grid.shape) * np.conj(gathered_translates(window.values))
    vals = rolled_centered_fft(prod, tuple(range(d, 2 * d)))
    return vals * f.grid.weight / (2.0 * math.pi) ** (d / 2.0)


def gathered_stft_adjoint(F, window):
    d = window.grid.dimension
    axes = tuple(range(d, 2 * d))
    scale = np.prod([math.sqrt(2.0 * math.pi) / ax.spacing for ax in window.grid.axes])
    B = rolled_centered_fft(F.values, axes, inverse=True) * scale
    return np.sum(gathered_translates(window.values) * B, axis=tuple(range(d))) * window.grid.weight


@pytest.mark.parametrize("d, n", [(1, 6), (1, 10), (1, 64), (1, 342), (2, 6), (2, 16)])
def test_stft_and_adjoint_match_gather_oracle(d, n):
    """The strided circulant view and the sign-vector centring give the
    index-gather and roll formulas, for n = 0 and 2 mod 4; the window is off
    centre and modulated, so a reversed circulant or a wrong sign shows."""
    g = o.make_grid(n, 6.0, d)
    window = o.make_gaussian(g, 1.3, x0=[0.7, -1.9][:d], xi0=[-1.1, 0.4][:d])
    f = noise_field(g, 3)
    ref = gathered_stft(f, window)
    got = o.stft(f, window).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    F = noise_field(o.phase_grid(g), 4)
    ref = gathered_stft_adjoint(F, window)
    got = o.stft_adjoint(F, window).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_d2_stft_holds_one_array_of_its_size():
    """The product is transformed and scaled in place: a d=2 STFT at N=24
    peaks at one complex 24^4 array, plus small change."""
    g = o.make_grid(24, 6.0, 2)
    f, window = noise_field(g, 3), gaussian_window(g)
    tracemalloc.start()
    try:
        V = o.stft(f, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert V.values.nbytes == 16 * 24 ** 4
    assert peak <= 1.1 * V.values.nbytes


def test_quantization_change_works_in_place():
    """The multiplier is formed, and the transforms and products taken, in
    place, and the multiplier is dropped before the inverse transform: on
    a 342^2 symbol the peak is 2.00 symbols (bound 2.8; 4.5 when each step
    made a new array)."""
    a = o.make_gaussian_mix(o.phase_grid(o.make_grid(342, 12.0)), 9)
    tracemalloc.start()
    try:
        o.quantization_change(a, 0.5, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * a.values.nbytes


@pytest.mark.parametrize("n", [2, 6, 64, 342, 1024])
def test_phase_tables_match_exp(n):
    """_phases against np.exp(i k beta) on seeded beta in [-pi, pi], within
    4 ulps of the phase k beta; its rows -k are exact conjugates of the rows
    k, and its row -n/2 is the edge row it was given."""
    rng = np.random.default_rng(n)
    beta = np.concatenate([rng.uniform(-math.pi, math.pi, 300), [0.0, math.pi, -math.pi, 1e-300]])
    edge = rng.standard_normal(beta.size) + 0j
    got = _phases(n, beta, edge)
    k = np.fft.fftfreq(n, d=1.0 / n)
    phase = np.multiply.outer(k, beta)
    err = np.abs(got - np.exp(1j * phase))
    err[n // 2] = 0.0
    assert np.all(err <= 4 * np.finfo(float).eps * (1.0 + np.abs(phase)))
    assert np.array_equal(got[n // 2], edge)
    assert np.array_equal(got[n // 2 + 1:], np.conj(got[n // 2 - 1:0:-1]))


_ORACLE_N = [64, 128, 256, 342, 512]
_ORACLE_T = [0.0, 0.3, 0.5, 0.7, 1.0]


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("n", _ORACLE_N)
@pytest.mark.parametrize("t", _ORACLE_T)
def test_wigner_matches_direct_exponential_oracle(n, t):
    g = o.make_grid(n, 12.0)
    f1, f2 = o.make_gaussian_mix(g, 11), o.make_gaussian_mix(g, 12)
    dx, y = g.axes[0].spacing, g.axes[0].points
    prod = direct_shifted(f1.values, t * y, dx)
    prod *= np.conj(direct_shifted(f2.values, (t - 1.0) * y, dx))
    ref = rolled_centered_fft(prod, (1,)) * dx / math.sqrt(2.0 * math.pi)
    assert _rel(o.wigner(f1, f2, t).values, ref) <= 1e-14


@pytest.mark.parametrize("n", _ORACLE_N)
@pytest.mark.parametrize("t", _ORACLE_T)
def test_quantization_change_matches_direct_exponential_oracle(n, t):
    a = o.make_gaussian_mix(o.phase_grid(o.make_grid(n, 12.0)), 9)
    for t2 in (0.0, 1.0):
        if t != t2:
            ref = direct_quantization_change(a, t, t2)
            assert _rel(o.quantization_change(a, t, t2).values, ref) <= 1e-14


@pytest.mark.parametrize("n", [8, 16, 24, 32])
@pytest.mark.parametrize("t", [0.3, 0.5, 0.7, 1.0])
def test_d2_quantization_change_matches_direct_exponential_oracle(n, t):
    """d = 2 (a 64^4 symbol would take 256 MiB, so N stops at 32): the
    multiplier is a product of one table per axis pair."""
    g = o.make_grid(n, 4.0, 2)
    a = o.Field(o.phase_grid(g), o.make_gaussian_mix(o.phase_grid(g), 4).values
                + 0.1 * noise_field(o.phase_grid(g), 5).values)
    ref = direct_quantization_change(a, t, 0.0)
    assert _rel(o.quantization_change(a, t, 0.0).values, ref) <= 1e-14
