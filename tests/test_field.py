import itertools
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicztf as o
from orlicztf import field
from conftest import coordinate_stack, gaussian_window, noise_field


def test_axis_lattice_contract():
    g = o.make_grid(256, 12.0)
    ax = g.axes[0]
    dx = 2 * 12.0 / 256
    xs = ax.points if isinstance(ax.points, np.ndarray) else ax.points()
    assert abs(xs[0] - (-12.0)) < 1e-14
    assert abs(xs[1] - xs[0] - dx) < 1e-14
    assert abs(g.weight - dx) < 1e-15

    dual = ax.dual()
    xis = dual.points if isinstance(dual.points, np.ndarray) else dual.points()
    assert abs(xis[128]) < 1e-14  # zero frequency sits at n/2
    assert abs(xis[1] - xis[0] - math.pi / 12.0) < 1e-14


def test_phase_grid_weight_and_shape():
    g = o.make_grid(64, 8.0)
    pg = o.phase_grid(g)
    assert pg.shape == (64, 64)
    assert abs(pg.weight - (2 * 8.0 / 64) * (math.pi / 8.0)) < 1e-15
    assert pg.roles == ("x", "xi")


def test_fourier_transform_unitary_and_invertible(grid256):
    """The inverse transform keeps the L2 norm, and applied twice it is the
    parity f(x) -> f(-x) of the periodic grid, so it is invertible."""
    f = noise_field(grid256, 5)
    ft = o.inverse_fourier_transform(f)
    assert abs(o.l2_norm(ft) - o.l2_norm(f)) < 1e-12 * o.l2_norm(f)
    twice = o.inverse_fourier_transform(ft)
    assert np.max(np.abs(twice.values - np.roll(f.values[::-1], 1))) < 1e-12


def test_parseval_pairing(grid256):
    f, g = noise_field(grid256, 1), noise_field(grid256, 2)
    lhs = o.inner_product(f, g)
    rhs = o.inner_product(o.inverse_fourier_transform(f), o.inverse_fourier_transform(g))
    assert abs(lhs - rhs) < 1e-12 * abs(lhs)


def test_gaussian_is_fourier_eigenvector(grid256):
    f = o.inverse_fourier_transform(gaussian_window(grid256, 1.0))
    ref = gaussian_window(f.grid, 1.0)
    assert np.max(np.abs(f.values - ref.values)) < 1e-12


def test_gaussian_width_inverts_under_fourier(grid256):
    ft = o.inverse_fourier_transform(gaussian_window(grid256, 2.0))
    ref = gaussian_window(ft.grid, 0.5)
    scale = np.max(np.abs(ref.values))
    assert np.max(np.abs(ft.values - ref.values)) / scale < 1e-12


def _joint_exponent_gaussian(grid, lam, x0, xi0):
    """Oracle: one complex exp of the summed exponent over the whole grid."""
    d = grid.dimension
    mesh = grid.mesh()
    expo = np.zeros(grid.shape, dtype=complex)
    for i in range(d):
        expo = expo - 0.5 * lam * (mesh[i] - x0[i]) ** 2 + 1j * xi0[i] * mesh[i]
    return math.pi ** (-d / 4.0) * lam ** (d / 4.0) * np.exp(expo)


@pytest.mark.parametrize("grid", [o.make_grid(256, 12.0), o.make_grid(64, 8.0),
                                  o.phase_grid(o.make_grid(256, 12.0)),
                                  o.make_grid(8, 6.0, 4)],
                         ids=["d1-256", "d1-64", "d2-phase-256", "d4-8"])
@pytest.mark.parametrize("lam", [0.6, 1.4])
def test_separable_gaussian_matches_joint_exponent(grid, lam):
    """The per-axis product equals one exp of the joint exponent: bit for
    bit in 1-d, to rounding in more dimensions."""
    d = grid.dimension
    x0, xi0 = [0.7, -1.3, 2.1, -0.4][:d], [-1.1, 0.4, 1.7, -2.0][:d]
    got = o.make_gaussian(grid, lam, x0, xi0).values
    ref = _joint_exponent_gaussian(grid, lam, x0, xi0)
    if d == 1:
        assert np.array_equal(got, ref)
    else:
        assert np.max(np.abs(got - ref)) <= 1e-15


def test_gaussians_are_normalized(grid256):
    for lam in (0.5, 1.0, 3.0):
        assert abs(o.l2_norm(gaussian_window(grid256, lam)) - 1.0) < 1e-8


def test_hermite_orthonormal(grid256):
    hs = [o.make_hermite(grid256, n) for n in range(6)]
    gram = np.array([[o.inner_product(a, b) for b in hs] for a in hs])
    assert np.max(np.abs(gram - np.eye(6))) < 1e-10


def test_bandlimited_band_respected(grid256):
    f = o.make_random_bandlimited(grid256, 3, band=5.0)
    # the DFT's modes, at the angular frequencies of the dual axis
    ft = np.fft.fft(f.values)
    xis = 2.0 * math.pi * np.fft.fftfreq(f.grid.shape[0], f.grid.axes[0].spacing)
    outside = np.abs(xis) > 5.0 + 1e-9
    assert np.max(np.abs(ft[outside])) < 1e-12 * np.max(np.abs(ft))


def _bandlimited_1d_oracle(grid, seed, band):
    """Test oracle: the one-axis loop that make_random_bandlimited used for
    d = 1, for bands below the Nyquist frequency."""
    rng = np.random.default_rng(seed)
    dx = grid.axes[0].dual()
    half = dx.n // 2
    spec = np.zeros(grid.shape, dtype=complex)
    rel = 0
    order = []
    while abs(rel) * dx.spacing <= band:
        order.append(rel)
        rel = -rel + 1 if rel <= 0 else -rel
        if abs(rel) > half:
            break
    for r in order:
        xi = r * dx.spacing
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2.0)
        spec[half + r] = c * math.exp(-((xi / band) ** 2))
    return o.inverse_fourier_transform(o.Field(o.Grid((dx,)), spec)).values


@pytest.mark.parametrize("d, n, axes", [(1, 6, None), (1, 10, None), (1, 64, None),
                                        (1, 342, None), (2, 6, None), (2, 16, None),
                                        (2, 16, (1,))])
def test_fourier_transforms_match_rolled_oracle(d, n, axes):
    """The sign-vector centring gives fftshift(ifftn(ifftshift(.))) exactly
    up to rounding, for n = 0 and 2 mod 4."""
    g = o.make_grid(n, 6.0, d)
    f = noise_field(g, 5)
    ax = tuple(range(d)) if axes is None else axes
    dual = g.with_dual_axes(ax)
    s = np.prod([math.sqrt(2.0 * math.pi) / dual.axes[i].spacing for i in ax])
    ref = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(f.values, axes=ax), axes=ax), axes=ax) * s
    got = o.inverse_fourier_transform(f, axes=axes).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [32, 64, 342])
def test_bandlimited_matches_one_axis_oracle(n):
    g = o.make_grid(n, 6.0)
    nyquist = math.pi * n / 12.0
    for band in (0.3, 2.5, 0.5 * nyquist, 0.999 * nyquist):
        for seed in range(3):
            got = o.make_random_bandlimited(g, seed, band).values
            assert np.array_equal(got, _bandlimited_1d_oracle(g, seed, band))


@pytest.mark.parametrize("band", [0.0, -1.0, math.nan, math.inf])
def test_bandlimited_rejects_bad_band(grid64, band):
    with pytest.raises(ValueError):
        o.make_random_bandlimited(grid64, 1, band)


@pytest.mark.parametrize("d", [1, 2])
def test_bandlimited_above_nyquist_fills_every_mode(d):
    g = o.make_grid(16, 6.0, d)
    f = o.make_random_bandlimited(g, 1, band=20.0)
    assert np.all(np.abs(np.fft.fftn(f.values)) > 0)


def test_mix_needs_a_term(grid64):
    with pytest.raises(ValueError):
        o.make_gaussian_mix(grid64, 1, terms=0)


def test_mix_deterministic(grid128):
    a = o.make_gaussian_mix(grid128, 11)
    b = o.make_gaussian_mix(grid128, 11)
    c = o.make_gaussian_mix(grid128, 12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_mix_samples_one_function_across_resolutions():
    a = o.make_gaussian_mix(o.make_grid(128, 12.0), 7)
    b = o.make_gaussian_mix(o.make_grid(256, 12.0), 7)
    assert np.max(np.abs(b.values[::2] - a.values)) < 1e-12


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_save_load_round_trip(tmp_path, grid64, fmt):
    f = noise_field(grid64, 9)
    path = str(tmp_path / f"field.{fmt}")
    (o.save_csv if fmt == "csv" else o.save_json)(f, path)
    back = (o.load_csv if fmt == "csv" else o.load_json)(path)
    assert back.grid.matches(f.grid)
    assert np.max(np.abs(back.values - f.values)) == 0.0


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_save_load_phase_field(tmp_path, grid64, fmt):
    F = o.stft(o.make_gaussian_mix(grid64, 4), gaussian_window(grid64))
    path = str(tmp_path / f"phase.{fmt}")
    (o.save_csv if fmt == "csv" else o.save_json)(F, path)
    back = (o.load_csv if fmt == "csv" else o.load_json)(path)
    assert back.grid.matches(F.grid)
    assert back.grid.roles == F.grid.roles
    assert np.max(np.abs(back.values - F.values)) == 0.0


def test_grid_mismatch_raises(grid64, grid128):
    with pytest.raises(ValueError):
        o.inner_product(noise_field(grid64, 0), noise_field(grid128, 0))


def _save_csv_oracle(f, path):
    """Test oracle: the per-sample CSV writer, four format calls per row."""
    from orlicztf.field import _grid_header
    coords = coordinate_stack(f.grid).reshape(-1, f.grid.dimension)
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(_grid_header(f.grid) + "\n")
        for row, z in zip(coords, flat):
            cells = [format(c, ".17g") for c in row]
            cells.append(format(z.real, ".17g"))
            cells.append(format(z.imag, ".17g"))
            fh.write(",".join(cells) + "\n")


def _save_json_oracle(f, path):
    """Test oracle: json.dump of the whole document."""
    doc = {
        "grid": {
            "d": f.grid.dimension,
            "L": [ax.half_extent for ax in f.grid.axes],
            "N": [ax.n for ax in f.grid.axes],
            "roles": list(f.grid.roles),
        },
        "re": f.values.real.reshape(-1).tolist(),
        "im": f.values.imag.reshape(-1).tolist(),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _odd_samples_field():
    """NaN, +-inf, -0.0 and a subnormal in either part, among noise."""
    g = o.make_grid(64, 4.0)
    v = noise_field(g, 3).values.copy()
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072014e-310]
    for k, (a, b) in enumerate(itertools.product(odd, odd)):
        v[k] = complex(a, b)
    return o.Field(g, v)


def _edge_doubles() -> np.ndarray:
    """Zeros, +-max, powers of ten and of two with both float neighbours,
    subnormals, integers around 2^53, 10^16 and 10^17, the layouts' switch
    points 1e-5, 1e-4, 1e16 and 1e17 with neighbours, and their negatives."""
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    tiny = np.random.default_rng(4).integers(1, 2 ** 52, 256, dtype=np.uint64).view(float)
    ints = np.concatenate([2.0 ** 53 + np.arange(-64, 65), 1e16 + 2.0 * np.arange(-64, 65),
                           1e17 + 16.0 * np.arange(-64, 65)])
    v = np.concatenate([[0.0, 5e-324, 2.225073858507201e-308, 1.7976931348623157e308],
                        tens, twos, switch, tiny, ints])
    with np.errstate(over="ignore"):
        v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)])
    v = v[np.isfinite(v)]
    return np.concatenate([v, -v])


def _edge_values_field():
    """Every edge double and NaN, +-inf, in both parts, as a 1-d field."""
    v = np.concatenate([_edge_doubles(), [math.nan, math.inf, -math.inf]])
    v = v[:v.size // 2 * 2]
    return o.Field(o.make_grid(v.size, 3.0), _samples_of(v, v[::-1]))


def _samples_of(re, im):
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return out


def _golden_fields():
    g64 = o.make_grid(64, 8.0)
    yield "d1-noise-64", noise_field(g64, 9)
    yield "d2-phase-64", o.stft(o.make_gaussian_mix(g64, 4), gaussian_window(g64))
    g50 = o.make_grid(50, 5.0)
    yield "d2-phase-50", o.stft(o.make_gaussian_mix(g50, 2), gaussian_window(g50))
    # 4900 rows: two full chunks and a partial one
    g70 = o.make_grid(70, 6.0)
    yield "partial-chunk", o.stft(o.make_gaussian_mix(g70, 7), gaussian_window(g70))
    yield "non-finite", _odd_samples_field()
    yield "edge-values", _edge_values_field()
    # the field of the benchmark's --out requests: mostly FFT noise near 1e-29
    g = o.make_grid()
    yield "d2-stft-256", o.stft(o.make_gaussian_mix(g, 3), gaussian_window(g))
    g8 = o.make_grid(8, 6.0, 2)
    yield "d4-phase-8", o.stft(o.make_gaussian_mix(g8, 5), gaussian_window(g8))


@pytest.mark.parametrize("name, f", [pytest.param(name, f, id=name)
                                     for name, f in _golden_fields()])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_match_per_sample_oracle_bytes(tmp_path, name, f, fmt):
    save, oracle = (o.save_csv, _save_csv_oracle) if fmt == "csv" \
        else (o.save_json, _save_json_oracle)
    got, ref = tmp_path / f"got.{fmt}", tmp_path / f"ref.{fmt}"
    save(f, str(got))
    oracle(f, str(ref))
    assert got.read_bytes() == ref.read_bytes()
    if name == "d2-phase-64" and fmt == "csv":
        assert got.read_text().splitlines()[0].endswith(" roles=x,xi")
    if name == "partial-chunk":
        assert f.values.size > 2 * field._CHUNK and f.values.size % field._CHUNK
    if name == "d4-phase-8":
        assert f.grid.roles == ("x", "x", "xi", "xi")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_parts_round_trip_bit_for_bit(tmp_path, fmt):
    """Each part is read back as written, whatever the other part holds:
    1 + inf*j stays 1 + inf*j, not nan + inf*j."""
    f = _odd_samples_field()
    v = f.values.copy()
    v[-4:] = [complex(1.0, math.inf), complex(2.0, math.nan),
              complex(math.inf, 1.0), complex(math.nan, -2.0)]
    f = o.Field(f.grid, v)
    path = str(tmp_path / f"odd.{fmt}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        (o.save_csv if fmt == "csv" else o.save_json)(f, path)
        back = (o.load_csv if fmt == "csv" else o.load_json)(path)
    assert np.array_equal(_bits(back.values.real), _bits(f.values.real))
    assert np.array_equal(_bits(back.values.imag), _bits(f.values.imag))


# -- the decimal kernel against Python's own formatting -------------------------


def _kernel_text(x, shortest):
    cells = field._cells(np.asarray(x, dtype=float), shortest, field._tail(b"\n"))
    return cells.tobytes().translate(None, b"\0").decode().split("\n")[:-1]


def _python_text(x, shortest):
    """Test oracle: format(v, ".17g"), or json.dumps(v) (repr for finite v)
    through the C encoder."""
    x = np.asarray(x, dtype=float).tolist()
    return json.dumps(x)[1:-1].split(", ") if shortest else [format(v, ".17g") for v in x]


def _mismatches(x, shortest):
    return [(v, a, b) for v, a, b in zip(np.asarray(x).tolist(), _kernel_text(x, shortest),
                                         _python_text(x, shortest)) if a != b]


@pytest.mark.parametrize("shortest", [False, True], ids=["17g", "repr"])
def test_kernel_matches_python_on_edge_doubles(shortest):
    x = _edge_doubles()
    assert len(_kernel_text(x, shortest)) == x.size
    assert _mismatches(x, shortest) == []


@pytest.mark.parametrize("shortest", [False, True], ids=["17g", "repr"])
def test_kernel_matches_python_on_random_bits_with_few_fallbacks(monkeypatch, shortest):
    """2e5 seeded random bit patterns (NaNs, infinities and subnormals among
    them) give Python's text, and fewer than 1% of them reach the per-sample
    fallback, so the kernel is not Python formatting in disguise."""
    x = np.random.default_rng(20261020).integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(float)
    calls = []
    real_format, real_dumps = format, json.dumps

    def counted_format(v, spec):
        calls.append(v)
        return real_format(v, spec)

    def counted_dumps(v):
        calls.append(v)
        return real_dumps(v)

    monkeypatch.setattr(field, "format", counted_format, raising=False)
    monkeypatch.setattr(field, "json", types.SimpleNamespace(dumps=counted_dumps))
    got = _kernel_text(x, shortest)
    monkeypatch.undo()
    assert got == _python_text(x, shortest)
    assert 0 < len(calls) < 0.01 * x.size
    assert np.count_nonzero(~np.isfinite(x)) <= len(calls)


@settings(max_examples=300, deadline=None)
@given(st.floats(), st.floats())
def test_kernel_matches_python_on_any_float(a, b):
    x = np.array([a, b])
    assert _kernel_text(x, False) == _python_text(x, False)
    assert _kernel_text(x, True) == _python_text(x, True)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_writers_peak_memory_stays_under_2_mib(tmp_path, fmt):
    """The writers build one chunk at a time: on the benchmark's N=256 STFT
    the traced peak stays under 2 MiB, whatever the field's size."""
    import tracemalloc
    g = o.make_grid()
    f = o.stft(o.make_gaussian_mix(g, 3), gaussian_window(g))
    save = o.save_csv if fmt == "csv" else o.save_json
    save(f, str(tmp_path / f"warm.{fmt}"))
    tracemalloc.start()
    try:
        save(f, str(tmp_path / f"f.{fmt}"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2 ** 20
