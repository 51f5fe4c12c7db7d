import importlib
import math
import tracemalloc

import numpy as np
import pytest

import orlicztf as o
from conftest import gaussian_window, noise_field, unit
from orlicztf import entropy as entropy_of
from orlicztf.entropy import family_grid


def test_standard_gaussian_closed_value(grid256):
    r = entropy_of(gaussian_window(grid256))
    assert abs(r.value - (1.0 + math.log(2 * math.pi))) < 1e-10
    assert abs(r.l2_norm_f - 1.0) < 1e-8
    assert abs(r.l2_norm_window - 1.0) < 1e-8


def test_quadratic_homogeneity(grid256):
    f = o.make_gaussian_mix(grid256, 3)
    base = entropy_of(f).value
    for c in (2.0, 0.5, 1.7 - 0.4j, 3j):
        scaled = entropy_of(o.Field(grid256, c * f.values)).value
        assert abs(scaled - abs(c) ** 2 * base) < 1e-9 * max(1.0, abs(base))


def test_phase_invariance(grid256):
    f = o.make_gaussian_mix(grid256, 4)
    a = entropy_of(f).value
    b = entropy_of(o.Field(grid256, np.exp(1j * 0.83) * f.values)).value
    assert abs(a - b) < 1e-12


def test_zero_window_rejected(grid64):
    with pytest.raises(ValueError):
        entropy_of(noise_field(grid64, 1),
                   o.Field(grid64, np.zeros(grid64.shape, complex)))


def test_explicit_default_window_matches(grid256):
    f = o.make_gaussian_mix(grid256, 5)
    assert entropy_of(f).value == entropy_of(f, gaussian_window(grid256)).value


def test_gaussian_family_dilation_symmetry():
    scan = o.gaussian_family_scan([0.25, 0.5, 1.0, 2.0, 4.0])
    by_lam = {row["lam"]: row["entropy"] for row in scan["rows"]}
    assert abs(by_lam[0.25] - by_lam[4.0]) < 1e-6
    assert abs(by_lam[0.5] - by_lam[2.0]) < 1e-6
    assert by_lam[1.0] < by_lam[2.0] < by_lam[4.0]


def test_gaussian_family_constant_fit():
    scan = o.gaussian_family_scan([0.5, 1.0, 2.0])
    assert abs(scan["constant_fit"] - 1.0) < 1e-10
    assert scan["constant_spread"] < 1e-10


def test_family_grid_widens_for_flat_gaussians():
    g = family_grid([1.0, 4.0])
    assert g.axes[0].half_extent == 12.0
    g2 = family_grid([0.0625, 1.0])
    assert g2.axes[0].half_extent == 48.0
    assert g2.axes[0].n >= 1024


def test_entropy_frees_the_stft_before_the_integrand():
    """The complex STFT is dropped once |V| is taken: on the grid of the
    widest scan member (N=726) the peak is 1.52 units of the STFT, V
    beside |V|, within a bound of 1.6 (2.08 while V lived on)."""
    g = family_grid([0.125, 8])
    f, window = o.make_gaussian(g, 0.125), o.make_gaussian(g, 1.0)
    tracemalloc.start()
    try:
        entropy_of(f, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 16 * g.shape[0] ** 2


def test_lieb_bound_gaussian_is_extremal(grid256):
    r = o.lieb_bound_check(gaussian_window(grid256))
    assert r["satisfied"]
    assert abs(r["entropy"] - r["bound"]
               - (math.log(2 * math.pi) - math.log(math.pi / 2))) < 1e-8


def test_lieb_bound_random_and_hermite(grid256):
    for n in range(4):
        assert o.lieb_bound_check(o.make_hermite(grid256, n))["satisfied"]
    for seed in range(5):
        f = o.make_random_bandlimited(grid256, seed, band=5.0)
        assert o.lieb_bound_check(f)["satisfied"]


def test_window_pair_domination(grid256):
    """Switching to another admissible window perturbs the entropy by at
    most a fixed multiplicative constant plus the signal energy."""
    w1 = gaussian_window(grid256)
    h0, h2 = o.make_hermite(grid256, 0), o.make_hermite(grid256, 2)
    w2 = unit(o.Field(grid256, h0.values + h2.values))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(25):
        fv = rng.standard_normal(grid256.shape) \
            + 1j * rng.standard_normal(grid256.shape)
        f = unit(o.Field(grid256, fv))
        e1 = entropy_of(f, w1).value
        e2 = entropy_of(f, w2).value
        worst = max(worst, e1 / (e2 + 1.0))
    assert worst < 100.0


def test_lambda_family_table_norms():
    rows = o.lambda_family_table([1.0, 4.0])
    assert [r["lam"] for r in rows] == [1.0, 4.0]
    for r in rows:
        assert abs(r["M2_norm"] - 1.0) < 1e-6
    assert rows[0]["MPhi_norm"] < rows[1]["MPhi_norm"]


def test_continuity_probe_amplitude_scaling(grid128):
    f = gaussian_window(grid128)
    direction = o.make_hermite(grid128, 2)
    r = o.continuity_probe(f, direction, [0.3, 0.1, 0.03])
    deltas = [row["delta_entropy"] for row in r["rows"]]
    norms = [row["space_norm"] for row in r["rows"]]
    assert deltas[0] > deltas[1] > deltas[2] > 0
    assert norms[0] > norms[1] > norms[2] > 0
    assert 0 < r["fitted_constant"] < 100.0


@pytest.mark.parametrize("tiny", [1e-170, 1e-300])
def test_continuity_probe_fits_over_normal_scales_only(tiny):
    """n^2 underflows at these amplitudes while n > 0; the row is kept and
    the constant is fitted over the rows whose scale is normal."""
    g = o.make_grid(32, 6.0)
    f, direction = gaussian_window(g), o.make_hermite(g, 2)
    r = o.continuity_probe(f, direction, [0.1, tiny])
    assert [row["amplitude"] for row in r["rows"]] == [0.1, tiny]
    assert r["rows"][1]["space_norm"] > 0
    assert r["fitted_constant"] == o.continuity_probe(f, direction, [0.1])["fitted_constant"]


def test_nan_sample_gives_nan_entropy(grid64):
    """A NaN sample spreads NaN over the STFT, so the entropy is NaN rather
    than the entropy of the samples left over."""
    values = gaussian_window(grid64).values.copy()
    values[5] = np.nan
    assert math.isnan(entropy_of(o.Field(grid64, values)).value)


def test_integral_term_equals_the_masked_gather():
    """-S log S times the weight, with the floor set and S = 1 at zero and
    NaN kept, equals the gather-and-scatter form bit for bit."""
    module = importlib.import_module("orlicztf.entropy")
    rng = np.random.default_rng(8)
    S = np.abs(rng.standard_normal((64, 64)) * np.exp(rng.uniform(-700.0, 5.0, (64, 64))))
    S[0, :6] = [0.0, module._FLOOR, 1e-301, 1.0, np.nan, np.inf]
    want = np.zeros_like(S)
    mask = ~(S <= module._FLOOR)
    with np.errstate(invalid="ignore"):
        want[mask] = -S[mask] * np.log(S[mask])
        want *= 0.037
        got = module._integral_term(S, 0.037)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.sum(got[1:]) == np.sum(want[1:])
