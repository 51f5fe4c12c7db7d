import math
import tracemalloc
import warnings

import numpy as np
import pytest

import orlicztf as o
from conftest import gaussian_window, noise_field, unit
from orlicztf import ModulationSpaceSpec, YoungFunction, check_delta2, tfa
from orlicztf.field import Axis
from orlicztf.modspace import inverse_product_check, lower_growth_check, phase_field_norm

P2 = YoungFunction.power(2)
ENT = YoungFunction.entropy()
M2 = ModulationSpaceSpec(P2, P2)
MPHI = ModulationSpaceSpec(ENT, ENT)


def test_m2_norm_of_unit_gaussian(grid256):
    assert abs(o.modulation_norm(gaussian_window(grid256), M2) - 1.0) < 1e-6


def test_m2_equals_l2(grid256):
    f = noise_field(grid256, 1)
    assert abs(o.modulation_norm(f, M2) - o.l2_norm(f)) < 1e-8 * o.l2_norm(f)


def _moyal_cases():
    g1, g2 = o.make_grid(64, 8.0), o.phase_grid(o.make_grid(32, 6.0))
    for grid in (g1, g2):
        d = grid.dimension
        windows = {"gaussian": o.make_gaussian(grid, 1.3, x0=[0.4, -0.9][:d]),
                   "mix": o.make_gaussian_mix(grid, 17)}
        for name, window in windows.items():
            for label, phi in (("c1", P2), ("c1/4", P2.conjugate())):
                yield pytest.param(grid, window, phi, id=f"d{d}-{name}-{label}")


@pytest.mark.parametrize("grid, window, phi", list(_moyal_cases()))
@pytest.mark.parametrize("flavor", ["M", "W"])
def test_joint_power2_norm_is_moyal_closed_form(monkeypatch, grid, window, phi, flavor):
    """phi == psi == c t^2 gives sqrt(c) |f|_2 |window|_2 without an STFT,
    equal to the norm of the STFT itself."""
    spec = ModulationSpaceSpec(phi, phi, flavor)
    f = o.make_gaussian_mix(grid, 5)
    ref = phase_field_norm(o.stft(f, window), spec)
    calls = []
    monkeypatch.setattr(tfa, "_stft_slabs", lambda *a: calls.append(a))
    got = o.modulation_norm(f, spec, window=window)
    assert calls == []
    assert abs(got - ref) <= 1e-14 * ref


M3_15 = ModulationSpaceSpec(YoungFunction.power(3), YoungFunction.power(1.5))
M2_3 = ModulationSpaceSpec(P2, YoungFunction.power(3))


def test_moyal_closed_form_keeps_grid_check_and_non_finite_inputs(grid64):
    with pytest.raises(ValueError, match="share a grid"):
        o.modulation_norm(o.make_gaussian_mix(grid64, 1), M2,
                          window=gaussian_window(o.make_grid(64, 9.0)))
    for bad in (math.nan, math.inf):
        v = o.make_gaussian_mix(grid64, 1).values.copy()
        v[5] = bad
        f = o.Field(grid64, v)
        with np.errstate(invalid="ignore"):
            ref = phase_field_norm(o.stft(f, gaussian_window(grid64)), M2)
        got = o.modulation_norm(f, M2)
        # the STFT path reads NaN for an inf sample (the FFT meets inf * 0);
        # the closed form reads inf, as the Luxemburg layer does
        assert not math.isfinite(ref) and not math.isfinite(got)
        assert math.isnan(got) == math.isnan(bad)
        # every other space follows the same rule, without a warning
        for spec in (M3_15, MPHI, M2_3):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = o.modulation_norm(f, spec)
            assert not math.isfinite(got)
            assert math.isnan(got) == math.isnan(bad)


@pytest.mark.parametrize("spec", [M2, M3_15, MPHI, M2_3], ids=["M2", "M3,1.5", "entropy", "M2,3"])
def test_non_finite_modulation_norms_nan_first(grid64, spec):
    """A NaN sample gives NaN even beside an inf one; a non-finite window
    counts as the signal does; the grid check comes first."""
    g = o.make_gaussian_mix(grid64, 1)
    v = g.values.copy()
    v[3], v[9] = math.inf, complex(1.0, math.nan)
    w = gaussian_window(grid64).values.copy()
    w[7] = -math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(o.modulation_norm(o.Field(grid64, v), spec))
        assert o.modulation_norm(g, spec, window=o.Field(grid64, w)) == math.inf
    with pytest.raises(ValueError, match="share a grid"):
        o.modulation_norm(o.Field(grid64, v), spec,
                          window=gaussian_window(o.make_grid(64, 9.0)))


def _count_slabs(monkeypatch, calls, key):
    """Record key(f, rows) for each STFT slab taken (tfa._stft_slabs)."""
    slabs = tfa._stft_slabs

    def counted(f, window):
        slab = slabs(f, window)

        def one(rows):
            calls.append(key(f, rows))
            return slab(rows)

        return one

    monkeypatch.setattr(tfa, "_stft_slabs", counted)


@pytest.mark.parametrize("spec", [M3_15, MPHI, M2_3], ids=["M3,1.5", "entropy", "M2,3"])
def test_other_norms_take_the_stft_path(monkeypatch, grid64, spec):
    """A d=1 STFT is one slab over the whole x range."""
    calls = []
    _count_slabs(monkeypatch, calls, lambda f, rows: (f.grid.shape, rows))
    o.modulation_norm(o.make_gaussian_mix(grid64, 2), spec)
    assert calls == [((64,), slice(0, 64))]


P1, P15, P3 = YoungFunction.power(1), YoungFunction.power(1.5), YoungFunction.power(3)
D2_GRIDS = [pytest.param(o.Grid((Axis(16, 5.0), Axis(24, 6.0))), id="16x24"),
            pytest.param(o.make_grid(24, 6.0, 2), id="24x24")]
D2_SPECS = [pytest.param(ModulationSpaceSpec(phi, psi, flavor), id=f"{flavor}-{label}")
            for label, phi, psi in (("power1.5/3", P15, P3), ("entropy/power2", ENT, P2),
                                    ("power2/entropy", P2, ENT))
            for flavor in ("M", "W")]
D2_SPECS += [pytest.param(ModulationSpaceSpec(P1, P1), id="joint-power1"),
             pytest.param(MPHI, id="joint-entropy")]


@pytest.mark.parametrize("grid", D2_GRIDS)
@pytest.mark.parametrize("spec", D2_SPECS)
def test_d2_streamed_norm_is_the_norm_of_the_formed_stft(monkeypatch, grid, spec):
    """The norm fed one x_1 slab at a time equals the mixed norm of the
    formed STFT, and takes one slab per x_1 index."""
    f = o.make_gaussian_mix(grid, 8)
    window = gaussian_window(grid)
    want = o.mixed_norm(o.stft(f, window), spec.stages_for(2))
    calls = []
    _count_slabs(monkeypatch, calls, lambda f, rows: rows)
    got = o.modulation_norm(f, spec)
    assert abs(got - want) <= 1e-13 * want
    assert calls == [slice(i, i + 1) for i in range(grid.shape[0])]


@pytest.mark.parametrize("scale", [1e200, 1e-200])
@pytest.mark.parametrize("spec", D2_SPECS)
def test_d2_streamed_norm_scales_out_of_range(monkeypatch, spec, scale):
    """Power sums out of the normal range are taken again over the row max:
    a power first stage then runs the slabs a second time."""
    grid = o.Grid((Axis(16, 5.0), Axis(24, 6.0)))
    f = o.make_gaussian_mix(grid, 8)
    want = scale * o.modulation_norm(f, spec)
    calls = []
    _count_slabs(monkeypatch, calls, lambda f, rows: rows)
    got = o.modulation_norm(o.Field(grid, scale * f.values), spec)
    assert abs(got - want) <= 1e-13 * want
    # the W flavor's first stage is power 3 over the xi axes
    if spec.psi == P3 and spec.flavor == "W":
        assert len(calls) == 2 * grid.shape[0]


@pytest.mark.parametrize("spec", D2_SPECS)
def test_d2_non_finite_modulation_norms_nan_first(spec):
    grid = o.make_grid(16, 5.0, 2)
    v = o.make_gaussian_mix(grid, 1).values.copy()
    v[3, 5] = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert o.modulation_norm(o.Field(grid, v), spec) == math.inf
        v[9, 2] = complex(1.0, math.nan)
        assert math.isnan(o.modulation_norm(o.Field(grid, v), spec))


def test_m11_gaussian_closed_value(grid256):
    m11 = ModulationSpaceSpec(YoungFunction.power(1), YoungFunction.power(1))
    got = o.modulation_norm(gaussian_window(grid256), m11)
    ref = math.sqrt(8 * math.pi)
    assert abs(got - ref) < 1e-10 * ref


def test_norm_homogeneous(grid128):
    f = noise_field(grid128, 2)
    a = o.modulation_norm(f, MPHI)
    b = o.modulation_norm(o.Field(grid128, 2.5 * f.values), MPHI)
    assert abs(b - 2.5 * a) < 1e-9 * b


def test_window_choice_changes_constant_not_finiteness(grid256):
    """Two admissible windows give equivalent norms: the ratio stays within
    a fixed constant over many random signals."""
    w1 = gaussian_window(grid256)
    h0, h2 = o.make_hermite(grid256, 0), o.make_hermite(grid256, 2)
    w2 = unit(o.Field(grid256, h0.values + 0.5 * h2.values))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        fv = rng.standard_normal(grid256.shape) \
            + 1j * rng.standard_normal(grid256.shape)
        f = o.Field(grid256, fv)
        a = o.modulation_norm(f, MPHI, window=w1)
        b = o.modulation_norm(f, MPHI, window=w2)
        worst = max(worst, a / b, b / a)
    assert worst < 10.0


def test_duality_pairing_bounded_and_achieved(grid128):
    """|<f, g>| <= |f|_{M^2} for unit g, with equality at g = f / |f|."""
    f = o.make_gaussian_mix(grid128, 11)
    nf = o.modulation_norm(f, M2)
    rng = np.random.default_rng(1)
    best = 0.0
    for _ in range(100):
        g = unit(o.Field(grid128, rng.standard_normal(grid128.shape)
                         + 1j * rng.standard_normal(grid128.shape)))
        best = max(best, abs(o.inner_product(f, g)))
    assert best <= nf * (1 + 1e-8)
    extremal = abs(o.inner_product(f, unit(f)))
    assert extremal >= nf * (1 - 1e-8)


def test_flavor_changes_value(grid64):
    f = o.make_gaussian_mix(grid64, 6)
    spec_m = ModulationSpaceSpec(YoungFunction.power(1), YoungFunction.power(3))
    spec_w = ModulationSpaceSpec(YoungFunction.power(1), YoungFunction.power(3),
                                 flavor="W")
    a, b = o.modulation_norm(f, spec_m), o.modulation_norm(f, spec_w)
    assert a > 0 and b > 0 and abs(a - b) > 1e-8 * a


def test_factorization_gaussian_power2_is_tight():
    g = o.make_grid(32, 6.0)
    ga = gaussian_window(g)
    r = o.stft_norm_factorization_check(ga, ga, P2, P2)
    assert abs(r["ratio"] - 1.0) < 1e-9


def test_factorization_power1_stable_across_resolution():
    ratios = {}
    for n in (24, 32):
        g = o.make_grid(n, 6.0)
        ga = gaussian_window(g)
        gb = o.make_gaussian_mix(g, 4)
        p1 = YoungFunction.power(1)
        ratios[n] = o.stft_norm_factorization_check(ga, gb, p1, p1)["ratio"]
    assert 1.0 < ratios[24] < 1.3 and 1.0 < ratios[32] < 1.3
    assert abs(ratios[24] - ratios[32]) < 0.01


def test_factorization_resolution_guard():
    g = o.make_grid(64, 8.0)
    ga = gaussian_window(g)
    with pytest.raises(ValueError):
        o.stft_norm_factorization_check(ga, ga, P2, P2)


def test_embedding_directions():
    """The entropy space sits strictly between the sub-quadratic power
    spaces and the quadratic one."""
    p15, ent, p2 = YoungFunction.power(1.5), ENT, P2
    assert o.check_embedding(p15, p15, ent, ent, 0.5)["embeds"]
    assert o.check_embedding(ent, ent, p2, p2, 0.5)["embeds"]
    assert not o.check_embedding(ent, ent, p15, p15, 0.5)["embeds"]
    assert not o.check_embedding(p2, p2, ent, ent, 0.5)["embeds"]


def test_continuity_hypotheses_worked_example():
    r = o.check_pseudo_hypotheses(3.0, 1.5, ENT, ENT, ENT, ENT)
    assert r["passes"]
    assert all(c["passed"] for c in r["conditions"] if c["applicable"])


def test_continuity_hypotheses_rejects_exponent_gap():
    q2 = YoungFunction.power(2)
    r = o.check_pseudo_hypotheses(2.0, 3.0, q2, q2, q2, q2)
    assert not r["passes"]
    gate = [c for c in r["conditions"] if c["name"] == "q_le_p"][0]
    assert not gate["passed"]


def test_lower_growth_check_power():
    r = lower_growth_check(YoungFunction.power(3), 3.0, 0.5)
    assert r["bounded"]
    r2 = lower_growth_check(YoungFunction.power(3), 2.0, 0.5)
    assert not r2["bounded"]


def _doubling(phi, r):
    return check_delta2(phi, "global" if r is None else "local", r)["holds"]


def _lower_growth(phi, alpha, r):
    return lower_growth_check(phi, alpha, r)["bounded"]


def _inverse_product(phi_a, phi_b, beta, r):
    return inverse_product_check(phi_a, phi_b, beta, r)["bounded"]


def _embeds(phi1, phi2, r):
    return o.check_embedding(phi1, phi1, phi2, phi2, r)["embeds"]


CAP1, TAN, LOG = YoungFunction.cap(1.0), YoungFunction.tan_example(), YoungFunction.log_example()
CONJ_ENT = ENT.conjugate()  # finite up to t2 = 2 exp(-3/2) = 0.446, inf beyond
TABLE = YoungFunction.table([(0, 0), (1, 0), (2, 1), (3, 5)])
NEAR_ZERO_VERDICTS = [
    pytest.param(_doubling, (CAP1, 0.5), True, id="delta2-cap1-0.5"),
    pytest.param(_doubling, (CAP1, 0.6), False, id="delta2-cap1-0.6"),
    pytest.param(_doubling, (CONJ_ENT, 0.2), True, id="delta2-conj_entropy-0.2"),
    pytest.param(_doubling, (CONJ_ENT, 0.5), False, id="delta2-conj_entropy-0.5"),
    pytest.param(_doubling, (TAN, 0.3), True, id="delta2-tan-0.3"),
    pytest.param(_doubling, (TAN, 1.0), False, id="delta2-tan-1.0"),
    # Phi(2 r) = Phi(1) = inf although r = t2 / 2
    pytest.param(_doubling, (LOG, 0.5), False, id="delta2-log-0.5"),
    pytest.param(_doubling, (LOG, 0.3), True, id="delta2-log-0.3"),
    pytest.param(_doubling, (LOG, None), False, id="delta2-log-global"),
    pytest.param(_doubling, (ENT, None), True, id="delta2-entropy-global"),
    pytest.param(_doubling, (TABLE, 0.5), True, id="delta2-table-0.5"),
    pytest.param(_doubling, (TABLE, 1.5), False, id="delta2-table-1.5"),
    pytest.param(_lower_growth, (ENT, 2.0, 0.5), True, id="lower-entropy-2"),
    pytest.param(_lower_growth, (ENT, 1.5, 0.5), False, id="lower-entropy-1.5"),
    pytest.param(_lower_growth, (CONJ_ENT, 3.0, 0.5), True, id="lower-conj_entropy-3"),
    pytest.param(_lower_growth, (CONJ_ENT, 2.0, 0.5), False, id="lower-conj_entropy-2"),
    pytest.param(_inverse_product, (ENT, ENT, 1.0, 0.5), True, id="invprod-entropy-1"),
    pytest.param(_inverse_product, (ENT, ENT, 1.5, 0.5), False, id="invprod-entropy-1.5"),
    pytest.param(_inverse_product, (ENT, CONJ_ENT, 1.0, 0.5), True,
                 id="invprod-entropy-conj_entropy-1"),
    # into the conjugate of entropy at r = 0.5 > t2: the numerator is inf
    # away from 0, where only the neighbourhood of 0 matters
    pytest.param(_embeds, (P2, CONJ_ENT, 0.5), True, id="embed-power2-conj_entropy-0.5"),
    pytest.param(_embeds, (ENT, CONJ_ENT, 0.5), True, id="embed-entropy-conj_entropy-0.5"),
    pytest.param(_embeds, (LOG, CONJ_ENT, 0.5), True, id="embed-log-conj_entropy-0.5"),
    pytest.param(_embeds, (CONJ_ENT, ENT, 0.5), False, id="embed-conj_entropy-entropy-0.5"),
    pytest.param(_embeds, (TAN, LOG, 0.2), True, id="embed-tan-log-0.2"),
    pytest.param(_embeds, (P2, TAN, 0.5), False, id="embed-power2-tan-0.5"),
]


@pytest.mark.parametrize("check, args, want", NEAR_ZERO_VERDICTS)
def test_near_zero_verdicts(check, args, want):
    """Verdicts of the four near-origin comparisons on functions with zero
    sets, jumps to inf and non-power growth."""
    assert check(*args) is want


# one unit is one complex 24^4 array, the size of a d=2 STFT at N=24
UNIT = 16 * 24 ** 4


def _peak_units(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / UNIT
    finally:
        tracemalloc.stop()


def _pair24(seed):
    g = o.make_grid(24, 6.0)
    return o.make_gaussian_mix(g, seed), o.make_gaussian_mix(g, seed + 1)


def test_d2_modulation_norm_holds_one_slab_at_a_time():
    """A slab (1/24 of a unit) and its magnitudes, and no array the size of
    the STFT: a power first stage sums each slab into its rows."""
    a, b = _pair24(1)
    ab = o.Field(o.make_grid(24, 6.0, 2), np.multiply.outer(a.values, b.values))
    m = ModulationSpaceSpec(YoungFunction.power(1.5), YoungFunction.power(3))
    assert _peak_units(o.modulation_norm, ab, m) <= 0.25


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_d2_power_sums_out_of_range_stream_again(scale):
    """A power sum that leaves the normal range is taken again over the row
    max slab by slab: the norm scales out, and the peak stays that of the
    unscaled norm instead of the real N^4 array of the rows."""
    g = o.make_grid(24, 4.0, 2)
    f = o.make_gaussian_mix(g, 3)
    spec = ModulationSpaceSpec(P3, YoungFunction.power(1.5))
    big = o.Field(g, scale * f.values)
    want = o.modulation_norm(f, spec)
    assert abs(o.modulation_norm(big, spec) / scale - want) <= 1e-14 * want
    assert _peak_units(o.modulation_norm, big, spec) <= 1.25 * _peak_units(
        o.modulation_norm, f, spec)


def test_d2_joint_entropy_norm_holds_only_its_rows():
    """A first stage without a closed form holds |V| in its rows (half a
    unit) and the entropy gauge's sorted tables, but no complex STFT."""
    a, b = _pair24(1)
    ab = o.Field(o.make_grid(24, 6.0, 2), np.multiply.outer(a.values, b.values))
    assert _peak_units(o.modulation_norm, ab, MPHI) <= 2.2


@pytest.mark.parametrize("p, bound", [(2, 0.05), (1, 0.25)])
def test_factorization_check_peak_memory(p, bound):
    a, b = _pair24(3)
    phi = YoungFunction.power(p)
    assert _peak_units(o.stft_norm_factorization_check, a, b, phi, phi) <= bound


@pytest.mark.parametrize("seed", [5, 7, 9])
def test_factorization_lhs_is_the_modulation_norm(monkeypatch, seed):
    """Power 2: Moyal's identity, one STFT slab (d=1), the 4-d value to
    1e-12.  Power 1: the streamed 4-d norm, the weighted sum of |V| over
    the formed 4-d STFT (summed exactly by math.fsum) to 1e-14."""
    f1, f2 = _pair24(seed)
    V12 = o.stft(f2, f1)
    V4 = o.stft(V12, o.make_gaussian(V12.grid, 1.0))
    calls = []
    _count_slabs(monkeypatch, calls, lambda f, rows: f.grid.dimension)
    got = o.stft_norm_factorization_check(f1, f2, P2, P2)["lhs"]
    assert calls == [1]
    want = o.mixed_norm(V4, M2.stages_for(2))
    assert abs(got - want) <= 1e-12 * got
    p1 = YoungFunction.power(1)
    got = o.stft_norm_factorization_check(f1, f2, p1, p1)["lhs"]
    want = math.fsum(np.abs(V4.values).ravel()) * V4.grid.weight
    assert abs(got - want) <= 1e-14 * want


@pytest.mark.parametrize("r", [1e-10, 1e-30, 1e-200])
def test_near_origin_checks_refuse_radii_below_their_grids(r):
    """Below 1e-8 the comparison grids would be read past r and Phi would
    underflow on them; every near-origin check raises, naming 1e-8, rather
    than give a verdict other than the one at r = 0.5."""
    pp = YoungFunction.power(1.5)
    for a, b in ((pp, ENT), (ENT, P2), (ENT, pp), (P2, ENT)):  # the embedding lattice
        with pytest.raises(ValueError, match="1e-08"):
            o.check_embedding(a, a, b, b, r)
    for phi in (YoungFunction.power(3), YoungFunction.cap(0.25), ENT):
        with pytest.raises(ValueError, match="1e-08"):
            check_delta2(phi, "local", r)
        with pytest.raises(ValueError, match="1e-08"):
            o.check_p_steered(phi, 2.0, r)
    with pytest.raises(ValueError, match="1e-08"):
        o.check_pseudo_hypotheses(2.0, 1.5, ENT, ENT, P2, P2, r)


def test_hypotheses_with_p_near_one_steer_at_a_large_dual_exponent():
    """p = 1.001 asks for p'-steering with p' = 1001, where top^p' of
    cap(0.25) underflows; the steering scan runs in log u and answers."""
    cap = YoungFunction.cap(0.25)
    r = o.check_pseudo_hypotheses(1.001, 1.0, cap, cap, ENT, P2)
    steering = {c["name"]: c["passed"] for c in r["conditions"] if c["name"].startswith("steering")}
    assert steering == dict.fromkeys(
        ("steering_Phi1", "steering_Psi1", "steering_Phi2", "steering_Psi2"), True)
