import math
import warnings

import numpy as np
import pytest

import orlicztf as o
from conftest import gaussian_window, noise_field, unit
from orlicztf import ModulationSpaceSpec, YoungFunction

P2 = YoungFunction.power(2)
ENT = YoungFunction.entropy()
M2 = ModulationSpaceSpec(P2, P2)
MPHI = ModulationSpaceSpec(ENT, ENT)


def test_m2_norm_of_unit_gaussian(grid256):
    assert abs(o.modulation_norm(gaussian_window(grid256), M2) - 1.0) < 1e-6


def test_m2_equals_l2(grid256):
    f = noise_field(grid256, 1)
    assert abs(o.modulation_norm(f, M2) - o.l2_norm(f)) < 1e-8 * o.l2_norm(f)


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
    r = o.lower_growth_check(YoungFunction.power(3), 3.0, 0.5)
    assert r["bounded"]
    r2 = o.lower_growth_check(YoungFunction.power(3), 2.0, 0.5)
    assert not r2["bounded"]
