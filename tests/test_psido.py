import math

import numpy as np
import pytest

import orlicztf as o
from conftest import direct_shifted, noise_field, upsample2
from orlicztf import ModulationSpaceSpec, YoungFunction, psido
from orlicztf.cli import parse_space
from orlicztf.field import Axis


def phase_mesh(pg):
    return [np.ascontiguousarray(np.broadcast_to(v, pg.shape)) for v in pg.mesh()]


@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 1.0])
def test_flat_symbol_gives_identity(grid64, t):
    pg = o.phase_grid(grid64)
    one = o.Field(pg, np.ones(pg.shape, complex))
    K = o.kernel(one, t)
    dx = grid64.weight
    assert np.max(np.abs(K.matrix - np.eye(64) / dx)) < 1e-10 / dx
    f = o.make_gaussian_mix(grid64, 3)
    out = o.apply(one, t, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


@pytest.mark.parametrize("t", [0.0, 0.5])
def test_pure_frequency_symbol_translates(grid64, t):
    """A symbol e^{i c xi} acts as the shift f(x) -> f(x + c)."""
    pg = o.phase_grid(grid64)
    _, XI = phase_mesh(pg)
    c = 16 * grid64.weight
    sym = o.Field(pg, np.exp(1j * c * XI).astype(complex))
    f = o.make_gaussian_mix(grid64, 5)
    out = o.apply(sym, t, f)
    ref = np.roll(f.values, -16)
    assert np.linalg.norm(out.values - ref) < 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("t", [0.0, 1.0])
def test_kernel_matches_oscillatory_sum(grid64, t):
    """Independent reference: the kernel row is a plain quadrature of the
    symbol against e^{i (x - y) xi}, with the row slot at x (t = 0) or at
    y (t = 1)."""
    n, L = 64, 8.0
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 21)
    K = o.kernel(a, t).matrix
    x = -L + (2 * L / n) * np.arange(n)
    xi = (math.pi / L) * (np.arange(n) - n // 2)
    coef = (math.pi / L) / (2 * math.pi)
    ref = np.zeros((n, n), complex)
    for j in range(n):
        for m in range(n):
            slot = j if t == 0.0 else m
            ref[j, m] = coef * np.sum(a.values[slot, :]
                                      * np.exp(1j * (x[j] - x[m]) * xi))
    assert np.max(np.abs(K - ref)) < 1e-12


def test_symmetric_kernel_uses_midpoint_slot(grid64):
    """Away from the wrap-around corners, the t = 1/2 kernel at even j + m
    samples the symbol exactly at the midpoint lattice site."""
    n, L = 64, 8.0
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 21)
    K = o.kernel(a, 0.5).matrix
    x = -L + (2 * L / n) * np.arange(n)
    xi = (math.pi / L) * (np.arange(n) - n // 2)
    coef = (math.pi / L) / (2 * math.pi)
    worst = 0.0
    for j in range(20, 44):
        for m in range(20, 44):
            if (j + m) % 2 == 0:
                ref = coef * np.sum(a.values[(j + m) // 2, :]
                                    * np.exp(1j * (x[j] - x[m]) * xi))
                worst = max(worst, abs(K[j, m] - ref))
    assert worst < 1e-12


def test_kernel_linear_in_symbol(grid64):
    pg = o.phase_grid(grid64)
    a, b = o.make_gaussian_mix(pg, 1), o.make_gaussian_mix(pg, 2)
    al, be = 1.3 - 0.2j, -0.7 + 0.9j
    combo = o.Field(pg, al * a.values + be * b.values)
    for t in (0.0, 0.3, 0.5):
        lhs = o.kernel(combo, t).matrix
        rhs = al * o.kernel(a, t).matrix + be * o.kernel(b, t).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_apply_matches_kernel_matrix(grid64):
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 7)
    f = noise_field(grid64, 8)
    K = o.kernel(a, 0.5)
    direct = K.apply_to(f)
    via_apply = o.apply(a, 0.5, f)
    assert np.max(np.abs(direct.values - via_apply.values)) < 1e-12


def test_quantization_consistency(grid128):
    pg = o.phase_grid(grid128)
    a = o.make_gaussian_mix(pg, 9)
    f = o.make_gaussian_mix(grid128, 10)
    for t1, t2 in ((0.0, 0.5), (0.5, 1.0), (0.3, 0.7)):
        r = o.calculi_consistency(a, t1, t2, f)
        assert r["max_error"] < 1e-10


def test_symbol_needs_a_xi_axis_dual_to_x(grid64):
    """A symbol whose xi extent is doubled is rejected, not read as the
    symbol of a kernel with twice the norm."""
    a = o.make_gaussian_mix(o.phase_grid(grid64), 9)
    x, xi = a.grid.axes
    wide = o.Field(o.Grid((x, Axis(xi.n, 2.0 * xi.half_extent)), a.grid.roles), a.values)
    f = o.make_gaussian_mix(grid64, 10)
    for call in (lambda: o.kernel(wide, 0.3), lambda: o.apply(wide, 0.0, f),
                 lambda: o.calculi_consistency(wide, 0.0, 0.5, f)):
        with pytest.raises(ValueError, match="xi axes dual to the x axes"):
            call()


@pytest.mark.parametrize("space, n", [
    *((space, n) for space in ("m:power:2:power:2", "m:power:3:power:1.5", "MPhi")
      for n in (16, 32, 48)),
    ("m:power:2:power:2", 256),  # a Moyal space has no size limit
])
def test_symbol_norm_is_the_full_modulation_norm(space, n):
    """The symbol is normed in full on its own phase grid, at any even N."""
    spec = parse_space(space)
    a = o.make_gaussian_mix(o.phase_grid(o.make_grid(n, 12.0)), 5)
    assert o.symbol_norm(a, spec) == o.modulation_norm(a, spec)


def test_symbol_norm_outside_moyal_is_refused_before_any_probe(monkeypatch):
    """Past the streamed 4-d limit a non-Moyal symbol space is refused, by
    name of the limit, before the random search draws a probe."""
    def no_probes(*args):
        raise AssertionError("probes drawn for a refused request")

    monkeypatch.setattr(psido, "_probes", no_probes)
    spec = parse_space("m:power:3:power:1.5")
    a = o.make_gaussian_mix(o.phase_grid(o.make_grid(64, 12.0)), 5)
    with pytest.raises(ValueError, match="N <= 48.*Moyal spaces"):
        o.estimate_operator_norm(a, 0.0, spec, spec, trials=2, symbol_space=spec)


def test_symbol_norm_needs_a_1d_base_grid():
    spec = parse_space("m:power:2:power:2")
    a = o.make_gaussian_mix(o.phase_grid(o.make_grid(8, 4.0, 2)), 5)
    with pytest.raises(ValueError, match="1-d base grid"):
        o.symbol_norm(a, spec)


def test_operator_norm_flat_l2_uses_exact_singular_value(grid64):
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 21)
    p2 = YoungFunction.power(2)
    m2 = ModulationSpaceSpec(p2, p2)
    r = o.estimate_operator_norm(a, 0.5, m2, m2, trials=3, seed=1)
    assert r["method"] == "singular_value"
    K = o.kernel(a, 0.5)
    top = float(np.linalg.svd(K.matrix, compute_uv=False)[0]) * grid64.weight
    assert abs(r["lower_bound"] - top) < 1e-12 * top
    # the singular value dominates any single quotient
    f = o.make_gaussian_mix(grid64, 31)
    q = o.l2_norm(o.apply(a, 0.5, f)) / o.l2_norm(f)
    assert q <= r["lower_bound"] * (1 + 1e-10)


def test_operator_norm_random_search_path(grid64):
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 21)
    ent = YoungFunction.entropy()
    spec = ModulationSpaceSpec(ent, ent)
    r = o.estimate_operator_norm(a, 0.0, spec, spec, trials=3, seed=1)
    assert r["method"] == "random_search"
    assert r["lower_bound"] > 0
    assert r["trials"] == 3


def test_operator_norm_reports_symbol_ratio(grid64):
    pg = o.phase_grid(grid64)
    a = o.make_gaussian_mix(pg, 21)
    p2 = YoungFunction.power(2)
    m2 = ModulationSpaceSpec(p2, p2)
    r = o.estimate_operator_norm(a, 0.0, m2, m2, trials=2, seed=1,
                                 symbol_space=m2)
    assert r["symbol_norm"] > 0
    assert abs(r["ratio_to_symbol_norm"] - r["lower_bound"] / r["symbol_norm"]) \
        < 1e-12


def lattice_kernel(a, t):
    """Test oracle: the index-gather (t = 0, 1) and half-grid upsampling
    (t = 1/2) kernel, with explicit bookkeeping for x - y leaving [-L, L)."""
    n = a.grid.axes[0].n
    b = o.inverse_fourier_transform(a, axes=(1,)).values
    j = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    zidx = (j - m + n // 2) % n
    if t == 0.0:
        K = b[np.broadcast_to(j, (n, n)), zidx]
    elif t == 1.0:
        K = b[np.broadcast_to(m, (n, n)), zidx]
    else:
        bf = np.apply_along_axis(upsample2, 0, b)
        # a full-period jump of x - y moves the midpoint by half a period
        wrap = ((j - m + n // 2) < 0) | ((j - m + n // 2) >= n)
        K = bf[(j + m + n * wrap) % (2 * n), zidx]
    return (2.0 * math.pi) ** -0.5 * K


@pytest.mark.parametrize("n, half_extent", [(64, 8.0), (342, 16.0)])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
def test_kernel_matches_lattice_oracle(n, half_extent, t):
    pg = o.phase_grid(o.make_grid(n, half_extent))
    a = o.Field(pg, o.make_gaussian_mix(pg, 13).values + 0.1 * noise_field(pg, 14).values)
    ref = lattice_kernel(a, t)
    got = o.kernel(a, t).matrix
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("t", [0.3, 0.7])
def test_rank_one_and_duality_at_general_t(t):
    """Op_t(W^t(f1, f2)) h = (2 pi)^(-1/2) <h, f2> f1, and the operator
    pairing equals the symbol pairing, at the battery's tolerances."""
    g = o.make_grid(128, 10.0)
    f1, f2, h, u = (o.make_gaussian_mix(g, s) for s in (52, 53, 54, 55))
    W = o.wigner(f1, f2, t)
    out = o.apply(W, t, h)
    target = (2.0 * math.pi) ** -0.5 * o.inner_product(h, f2) * f1.values
    assert np.abs(out.values - target).max() / np.abs(target).max() < 1e-6
    lhs = o.inner_product(u, out)
    rhs = (2.0 * math.pi) ** -0.5 * o.inner_product(o.wigner(u, h, t), W)
    assert abs(lhs - rhs) / abs(lhs) < 1e-7


@pytest.mark.parametrize("n", [64, 128, 256, 342, 512])
@pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.7, 1.0])
def test_kernel_matches_direct_exponential_oracle(n, t):
    base = o.make_grid(n, 12.0)
    a = o.make_gaussian_mix(o.phase_grid(base), 9)
    z = base.axes[0].points
    b = o.inverse_fourier_transform(a, axes=(1,)).values
    S = direct_shifted(b, -t * z, base.axes[0].spacing)
    j = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    ref = (2.0 * math.pi) ** -0.5 * S[j, (j - m + n // 2) % n]
    got = o.kernel(a, t).matrix
    assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
