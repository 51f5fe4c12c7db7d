import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orlicztf as o
from conftest import noise_field, weight_oracle
from orlicztf import MixedNormSpec, Weight, YoungFunction, orlicz, young


def test_power2_luxemburg_is_l2(grid128):
    f = noise_field(grid128, 1)
    got = o.luxemburg_norm(f, YoungFunction.power(2))
    assert abs(got - o.l2_norm(f)) < 1e-10 * o.l2_norm(f)


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
def test_power_p_luxemburg_is_lp(grid128, p):
    f = noise_field(grid128, 2)
    got = o.luxemburg_norm(f, YoungFunction.power(p))
    ref = float((np.sum(np.abs(f.values) ** p) * grid128.weight) ** (1.0 / p))
    assert abs(got - ref) < 1e-8 * ref


@settings(max_examples=25, deadline=None)
@given(c=st.floats(0.05, 20.0),
       name=st.sampled_from(["power:1.5", "power:2", "entropy"]))
def test_homogeneity(c, name):
    g = o.make_grid(32, 6.0)
    f = noise_field(g, 7)
    kind, _, arg = name.partition(":")
    phi = YoungFunction.entropy() if kind == "entropy" \
        else YoungFunction.power(float(arg))
    base = o.luxemburg_norm(f, phi)
    scaled = o.luxemburg_norm(o.Field(g, c * f.values), phi)
    assert abs(scaled - c * base) < 1e-8 * max(1.0, c * base)


def test_monotone_in_magnitude(grid64):
    f = noise_field(grid64, 3)
    g = o.Field(grid64, 0.5 * f.values)
    phi = YoungFunction.entropy()
    assert o.luxemburg_norm(g, phi) <= o.luxemburg_norm(f, phi) * (1 + 1e-12)


def test_weighted_luxemburg_matches_manual(grid64):
    f = noise_field(grid64, 4)
    w = Weight.polynomial(2.0)
    got = o.luxemburg_norm(f, YoungFunction.power(2), w)
    ref = o.l2_norm(o.Field(grid64, f.values * weight_oracle(w, grid64)))
    assert abs(got - ref) < 1e-10 * ref


def test_mixed_norm_separable_product(grid64):
    u = noise_field(grid64, 5).values
    v = noise_field(grid64, 6).values
    pg = o.phase_grid(grid64)
    F = o.Field(pg, np.outer(u, v))
    p, q = YoungFunction.power(1.5), YoungFunction.power(3)
    spec = MixedNormSpec((((0,), p), ((1,), q)))
    got = o.mixed_norm(F, spec)
    ax_x = o.Field(grid64, u.astype(complex))
    xi_axis_field = o.Field(o.Grid((pg.axes[1],), ("xi",)), v.astype(complex))
    ref = o.luxemburg_norm(ax_x, p) * o.luxemburg_norm(xi_axis_field, q)
    assert abs(got - ref) < 1e-9 * ref


def test_mixed_norm_stage_order_matters(grid64):
    F = o.stft(o.make_gaussian_mix(grid64, 8), noise_field(grid64, 9))
    p, q = YoungFunction.power(1), YoungFunction.power(3)
    m_order = o.mixed_norm(F, MixedNormSpec((((0,), p), ((1,), q))))
    w_order = o.mixed_norm(F, MixedNormSpec((((1,), q), ((0,), p))))
    assert m_order > 0 and w_order > 0
    assert abs(m_order - w_order) > 1e-6 * m_order


def test_mixed_norm_must_cover_axes(grid64):
    F = o.stft(o.make_gaussian_mix(grid64, 8), noise_field(grid64, 9))
    with pytest.raises(ValueError):
        o.mixed_norm(F, MixedNormSpec((((0,), YoungFunction.power(2)),)))


def test_cap_norm_is_scaled_sup(grid64):
    f = noise_field(grid64, 10)
    got = o.luxemburg_norm(f, YoungFunction.cap(1.0))
    ref = np.max(np.abs(f.values))
    assert abs(got - ref) < 1e-8 * ref


# -- the root finder against the fixed-count bisection it replaced ------------

def _luxemburg_by_bisection(a, w, phi):
    """Row-wise Luxemburg norms by bracket doubling and 80 bisection steps
    on lambda, evaluating Phi by its own evaluator."""
    a = np.asarray(a, dtype=float)
    out = np.zeros(a.shape[0])
    mx = a.max(axis=1)
    live = mx > 0
    rows = a[live]
    t2 = phi.infinity_point()
    mxl = mx[live]
    lo = np.maximum(mxl / t2, 1e-300) if np.isfinite(t2) \
        else np.full(mxl.shape, 1e-300)
    hi = w * rows.sum(axis=1) + mxl

    def gauge_le_one(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = phi._eval_array(rows / lam[:, None])
        return w * np.sum(np.where(np.isnan(vals), np.inf, vals), axis=1) <= 1.0

    for _ in range(200):
        ok = gauge_le_one(hi)
        if np.all(ok):
            break
        hi = np.where(ok, hi, hi * 2.0)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        ok = gauge_le_one(mid)
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    out[live] = hi
    return out


TABLE_FINITE = YoungFunction.table([(0, 0), (1, 0.5), (2, 2), (3, 5)], tail_slope=4.0)
TABLE_INFINITE = YoungFunction.table([(0, 0), (1, 0), (2, 1), (3, 5)])
_BASES = {
    "power2": YoungFunction.power(2),
    "power_scaled1.5": YoungFunction.power_scaled(1.5),
    "power0.5": YoungFunction.power(0.5),
    "cap2": YoungFunction.cap(2.0),
    "entropy": YoungFunction.entropy(),
    "tan_example": YoungFunction.tan_example(),
    "log_example": YoungFunction.log_example(),
    "table_finite_tail": TABLE_FINITE,
    "table_infinite_tail": TABLE_INFINITE,
}
NORM_KINDS = dict(_BASES)
NORM_KINDS.update({"conjugate:" + k: phi.conjugate() for k, phi in _BASES.items()
                   if phi.quasi_order == 1.0})


def _oracle_rows(scale):
    rng = np.random.default_rng(11)
    rows = np.abs(rng.standard_normal((5, 24)) + 1j * rng.standard_normal((5, 24)))
    rows[0] = 0.0
    rows[1] = 0.0
    rows[1, 7] = 1.0
    return scale * rows


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_root_finder_steps_by_the_slope_of_a_quasi_young_gauge(scale):
    """The log-gauge of the quasi-Young power t^(1/2) rises exactly 1/2 per
    unit of v, so the outward step -F / slope at slope 1/2 lands on the
    root: three evaluations, within 2 ulps of the closed-form norm
    (w sum a^(1/2))^2.  At slope 1 the steps only halve the gap (51)."""
    phi = YoungFunction.power(0.5)
    rows, w = _oracle_rows(scale)[2:], 0.05
    m = rows.max(axis=1)
    gauge, data, total = orlicz._phi_gauge(phi, rows / m[:, None], w)
    calls = []

    def counted(v, *data):
        calls.append(v.size)
        return gauge(v, *data)

    v = orlicz._illinois(counted, -np.log(w * total + 1.0), -np.inf, np.inf,
                         phi.quasi_order, *data)
    want = (w * np.sum(np.sqrt(rows), axis=1)) ** 2
    assert phi.quasi_order == 0.5 and len(calls) <= 3
    np.testing.assert_allclose(m * np.exp(-v), want, rtol=4.5e-16, atol=0)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("name", sorted(NORM_KINDS))
def test_luxemburg_matches_bisection(name, scale):
    phi = NORM_KINDS[name]
    rows = _oracle_rows(scale)
    got = orlicz._luxemburg_batch(rows, 0.4, phi)
    want = _luxemburg_by_bisection(rows, 0.4, phi)
    assert got[0] == want[0] == 0.0
    assert np.all(np.abs(got - want) <= 1e-10 * want)


@pytest.mark.parametrize("w", [1.0, 50.0])
def test_entropy_conjugate_norm_off_its_jump_point(w):
    """Rows of 256 whose norm sits above max|a| / t2*, the floor set by the
    jump of Phi* at t2* = 2 exp(-3/2): the gauge reads Phi* inside (0, t2*),
    and the norm must match the oracle there too.  Uniform entries have no
    outlier to pin the norm at that floor."""
    phi = YoungFunction.entropy().conjugate()
    rows = np.random.default_rng(12).uniform(0.0, 1.0, (40, 256))
    got = orlicz._luxemburg_batch(rows, w, phi)
    want = _luxemburg_by_bisection(rows, w, phi)
    assert np.all(got > 1.01 * rows.max(axis=1) / phi.infinity_point())
    assert np.max(np.abs(got - want) / want) <= 1e-12


def _noise_rows(shape, seed):
    rng = np.random.default_rng(seed)
    return np.abs(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def test_entropy_batch_gauge_evaluations(monkeypatch):
    """The entropy gauge reads its sorted prefix sums: a 400 x 256 batch
    takes at most 30 root-finder steps at every scale and evaluates Phi
    over no row."""
    steps, evals = [], []
    solve, evaluate = orlicz._illinois, YoungFunction._eval_array

    def counted_solve(F, *args):
        def counted_F(x, *data):
            steps.append(x.size)
            return F(x, *data)
        return solve(counted_F, *args)

    def counted_eval(self, t):
        evals.append(t.shape)
        return evaluate(self, t)

    monkeypatch.setattr(orlicz, "_illinois", counted_solve)
    monkeypatch.setattr(YoungFunction, "_eval_array", counted_eval)
    rows = _noise_rows((400, 256), 5)
    for scale in (1e-3, 1.0, 1e3):
        steps.clear()
        evals.clear()
        orlicz._luxemburg_batch(scale * rows, 12.0 / 128, YoungFunction.entropy())
        assert 0 < len(steps) <= 30
        assert not [shape for shape in evals if np.prod(shape) >= 256]


_SPLICE = np.exp(-1.5)


def _entropy_phi(t):
    """The entropy Young function written out: -t^2 log t up to e^{-3/2},
    then its tangent line there."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        small = np.where(t > 0, -t * t * np.log(np.where(t > 0, t, 1.0)), 0.0)
    return np.where(t <= _SPLICE, small, 2.0 * _SPLICE * t - 0.5 * np.exp(-3.0))


def _entropy_norm_by_bisection(rows, w):
    """Row-wise entropy Luxemburg norms at the scalar weight w: a doubling
    bracket [lam/2, lam], then bisection until the midpoint is one of the
    ends."""

    def le_one(lam):
        return np.sum(w * _entropy_phi(rows / lam[:, None]), axis=1) <= 1.0

    hi = rows.max(axis=1)
    for _ in range(2100):
        ok = le_one(hi)
        if ok.all():
            break
        hi = np.where(ok, hi, 2.0 * hi)
    for _ in range(2100):
        ok = le_one(0.5 * hi)
        if not ok.any():
            break
        hi = np.where(ok, 0.5 * hi, hi)
    lo = 0.5 * hi
    while True:
        mid = 0.5 * (lo + hi)
        live = (mid > lo) & (mid < hi)
        if not live.any():
            return hi
        ok = le_one(mid)
        hi = np.where(live & ok, mid, hi)
        lo = np.where(live & ~ok, mid, lo)


def _stft_row(n):
    """|V_g f| of a Gaussian mix at N = n as one row, with its quadrature
    weight."""
    grid = o.make_grid(n, 12.0)
    V = o.stft(o.make_gaussian_mix(grid, 42), o.make_gaussian(grid))
    return np.abs(V.values).reshape(1, -1), V.grid.weight


def _entropy_oracle_cases():
    noise = _noise_rows((400, 256), 13)
    stft_row, stft_w = _stft_row(256)
    zeros = _noise_rows((6, 40), 14)
    zeros[:, ::2] = 0.0
    zeros[0, 2:] = 0.0
    zeros[1, :-1] = 0.0
    return {"noise": (noise, 12.0 / 128), "stft_row": (stft_row, stft_w),
            "zeros": (zeros, 0.3)}


@pytest.mark.parametrize("case", ["noise", "stft_row", "zeros"])
def test_entropy_norm_matches_bisection_oracle(case):
    rows, w = _entropy_oracle_cases()[case]
    got = orlicz._luxemburg_batch(rows, w, YoungFunction.entropy())
    want = _entropy_norm_by_bisection(rows, w)
    # some samples lie on the tangent line, others on -t^2 log t
    above = rows / want[:, None] > _SPLICE
    assert above.any() and (~above & (rows > 0)).any()
    assert np.max(np.abs(got - want) / want) <= 1e-13


def test_entropy_one_entry_rows_with_weights_match_bisection_oracle():
    """A one-entry row [1] at each of 97 weights from 1e-12 to 1e12, below
    and above the splice."""
    ent, row = YoungFunction.entropy(), np.ones((1, 1))
    for w in 1.0 / np.geomspace(1e-12, 1e12, 97):
        got = orlicz._luxemburg_batch(row, w, ent)
        want = _entropy_norm_by_bisection(row, w)
        assert np.max(np.abs(got - want) / want) <= 1e-13


@pytest.mark.parametrize("w", [1e-100, 1e-200, 1e-300])
def test_entropy_norm_far_out_on_the_tangent_line(w):
    """A row [0, 1] at weight w has norm 1/t with Phi(t) = 1/w on the
    tangent line: e^{2v} overflows there while the zero stays below the
    splice, and its empty square sum must count as 0."""
    got = orlicz._luxemburg_batch(np.array([[0.0, 1.0]]), w, YoungFunction.entropy())
    want = 2.0 * _SPLICE / (1.0 / w + 0.5 * np.exp(-3.0))
    # the root finder's tolerance is a few ulps of |log t|, up to 690 here
    assert abs(got[0] - want) <= 1e-12 * want


_ROOT_FOUND_KINDS = sorted(k for k, phi in NORM_KINDS.items()
                           if young.closed_power_form(phi) is None)


@pytest.mark.parametrize("case", ["noise", "stft_row"] + _ROOT_FOUND_KINDS)
def test_entropy_norm_homogeneity_at_extreme_scales(case):
    """||c a|| = c ||a|| to 1e-14 at c = 1e-200 ... 1e200: the entropy
    oracle cases, and 20 x 64 noise rows (small, for the Legendre-transform
    gauges of the conjugates) under every kind without a power form.  The
    root finder's tolerance is relative to the norm because every row is
    solved scaled to max 1."""
    if case in NORM_KINDS:
        rows, w, phi = _noise_rows((20, 64), 21), 0.4, NORM_KINDS[case]
    else:
        (rows, w), phi = _entropy_oracle_cases()[case], YoungFunction.entropy()
    base = orlicz._luxemburg_batch(rows, w, phi)
    for c in (1e-200, 1e-20, 1e20, 1e200):
        scaled = orlicz._luxemburg_batch(c * rows, w, phi)
        assert np.max(np.abs(scaled - c * base) / (c * base)) <= 1e-14


def test_entropy_prefix_sums_agree_with_the_generic_gauge(monkeypatch):
    """The one driver with its two evaluators on the same entropy rows: the
    sorted prefix sums and Phi's own evaluator give norms within 1e-14 of
    each other at every scale from 1e-200 to 1e200."""
    rows, ent = _noise_rows((400, 256), 22), YoungFunction.entropy()
    for c in np.geomspace(1e-200, 1e200, 9):
        tables = orlicz._luxemburg_batch(c * rows, 0.05, ent)
        with monkeypatch.context() as m:
            m.setattr(orlicz, "_entropy_gauge", orlicz._phi_gauge)
            generic = orlicz._luxemburg_batch(c * rows, 0.05, ent)
        assert np.max(np.abs(generic - tables) / tables) <= 1e-14


def _peak_bytes(fn, *args, **kwargs) -> int:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("shape", [(1000, 256), (1, 65536)])
def test_entropy_batch_peak_memory(shape):
    """The entropy solve holds the sorted rows and three prefix-sum tables
    of one block of rows.  A 1000 x 256 batch is four blocks and peaks at
    1.13 of its size (bound 1.3); the one 65536-sample row is one block and
    peaks at 4.27 (bound 7.2, the 7.2 row batches that the per-step Phi
    evaluation used to take)."""
    rows = _noise_rows(shape, 15)
    bound = {(1000, 256): 1.3, (1, 65536): 7.2}[shape]
    assert _peak_bytes(orlicz._luxemburg_batch, rows, 0.01, YoungFunction.entropy()) \
        <= bound * rows.nbytes


@pytest.mark.parametrize("name, bound", [("entropy_conjugate", 3.5), ("log_example", 2.1)])
def test_generic_gauge_batch_peak_memory(name, bound):
    """The generic gauge holds its temporaries for one block of rows: a
    1000 x 256 batch peaks at 3.12 (entropy conjugate) and 1.84
    (log_example) of its size, about a tenth under each bound; solved
    whole, the batch peaked at 12.2 and 7.2."""
    phi = {"entropy_conjugate": YoungFunction.entropy().conjugate(),
           "log_example": YoungFunction.log_example()}[name]
    rows = _noise_rows((1000, 256), 15)
    assert _peak_bytes(orlicz._luxemburg_batch, rows, 0.01, phi) <= bound * rows.nbytes


def _rows_with_settled_entries(shape, seed):
    """Noise rows with a zero row, a row holding a NaN and one holding an inf."""
    rows = _noise_rows(shape, seed)
    rows[1] = 0.0
    rows[shape[0] // 2, 3] = np.nan
    rows[-2, 5] = np.inf
    return rows


BLOCK_KINDS = {
    "entropy": YoungFunction.entropy(),
    "conjugate:entropy": YoungFunction.entropy().conjugate(),
    "log_example": YoungFunction.log_example(),
    "tan_example": YoungFunction.tan_example(),
    "cap1": YoungFunction.cap(1.0),
    "table_finite_tail": TABLE_FINITE,
    "table_infinite_tail": TABLE_INFINITE,
    "power1.5": YoungFunction.power(1.5),
}


@pytest.mark.parametrize("name", sorted(BLOCK_KINDS))
def test_blocks_solve_rows_independently(name):
    """A 1000 x 256 batch is solved in four blocks of 256 rows, and each
    row's norm has the bits of its own one-row solve: at the edges of every
    block, at the zero, NaN and inf rows and at every tenth row between."""
    phi = BLOCK_KINDS[name]
    rows = _rows_with_settled_entries((1000, 256), 17)
    got = orlicz._luxemburg_batch(rows, 0.04, phi)
    assert got[1] == 0.0 and np.isnan(got[500]) and got[-2] == np.inf
    starts = np.arange(0, 1000, orlicz._BLOCK // 256)[1:]
    idx = np.unique(np.r_[0:1000:10, starts - 1, starts, 1, 500, 998, 999])
    want = [orlicz._luxemburg_batch(rows[i], 0.04, phi) for i in idx]
    assert np.array_equal(got[idx], want, equal_nan=True)


def test_blocks_solve_conjugate_rows_independently(monkeypatch):
    """The Legendre-transform gauge of a conjugate, in blocks of four rows
    (_BLOCK cut to 4 x 64 samples, as a full block takes seconds here):
    every row's norm has the bits of its own one-row solve, and overwrite
    leaves the norms alone."""
    phi = YoungFunction.log_example().conjugate()
    rows = _rows_with_settled_entries((16, 64), 18)
    monkeypatch.setattr(orlicz, "_BLOCK", 4 * 64)
    got = orlicz._luxemburg_batch(rows, 0.04, phi)
    want = [orlicz._luxemburg_batch(r, 0.04, phi) for r in rows]
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(orlicz._luxemburg_batch(rows.copy(), 0.04, phi, overwrite=True),
                          got, equal_nan=True)


def test_overwrite_solves_a_block_in_place_only_when_all_its_rows_are_live():
    """With overwrite, the entropy gauge sorts a block whose rows are all
    live in place; a block with a settled row is solved on a copy of its
    live rows, and its rows are left as they were."""
    n = 256
    step = orlicz._BLOCK // n
    rows = _noise_rows((3 * step, n), 19)
    rows[step + 7] = 0.0
    a = rows.copy()
    got = orlicz._luxemburg_batch(a, 0.04, YoungFunction.entropy(), overwrite=True)
    assert np.array_equal(got, orlicz._luxemburg_batch(rows, 0.04, YoungFunction.entropy()))
    assert np.array_equal(a[step:2 * step], rows[step:2 * step])
    for block in (slice(0, step), slice(2 * step, 3 * step)):
        assert not np.array_equal(a[block], rows[block])
        assert np.all(np.diff(a[block], axis=1) >= 0.0)


def test_entropy_batch_reads_its_live_rows_in_place():
    """Once rows leave the root finder, the live ones are still read in
    place: a 576 x 576 batch, the rows of a d=2 joint norm at N=24, solved
    in its own buffer, holds the three prefix-sum tables of one block of
    113 rows and no copy of its rows: 0.33 units of a complex 24^4 array
    (bound 0.4; solved whole, the tables took 1.6 units)."""
    rows = _noise_rows((576, 576), 15)
    peak = _peak_bytes(orlicz._luxemburg_batch, rows, 1.0 / 576 ** 2,
                       YoungFunction.entropy(), overwrite=True)
    assert peak <= 0.4 * 16 * 24 ** 4


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_power_norm_of_extreme_fields(p):
    """A constant field of 1e200 or 1e-200 has a finite nonzero power norm,
    c (2 * 4)^{1/p} on make_grid(16, 4.0).  In a batch, a row whose sum
    overflows is taken over its max, and the ordinary rows beside it keep
    the closed form's bits."""
    grid = o.make_grid(16, 4.0)
    phi = YoungFunction.power(p)
    for c in (1e200, 1e-200):
        got = o.luxemburg_norm(o.Field(grid, np.full(grid.shape, c)), phi)
        assert abs(got - c * 8.0 ** (1.0 / p)) <= 1e-14 * c * 8.0 ** (1.0 / p)
    rows = _noise_rows((3, 16), 16)
    big = 1e250 * rows[1]
    rows[1] = big
    got = orlicz._luxemburg_batch(rows, grid.weight, phi)
    with np.errstate(over="ignore"):
        closed = np.sum(rows ** p, axis=1) * grid.weight
    assert got[0] == closed[0] ** (1.0 / p) and got[2] == closed[2] ** (1.0 / p)
    m = big.max()
    want = m * orlicz._luxemburg_batch(big / m, grid.weight, phi)
    assert abs(got[1] - want) <= 1e-15 * want


@pytest.mark.parametrize("c, p, want", [(1e200, 1.5, 4e200), (1e-200, 1.5, 4e-200),
                                         (1e50, 3.0, 2e50), (1e-50, 3.0, 2e-50)])
def test_power_norm_keeps_its_digits_far_from_one(c, p, want):
    """(c w sum a^p)^(1/p) loses |log total| times the rounding error of 1/p;
    the norm of a constant field of c on make_grid(16, 4.0), c 8^(1/p), is
    taken over the row max instead and lands within 2 ulps (the closed form
    alone was 151 ulps off for 1e200 under power(1.5))."""
    grid = o.make_grid(16, 4.0)
    got = o.luxemburg_norm(o.Field(grid, np.full(grid.shape, c)), YoungFunction.power(p))
    assert abs(got - want) <= 2 * math.ulp(want)


@pytest.mark.parametrize("p", [1.5, 3.0, 2.0, 1e-310])
def test_power_norms_near_one_keep_the_closed_form(p):
    """Rows whose power sum is near 1 keep the closed form's bits, and so
    does every row where 1/p is exact (p = 2) or not finite (p = 1e-310)."""
    rows = _noise_rows((64, 32), 17) * np.geomspace(1e-30, 1e30, 64)[:, None]
    w = 0.25
    got = orlicz._luxemburg_batch(rows, w, YoungFunction.power(p))
    total = w * np.sum(rows ** p, axis=1)
    closed = total ** (1.0 / p)
    if p in (2.0, 1e-310):
        assert np.array_equal(got, closed)
    else:
        near = np.abs(np.log(total)) <= 1.0
        assert near.any() and np.array_equal(got[near], closed[near])


def test_root_finder_raises_at_its_cap(monkeypatch):
    monkeypatch.setattr(young, "_MAX_STEPS", 3)
    rows = np.abs(np.random.default_rng(6).standard_normal((4, 32)))
    with pytest.raises(RuntimeError, match="did not converge"):
        orlicz._luxemburg_batch(rows, 0.25, YoungFunction.entropy())


@pytest.mark.parametrize("phi", [
    YoungFunction.power(2), YoungFunction.entropy(), YoungFunction.log_example(),
    YoungFunction.entropy().conjugate(), YoungFunction.cap(1.0),
], ids=["power2", "entropy", "log_example", "conjugate:entropy", "cap1"])
def test_non_finite_rows(phi):
    """A NaN entry makes the norm NaN, else an inf entry makes it inf; the
    finite rows beside them keep their values."""
    rows = np.array([[1.0, np.inf, 0.5], [1.0, np.nan, 0.5], [np.inf, np.nan, 0.0],
                     [1.0, 0.5, 0.25], [0.0, 0.0, 0.0]])
    got = orlicz._luxemburg_batch(rows, 0.4, phi)
    assert got[0] == np.inf and np.isnan(got[1]) and np.isnan(got[2])
    assert got[3] == orlicz._luxemburg_batch(rows[3], 0.4, phi) > 0.0
    assert got[4] == 0.0
    assert np.isnan(orlicz._luxemburg_batch(rows[1], 0.4, phi))


def _mixed_norm_by_copies(f, spec):
    """mixed_norm written the long way: |f| times the weight, then per stage
    a transposed copy of the values, reshaped to rows."""
    vals = np.abs(f.values)
    if not spec.weight.is_constant_one:
        vals = vals * weight_oracle(spec.weight, f.grid)
    remaining = list(range(vals.ndim))
    for axes, phi in spec.stages:
        pos = [remaining.index(a) for a in axes]
        keep = [i for i in range(vals.ndim) if i not in pos]
        moved = np.transpose(vals, keep + pos)
        batch_shape = moved.shape[: len(keep)]
        # a C-ordered copy, even where the reshape alone would be a view
        mat = moved.reshape(-1, int(np.prod(moved.shape[len(keep):], dtype=int))).copy()
        w = 1.0
        for a in axes:
            w *= f.grid.axes[a].spacing
        vals = orlicz._luxemburg_batch(mat, w, phi).reshape(batch_shape)
        remaining = [remaining[i] for i in keep]
    return float(vals.reshape(()))


def _phase_fields():
    one = noise_field(o.phase_grid(o.make_grid(16, 5.0)), 1)
    two = noise_field(o.phase_grid(o.make_grid(8, 4.0, 2)), 2)
    # dead rows take the power branch's a[live] path
    half = one.values.copy()
    half[:, :8] = 0.0
    return {"d1": one, "d2": two, "d1_dead_rows": o.Field(one.grid, half)}


@pytest.mark.parametrize("field", ["d1", "d2", "d1_dead_rows"])
@pytest.mark.parametrize("pair", [
    (YoungFunction.power(1.5), YoungFunction.power(3)),
    (YoungFunction.power(2), YoungFunction.power(1)),
    (YoungFunction.entropy(), YoungFunction.power(3)),
], ids=["power1.5,3", "power2,1", "entropy,power3"])
@pytest.mark.parametrize("flavor", ["M", "W"])
@pytest.mark.parametrize("weight", [Weight.constant_one(), Weight.polynomial(1.0)],
                         ids=["one", "polynomial1"])
def test_mixed_norm_bit_identical_to_transposed_copies(field, pair, flavor, weight):
    F = _phase_fields()[field]
    stages = o.ModulationSpaceSpec(*pair, flavor=flavor).stages_for(F.grid.dimension // 2)
    spec = MixedNormSpec(stages.stages, weight)
    assert o.mixed_norm(F, spec) == _mixed_norm_by_copies(F, spec)


def test_mixed_norm_bit_identical_with_three_shuffled_stages():
    """A middle stage whose rows are a transposed view, not a copy."""
    F = _phase_fields()["d2"]
    spec = MixedNormSpec((((2,), YoungFunction.power(1.5)), ((0,), YoungFunction.power(3)),
                          ((3, 1), YoungFunction.entropy())))
    assert o.mixed_norm(F, spec) == _mixed_norm_by_copies(F, spec)


_WEIGHTS = [Weight.constant_one(), Weight.polynomial(1), Weight.polynomial(-2.5),
            Weight.exponential(0.7), Weight.exponential(40)]


@pytest.mark.parametrize("grid", [o.make_grid(32, 6.0), o.phase_grid(o.make_grid(16, 5.0)),
                                  o.phase_grid(o.make_grid(6, 3.0, 2))],
                         ids=["1-axis", "2-axis", "4-axis"])
@pytest.mark.parametrize("weight", _WEIGHTS,
                         ids=["one", "polynomial1", "polynomial-2.5", "exponential0.7",
                              "exponential40"])
@pytest.mark.parametrize("phi", [YoungFunction.power(1.5), YoungFunction.entropy()],
                         ids=["power1.5", "entropy"])
def test_weighted_norms_equal_the_coordinate_stack_oracle(grid, weight, phi):
    """Weighted norms equal those of |f| times the weight on a meshgrid
    coordinate stack, bit for bit: the Luxemburg norm and a two-stage mixed
    norm; exponential(40) overflows to inf far out."""
    f = noise_field(grid, 11)
    weighted = (np.abs(f.values) * weight_oracle(weight, grid)).reshape(-1)
    assert o.luxemburg_norm(f, phi, weight) == orlicz._luxemburg_batch(weighted, grid.weight, phi)
    nd = grid.dimension
    stages = [(tuple(range(nd)), phi)] if nd == 1 else \
        [((nd - 1,), phi), (tuple(range(nd - 1)), YoungFunction.power(3))]
    spec = MixedNormSpec(stages, weight)
    assert o.mixed_norm(f, spec) == _mixed_norm_by_copies(f, spec)


def test_weighted_mixed_norm_holds_no_coordinate_stack():
    """A weighted d=2 M^{1.5,3} norm of a 24^4 phase field holds |f| in the
    first stage's rows and the weight, half a complex 24^4 array each."""
    F = noise_field(o.phase_grid(o.make_grid(24, 6.0, 2)), 12)
    stages = o.ModulationSpaceSpec(YoungFunction.power(1.5), YoungFunction.power(3)).stages_for(2)
    spec = MixedNormSpec(stages.stages, Weight.polynomial(1))
    tracemalloc.start()
    try:
        o.mixed_norm(F, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * F.values.nbytes
