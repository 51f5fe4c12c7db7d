import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlicztf import YoungFunction, check_delta2, check_p_steered, closed_power_form, verify, young
from orlicztf.young import _XTOL, _conjugate_argmax, _legendre_argmax

BUILTINS = {
    "power2": YoungFunction.power(2),
    "power3": YoungFunction.power(3),
    "power_scaled": YoungFunction.power_scaled(1.5),
    "cap1": YoungFunction.cap(1.0),
    "entropy": YoungFunction.entropy(),
    "tan_example": YoungFunction.tan_example(),
    "log_example": YoungFunction.log_example(),
}


def test_power_evaluation():
    phi = YoungFunction.power(2)
    assert phi.evaluate(3.0) == 9.0
    assert phi.evaluate(0.0) == 0.0


def test_power_conjugate_closed_form():
    conj = YoungFunction.power(2).conjugate()
    cp = closed_power_form(conj)
    assert cp is not None
    c, p = cp
    assert abs(c - 0.25) < 1e-12 and abs(p - 2.0) < 1e-12
    assert abs(conj.evaluate(2.0) - 1.0) < 1e-10


def test_double_conjugate_power_form():
    cp = closed_power_form(YoungFunction.power(2).conjugate().conjugate())
    assert cp is not None
    assert abs(cp[0] - 1.0) < 1e-12 and abs(cp[1] - 2.0) < 1e-12


def test_cap_conjugate_is_linear():
    conj = YoungFunction.cap(1.0).conjugate()
    ts = np.linspace(0.1, 5.0, 23)
    vals = conj._eval_array(ts)
    assert np.max(np.abs(vals - ts)) < 1e-8


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_vanishes_at_zero_and_monotone(name):
    phi = BUILTINS[name]
    assert phi.evaluate(0.0) == 0.0
    hi = phi.infinity_point()
    top = min(5.0, hi * 0.95) if math.isfinite(hi) else 5.0
    ts = np.linspace(0.0, top, 60)
    vals = phi._eval_array(ts)
    assert np.all(np.isfinite(vals))
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_midpoint_convex(name):
    phi = BUILTINS[name]
    hi = phi.infinity_point()
    top = min(4.0, hi * 0.9) if math.isfinite(hi) else 4.0
    ts = np.linspace(0.0, top, 41)
    vals = phi._eval_array(ts)
    mids = phi._eval_array((ts[:-1] + ts[1:]) / 2.0)
    assert np.all(mids <= (vals[:-1] + vals[1:]) / 2.0 + 1e-10)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_biconjugate_recovers_function(name):
    phi = BUILTINS[name]
    bic = phi.conjugate().conjugate()
    hi = phi.infinity_point()
    top = min(3.0, hi * 0.8) if math.isfinite(hi) else 3.0
    ts = np.linspace(top / 20, top, 20)
    ref = phi._eval_array(ts)
    got = bic._eval_array(ts)
    scale = np.maximum(np.abs(ref), 1e-12)
    assert np.max(np.abs(got - ref) / scale) < 1e-6


@settings(max_examples=40, deadline=None)
@given(s=st.floats(0.0, 6.0), t=st.floats(0.0, 6.0),
       name=st.sampled_from(sorted(BUILTINS)))
def test_product_inequality(s, t, name):
    """s t <= Phi(s) + Phi*(t); infinite right side is trivially fine."""
    phi = BUILTINS[name]
    conj = phi.conjugate()
    lhs = s * t
    rhs = float(phi._eval_array(np.array([s]))[0]) \
        + float(conj._eval_array(np.array([t]))[0])
    if math.isfinite(rhs):
        assert lhs <= rhs * (1 + 1e-9) + 1e-9


def test_log_example_conjugate_small_arguments():
    conj = YoungFunction.log_example().conjugate()
    ts = np.geomspace(1e-3, 1e-1, 9)
    got = conj._eval_array(ts)
    root = np.sqrt(0.25 + ts)
    ref = (ts + 0.5 - root) * np.exp(-(0.5 + root) / ts)
    assert np.max(np.abs(got - ref) / np.maximum(ref, 1e-280)) < 1e-6


def test_essential_inverse_round_trip():
    for phi in (YoungFunction.power(3), YoungFunction.entropy()):
        for s in (0.2, 1.0, 7.5):
            t = phi.essential_inverse(s)
            assert abs(phi.evaluate(t) - s) < 1e-8 * max(1.0, s)


def test_doubling_power_analytic():
    r = check_delta2(YoungFunction.power(3), "global")
    assert r["holds"] and abs(r["constant"] - 8.0) < 1e-12
    assert r["method"] == "analytic"


def test_doubling_entropy_and_tan():
    assert check_delta2(YoungFunction.entropy(), "global")["holds"]
    tan = YoungFunction.tan_example()
    assert not check_delta2(tan, "global")["holds"]
    assert check_delta2(tan, "local", 0.3)["holds"]


def test_steering_verdicts():
    assert check_p_steered(YoungFunction.power(3), 2.0)["steered"]
    assert check_p_steered(YoungFunction.power(2), 2.0)["steered"]
    r = check_p_steered(YoungFunction.entropy(), 2.0)
    assert r["steered"] and r["branch"] == "limsup_infinite"
    assert check_p_steered(YoungFunction.entropy(), 1.0)["steered"]


def test_steering_of_a_function_vanishing_near_zero():
    """cap(1) is 0 on [0, 1], so Phi(t)/t^2 stays bounded near 0 and the
    second branch steers it: t -> Phi(t^(1/2)) is 0 there, hence convex."""
    r = check_p_steered(YoungFunction.cap(1.0), 2.0)
    assert r["steered"] and r["branch"] == "young_after_power"


@pytest.mark.parametrize("p", [1000.0, 2000.0, 1e4])
@pytest.mark.parametrize("kind, branch", [
    ("cap", "young_after_power"), ("power3", "limsup_infinite"),
    ("entropy", "limsup_infinite"), ("tan_example", "limsup_infinite")])
def test_steering_at_exponents_where_top_to_the_p_underflows(kind, branch, p):
    """top^p is 0 in floating point here (0.2475^1000 for cap(0.25)); the
    second branch lays its windows out in log u, so it still answers."""
    phi = YoungFunction.cap(0.25) if kind == "cap" else BUILTINS[kind]
    r = check_p_steered(phi, p)
    assert r["steered"] and r["branch"] == branch
    if branch == "young_after_power":
        assert 0.0 < r["window_top"] <= 0.2475


@pytest.mark.parametrize("p", [1000.0, 2000.0, 1e4])
@pytest.mark.parametrize("kind", ["power3", "entropy", "tan_example"])
def test_steering_at_exponents_where_t_to_the_p_overflows(kind, p):
    """At radius 2 the first branch's grids reach t = 2, and t = 1.555 for
    tan_example (t2 = pi/2), where t^p overflows from p = 2000 on; the
    branch compares t^p / Phi in log space, so no overflow is raised (the
    suite turns one into an error) and Phi(t)/t^p still blows up near 0.
    A power is answered by its exponent."""
    r = check_p_steered(BUILTINS[kind], p, 2.0)
    assert r["steered"] and r["branch"] == "limsup_infinite"


def test_first_steering_branch_keeps_the_direct_verdicts():
    """Wherever t^p is a normal number on both grids of the first branch,
    its verdict is that of Phi compared with t^p itself."""
    funcs = dict(BUILTINS, cap=YoungFunction.cap(0.25),
                 entropy_conj=YoungFunction.entropy().conjugate(),
                 log_conj=YoungFunction.log_example().conjugate())
    tiny = np.finfo(float).tiny
    compared = 0
    for name, phi in funcs.items():
        t2 = phi.infinity_point()
        for radius in (0.1, 0.5, 2.0):
            top = min(radius, t2 * 0.99) if math.isfinite(t2) else radius
            for p in np.geomspace(0.3, 19.0, 12):
                if not (tiny <= 1e-16 ** p and top ** p < math.inf):
                    continue
                direct = young._compare_near_zero(phi._eval_array, lambda t: t ** p, top,
                                                  (closed_power_form(phi), (1.0, p)))
                steered = check_p_steered(phi, p, radius)["branch"] == "limsup_infinite"
                assert steered == (not direct["bounded"]), (name, radius, p)
                compared += 1
    assert compared >= 300


def test_quasi_order_is_derived_from_the_kind():
    """p for a power below 1, 1 otherwise; it is not a constructor argument,
    so a quasi-Young power built by hand cannot be conjugated either."""
    assert YoungFunction("power", {"p": 0.5}).quasi_order == 0.5
    assert YoungFunction.power_scaled(0.25).quasi_order == 0.25
    assert [phi.quasi_order for phi in BUILTINS.values()] == [1.0] * len(BUILTINS)
    for phi in (YoungFunction("power", {"p": 0.5}), YoungFunction.power(0.5)):
        with pytest.raises(ValueError, match="quasi-Young"):
            phi.conjugate()
    with pytest.raises(TypeError):
        YoungFunction("log_example", quasi_order=0.5)


def _u_space_convex(phi, p, top):
    """Test oracle: the second steering branch scanned in u itself, as
    np.geomspace windows under u = top^p, which must be a normal number."""
    u_top = top ** p
    assert u_top >= np.finfo(float).tiny
    for shrink in range(13):
        hi = u_top * 4.0 ** (-shrink)
        us = np.geomspace(hi * 1e-6, hi, 80)
        a, b = us[:-2], us[2:]
        ga = phi._eval_array(a ** (1.0 / p))
        gb = phi._eval_array(b ** (1.0 / p))
        gm = phi._eval_array((0.5 * (a + b)) ** (1.0 / p))
        if np.all(gm <= 0.5 * (ga + gb) + 1e-9 * (np.abs(ga) + np.abs(gb)) + 1e-300):
            return True
    return False


def test_steering_scan_in_log_u_keeps_the_u_space_verdicts():
    """Wherever top^p is a normal number and the first branch is bounded,
    the log-space scan gives the verdict of the scan in u (every built-in
    that reaches it is steered there)."""
    funcs = dict(BUILTINS, cap=YoungFunction.cap(0.25),
                 entropy_conj=YoungFunction.entropy().conjugate())
    compared = 0
    for name, phi in funcs.items():
        t2 = phi.infinity_point()
        for radius in (0.1, 0.5):
            top = min(radius, t2 * 0.99) if math.isfinite(t2) else radius
            for p in np.geomspace(0.3, 400.0, 15):
                r = check_p_steered(phi, p, radius)
                if r["branch"] == "limsup_infinite" or top ** p < np.finfo(float).tiny:
                    continue
                assert r["steered"] == _u_space_convex(phi, p, top), (name, radius, p)
                compared += 1
    assert compared >= 100


@pytest.mark.parametrize("knots, tail", [
    ([(1, 0), (2, 1)], math.inf),
    ([(0, 0), (2, 1), (1, 3)], math.inf),
    ([(0, 0), (1, 2), (2, 3)], math.inf),
    ([(0, 0), (1, 1)], 0.5),
    ([(0, 0), (math.nan, 1), (2, 3)], math.inf),
    ([(0, 0), (1, math.nan), (2, 3)], math.inf),
    ([(0, 0), (1, 1), (2, 3)], math.nan),
], ids=["no-origin", "decreasing-t", "concave", "tail-too-flat", "nan-t", "nan-value",
        "nan-tail"])
def test_table_rejects_bad_knots(knots, tail):
    with pytest.raises(ValueError, match="table"):
        YoungFunction.table(knots, tail_slope=tail)


def test_landmark_points():
    cap = YoungFunction.cap(1.0)
    assert cap.zero_point() == 1.0
    assert cap.infinity_point() == 1.0
    assert math.isinf(YoungFunction.power(2).infinity_point())
    assert YoungFunction.power(2).zero_point() == 0.0


def test_equality_ignores_landmarks():
    """== compares kind, parameters and order only, so power_scaled(1) and
    power(1) stay apart although both are t."""
    assert YoungFunction.entropy().conjugate() == YoungFunction.entropy().conjugate()
    assert YoungFunction.power_scaled(2) == YoungFunction.power_scaled(2.0)
    assert YoungFunction.power_scaled(1) != YoungFunction.power(1)
    assert YoungFunction.power(2) != YoungFunction.power_scaled(2)


def test_doubling_sees_past_half_the_jump_point():
    """Local doubling on (0, r] fails once Phi(2t) = inf while Phi(t) is
    finite; for cap(a) at r = a/2 it holds, since Phi(2t) = 0 there."""
    r = check_delta2(YoungFunction.cap(1.0), "local", 0.5)
    assert r["holds"] and r["constant"] == 1.0
    assert not check_delta2(YoungFunction.cap(1.0), "local", 0.6)["holds"]
    # the conjugate of entropy jumps to inf at t2 = 2 exp(-3/2) = 0.446
    conj = YoungFunction.entropy().conjugate()
    assert 0.0 < conj.evaluate(0.4) < math.inf and conj.evaluate(0.8) == math.inf
    assert not check_delta2(conj, "local", 0.5)["holds"]
    assert check_delta2(conj, "local", 0.2)["holds"]
    assert not check_delta2(YoungFunction.tan_example(), "local", 1.0)["holds"]


@pytest.mark.parametrize("radius", [0.0, -1.0, math.inf, math.nan, None])
def test_growth_checks_need_a_finite_positive_radius(radius):
    phi = YoungFunction.entropy()
    with pytest.raises(ValueError, match="radius"):
        check_delta2(phi, "local", radius)
    if radius is not None:
        with pytest.raises(ValueError, match="radius"):
            check_p_steered(phi, 2.0, radius)


INF = math.inf
E15 = math.exp(-1.5)
# (t1, t2, Phi'(0+), Phi'(inf), sup Phi on [0, t2)), derived by hand
LANDMARKS = {
    "power0.5": (YoungFunction.power(0.5), (0.0, INF, INF, 0.0, INF)),
    "power1": (YoungFunction.power(1), (0.0, INF, 1.0, 1.0, INF)),
    "power2": (YoungFunction.power(2), (0.0, INF, 0.0, INF, INF)),
    "power_scaled0.5": (YoungFunction.power_scaled(0.5), (0.0, INF, INF, 0.0, INF)),
    "power_scaled1": (YoungFunction.power_scaled(1), (0.0, INF, 1.0, 1.0, INF)),
    "power_scaled1.5": (YoungFunction.power_scaled(1.5), (0.0, INF, 0.0, INF, INF)),
    "cap2": (YoungFunction.cap(2.0), (2.0, 2.0, 0.0, INF, 0.0)),
    "entropy": (YoungFunction.entropy(), (0.0, INF, 0.0, 2 * E15, INF)),
    "tan_example": (YoungFunction.tan_example(), (0.0, math.pi / 2, 1.0, INF, INF)),
    "log_example": (YoungFunction.log_example(), (0.0, 1.0, 0.0, INF, INF)),
    "table_finite_tail": (YoungFunction.table(
        [(0, 0), (1, 0.5), (2, 2), (3, 5)], tail_slope=4.0), (0.0, INF, 0.5, 4.0, INF)),
    "table_infinite_tail": (YoungFunction.table(
        [(0, 0), (1, 0), (2, 1), (3, 5)]), (1.0, 3.0, 0.0, INF, 5.0)),
}
# sup Phi* on [0, t2*): the linear tail's intercept where Phi has one
CONJUGATE_SUP = {"power1": 0.0, "power_scaled1": 0.0, "entropy": 0.5 * math.exp(-3.0),
                 "table_finite_tail": 7.0}
LANDMARKS.update({
    "conjugate:" + name: (phi.conjugate(), (s0, s_end, t1, t2, CONJUGATE_SUP.get(name, INF)))
    for name, (phi, (t1, t2, s0, s_end, _)) in LANDMARKS.items() if phi.quasi_order == 1.0})
LANDMARKS["conjugate:conjugate:entropy"] = (
    YoungFunction.entropy().conjugate().conjugate(), LANDMARKS["entropy"][1])


def _landmarks(phi):
    return (phi.zero_point(), phi.infinity_point(), phi.derivative(0.0), phi.sup_slope(),
            phi.sup_value())


@pytest.mark.parametrize("name", sorted(LANDMARKS))
def test_landmark_table(name):
    phi, want = LANDMARKS[name]
    got = _landmarks(phi)
    assert got[:4] == pytest.approx(want[:4], rel=1e-15)
    # a conjugate's sup on [0, t2) is the intercept of its base's linear tail
    assert got[4] == want[4]
    if phi.quasi_order == 1.0:
        t1, t2, s0, s_end, _ = got
        assert _landmarks(phi.conjugate())[:4] == (s0, s_end, t1, t2)


@pytest.mark.parametrize("name", sorted(LANDMARKS))
def test_derivative_at_zero_and_nan(name):
    """Phi'(0) is the landmark Phi'(0+) and Phi'(NaN) is NaN, as scalars and
    inside arrays, for every kind and every conjugate."""
    phi, (_, _, s0, _, _) = LANDMARKS[name]
    assert phi.derivative(0.0) == s0 and math.isnan(phi.derivative(math.nan))
    got = phi.derivative(np.array([0.0, math.nan, 0.0]))
    assert got[0] == got[2] == s0 and math.isnan(got[1])


def test_cap_conjugate_derivative_is_its_slope():
    conj = YoungFunction.cap(2.0).conjugate()
    t = np.array([1e-300, 0.5, 1.0, 10.0, math.inf])
    assert list(conj.derivative(t)) == [2.0] * len(t)
    assert list(conj.evaluate(t)) == list(2.0 * t)


# -- the root finder against the fixed-count bisections it replaced -----------

def _argmax_by_bisection(base, t):
    """argmax_s (s t - Phi(s)) by 140 bisection steps in -log s."""
    t2 = base.infinity_point()
    if math.isfinite(t2):
        s_hi = np.nextafter(t2, 0.0)
    else:
        s_hi = 1.0
        while base.derivative(s_hi) < np.max(t):
            s_hi *= 2.0
    u_lo = np.full(t.shape, -math.log(s_hi))
    u_hi = np.full(t.shape, 740.0)
    for _ in range(140):
        mid = 0.5 * (u_lo + u_hi)
        big = base._deriv_array(np.exp(-mid)) > t
        u_lo = np.where(big, mid, u_lo)
        u_hi = np.where(big, u_hi, mid)
    return np.exp(-0.5 * (u_lo + u_hi))


def _inverse_by_bisection(phi, s):
    """sup{t : Phi(t) <= s} by 120 geometric bisection steps."""
    hi = phi.infinity_point()
    if not math.isfinite(hi):
        hi = 1.0
        while phi.evaluate(hi) <= np.max(s):
            hi *= 2.0
    lo_a = np.full(s.shape, 1e-300)
    hi_a = np.full(s.shape, np.nextafter(hi, 0.0))
    for _ in range(120):
        mid = np.sqrt(lo_a * hi_a)
        le = phi._eval_array(mid) <= s
        lo_a = np.where(le, mid, lo_a)
        hi_a = np.where(le, hi_a, mid)
    return lo_a


TABLES = {
    "table_finite_tail": YoungFunction.table(
        [(0, 0), (1, 0.5), (2, 2), (3, 5)], tail_slope=4.0),
    "table_infinite_tail": YoungFunction.table([(0, 0), (1, 0), (2, 1), (3, 5)]),
}
BASES = {**BUILTINS, **TABLES}
WITH_CONJUGATES = {**BASES, "power0.5": YoungFunction.power(0.5)}
WITH_CONJUGATES.update({"conjugate:" + k: phi.conjugate() for k, phi in BASES.items()})
ARGMAX_BASES = {**BASES, **{"conjugate:" + k: phi.conjugate() for k, phi in BASES.items()}}


def _rel(got, want):
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)


@pytest.mark.parametrize("name", sorted(ARGMAX_BASES))
def test_argmax_matches_bisection(name):
    base = ARGMAX_BASES[name]
    top = min(50.0, 0.99 * base.sup_slope())
    t = np.geomspace(1e-3, top, 37)
    got = _conjugate_argmax(base, t)
    want = _argmax_by_bisection(base, t)
    assert np.max(_rel(got, want)) <= 1e-10
    conj = base.conjugate()
    if conj.kind == "conjugate" and base.kind != "cap":
        vals = np.maximum(want * t - base._eval_array(want), 0.0)
        assert np.max(_rel(conj._eval_array(t), vals)) <= 1e-10


@pytest.mark.parametrize("name", sorted(
    k for k, phi in ARGMAX_BASES.items() if phi.kind == "conjugate"
    and (phi.params["base"].derivative(0.0) == 0 or math.isfinite(phi.sup_slope()))))
def test_argmax_of_a_conjugate_at_the_clamped_ends(name):
    """The argmax of Psi* at t is Psi'(t), clamped to the range the generic
    solve searches: its low end e^-740 where Psi'(t) = 0, and its high end
    past Psi's jump point t2, where Psi'(t) = inf.  The generic solve gives
    the same high end; at the low end it stops in the subnormals, where
    (Psi*)'(s) may underflow to 0 (the entropy closed form s / v)."""
    conj = ARGMAX_BASES[name]
    psi = conj.params["base"]
    t = np.array([0.0, 0.5 * psi.zero_point(), 2.0 * psi.infinity_point()])
    t = t[np.isfinite(t)]
    d = psi.derivative(t)
    keep = (d == 0.0) | (d == math.inf)
    ends, low = t[keep], d[keep] == 0.0
    got, generic = _conjugate_argmax(conj, ends), _legendre_argmax(conj, ends)
    assert ends.size and np.all(got[low] == math.exp(-740.0))
    assert np.all(generic[low] < np.finfo(float).tiny)
    assert list(got[~low]) == list(generic[~low])


@pytest.mark.parametrize("name", ["tan_example", "log_example"])
def test_a_biconjugate_runs_one_root_finder(monkeypatch, name):
    """Psi** takes the argmax of Psi* from Psi' and solves only for Psi* at
    it: one root finder for the whole batch, none nested in another."""
    calls = []
    solve = young._illinois

    def counted_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(young, "_illinois", counted_solve)
    BUILTINS[name].conjugate().conjugate()._eval_array(np.geomspace(1e-3, 10.0, 60))
    assert len(calls) <= 1


@pytest.mark.parametrize("name", sorted(k for k, phi in WITH_CONJUGATES.items()
                                         if phi.sup_value() > 0))
def test_essential_inverse_matches_bisection(name):
    phi = WITH_CONJUGATES[name]
    s0 = phi.sup_value()
    s = np.geomspace(1e-3, 1e3, 31)
    s = s[s < s0]
    got = phi.essential_inverse(s)
    want = _inverse_by_bisection(phi, s)
    assert np.max(_rel(got, want)) <= 1e-10


@pytest.mark.parametrize("s", [1e-300, 1e-100, 1e-20])
def test_essential_inverse_far_from_one_is_exact(s):
    """The solve in log t stops at 4 eps |log t| relative, 5.4e-13 at
    1e-300; the closing Newton step brings tan's inverse to atan."""
    got = YoungFunction.tan_example().essential_inverse(s)
    assert abs(got - math.atan(s)) <= 4.0 * math.ulp(math.atan(s))


def test_essential_inverse_landmarks():
    tan, cap = YoungFunction.tan_example(), YoungFunction.cap(2.0)
    s = np.array([0.0, 1.0, math.inf, math.nan])
    got = tan.essential_inverse(s)
    assert got[0] == 0.0 and got[2] == math.pi / 2 and math.isnan(got[3])
    assert abs(got[1] - math.pi / 4) < 1e-15
    assert list(cap.essential_inverse(s[:3])) == [0.0, 2.0, 2.0]


def _entropy_inverse_oracle(s: float) -> float:
    """The root t of 2 log t + log(-log t) = log s (-t^2 log t = s, below
    the splice e^{-3/2}), bisected in log t with 50-digit decimals."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        log_s = decimal.Decimal(s).ln()
        lo, hi = decimal.Decimal(-800), decimal.Decimal("-1.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            if 2 * mid + (-mid).ln() > log_s:
                hi = mid
            else:
                lo = mid
        return float(lo.exp())


@pytest.mark.parametrize("s", [5e-324, 1e-315, 1e-310, 1e-300, 3.29e-297, 3.56e-276,
                               1e-100, 1e-20, 0.01, 0.07])
def test_entropy_inverse_of_tiny_values(s):
    """The inverse is exact below 1 / DBL_MAX (about 5.6e-309), and raises
    no warning there.  It is as exact on the rest of the branch below the
    splice value 3 e^{-3} / 2."""
    got = YoungFunction.entropy().essential_inverse(s)
    want = _entropy_inverse_oracle(s)
    assert abs(got - want) <= 4.0 * np.spacing(want)


@pytest.mark.parametrize("s", [0.0747, 1.0, 1e3, 1e300])
def test_entropy_inverse_on_the_tangent_line(s):
    """Above the splice value 3 e^{-3} / 2 the inverse is the tangent line's,
    (s + e^{-3} / 2) / (2 e^{-3/2}), to an ulp."""
    got = YoungFunction.entropy().essential_inverse(s)
    want = (s + 0.5 * math.exp(-3.0)) / (2.0 * math.exp(-1.5))
    assert abs(got - want) <= np.spacing(want)


@pytest.mark.parametrize("name, solves", [
    ("entropy", 0), ("tan_example", 1), ("log_example", 1),
    ("table_finite_tail", 1), ("table_infinite_tail", 1), ("conjugate:cap2", 1)])
def test_essential_inverse_runs_at_most_one_root_finder(monkeypatch, name, solves):
    """One generalized inverse answers every s between the landmarks, on
    both sides of 1 / DBL_MAX; the entropy inverse is closed form."""
    phi = {**WITH_CONJUGATES, "conjugate:cap2": YoungFunction.cap(2.0).conjugate()}[name]
    calls = []
    solve = young._illinois

    def counted_solve(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(young, "_illinois", counted_solve)
    phi.essential_inverse(np.array([1e-310, 1.0]))
    assert len(calls) == solves


@pytest.mark.parametrize("name", sorted(k for k, phi in WITH_CONJUGATES.items()
                                         if phi.sup_value() > 0))
def test_essential_inverse_of_tiny_values_is_finite_and_monotone(name):
    """Every kind answers s on both sides of 1 / DBL_MAX, without a warning:
    finite, at least the zero point, nondecreasing in s."""
    phi = WITH_CONJUGATES[name]
    got = phi.essential_inverse(np.array([5e-324, 1e-315, 1e-310, 5.5e-309, 5.6e-309,
                                          1e-300]))
    assert np.all(np.isfinite(got)) and np.all(got >= phi.zero_point())
    assert np.all(np.diff(got) >= 0.0)


@pytest.mark.parametrize("phi", [YoungFunction.power(0.5), YoungFunction.power_scaled(0.5),
                                 YoungFunction.power(1.0 / 3.0)])
def test_power_inverse_past_the_largest_double_is_inf(phi):
    """The power kind's closed-form inverse (s / c)^(1/p) with p < 1
    overflows for large s: it answers inf there, without a warning (the
    test configuration turns one into an error), like every other kind."""
    got = phi.essential_inverse(np.array([1e300, 4.0]))
    assert got[0] == math.inf and math.isfinite(got[1])
    assert phi.essential_inverse(1e300) == math.inf


def test_entropy_conjugate_closed_form_matches_the_generic_path():
    """Where Phi* is a normal float, the Lambert-W closed form of the entropy
    conjugate agrees with the generic Legendre transform to 1e-13, from
    1e-300 up to 1e-15 below the jump point t2*, and so does its argmax."""
    ent = YoungFunction.entropy()
    t2 = ent.sup_slope()
    t = np.append(np.geomspace(1e-300, t2, 2000, endpoint=False),
                  t2 * (1.0 - np.geomspace(1e-9, 1e-15, 7)))
    s = _legendre_argmax(ent, t)
    generic = np.maximum(s * t - ent._eval_array(s), 0.0)
    closed = ent.conjugate()._eval_array(t)
    normal = closed >= np.finfo(float).tiny
    assert normal.sum() > 1000
    assert np.max(_rel(closed[normal], generic[normal])) <= 1e-13
    # the argmax is ill-conditioned at t2*, where Phi'' vanishes; away from
    # it the generic one is good to its bracket, _XTOL max(1, |log s|) in log s
    away = t < 0.99 * t2
    gap = _rel(_conjugate_argmax(ent, t[away]), s[away])
    assert np.all(gap <= 2.0 * _XTOL * np.maximum(1.0, np.abs(np.log(s[away]))))


def test_argmax_at_table_slopes_is_the_far_knot():
    """sup{s : Phi'(s) <= t} when t equals a slope of the table, or sits one
    ulp below the tail slope, where log Phi' - log t rounds to zero."""
    base = TABLES["table_finite_tail"]
    t = np.array([0.5, 1.5, 3.0, np.nextafter(4.0, 0.0)])
    got = _conjugate_argmax(base, t)
    assert np.max(np.abs(got - [1.0, 2.0, 3.0, 3.0])) <= 1e-14
    assert np.all(_rel(got, _argmax_by_bisection(base, t)) <= 1e-10)


def test_table_derivative_is_the_slope_of_each_piece():
    """Phi' of a table is the right slope at each point, the tail's from the
    last knot on; a table of the origin alone is its tail."""
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 10.0])
    got = TABLES["table_finite_tail"].derivative(t)
    assert list(got) == [0.5, 0.5, 1.5, 1.5, 3.0, 4.0, 4.0]
    ray = YoungFunction.table([(0.0, 0.0)], tail_slope=2.0)
    assert list(ray.derivative(t)) == [2.0] * len(t)
    assert ray.evaluate(3.0) == 6.0 and ray.conjugate().evaluate(1.0) == 0.0


def test_biconjugate_at_a_finite_jump_point():
    """Phi**(t2) = Phi(t2) where Phi is finite at its jump point t2: the
    conjugate's linear tail has intercept sup Phi on [0, t2)."""
    cap = YoungFunction.cap(2.0)
    assert cap.conjugate().conjugate().evaluate(2.0) == cap.evaluate(2.0) == 0.0
    table = TABLES["table_infinite_tail"]
    assert table.conjugate().conjugate().evaluate(3.0) == table.evaluate(3.0) == 5.0


# Phi*(t2*) at a finite jump point t2* = Phi'(inf): the intercept of Phi's
# linear tail, e^{-3}/2 for entropy, or Phi's sup on [0, t2) for a biconjugate
JUMP_VALUES = {"entropy": 0.5 * math.exp(-3.0), "table_finite_tail": 7.0,
               "conjugate:table_infinite_tail": 5.0, "conjugate:tan_example": math.inf,
               "conjugate:log_example": math.inf}


@pytest.mark.parametrize("name", sorted(
    k for k, phi in WITH_CONJUGATES.items()
    if phi.quasi_order == 1.0 and phi.conjugate().kind == "conjugate"))
def test_conjugate_at_infinity_and_nan(name):
    """The Legendre transform is inf at inf, NaN at NaN and 0 at 0.  At a
    finite jump point t2* it takes the value of JUMP_VALUES, the left limit
    where that is finite, and inf beyond."""
    conj = WITH_CONJUGATES[name].conjugate()
    got = conj.evaluate(np.array([math.inf, math.nan, 0.0]))
    assert got[0] == math.inf and math.isnan(got[1]) and got[2] == 0.0
    t2 = conj.infinity_point()
    assert math.isfinite(t2) == (name in JUMP_VALUES)
    if math.isfinite(t2):
        left, at, beyond = conj.evaluate(np.array([np.nextafter(t2, 0.0), t2, 2.0 * t2]))
        assert at == JUMP_VALUES[name] and beyond == math.inf
        assert left == pytest.approx(at, rel=1e-14) if math.isfinite(at) else left < at


@pytest.mark.parametrize("depth", [0, 1, 2], ids=["base", "conjugate", "biconjugate"])
@pytest.mark.parametrize("label", [label for label, _ in verify._BUILTINS])
def test_empty_batches_give_empty_arrays(label, depth):
    """An empty batch never enters a root finder's loop: each evaluator
    returns an empty array."""
    phi = dict(verify._BUILTINS)[label]
    for _ in range(depth):
        phi = phi.conjugate()
    for method in ("evaluate", "derivative", "essential_inverse"):
        assert getattr(phi, method)(np.array([])).shape == (0,)
