"""Young functions: evaluation, conjugation, essential inverses, growth classes.

A Young function is a convex nondecreasing Phi: [0, inf] -> [0, inf] with
Phi(0) = 0 and Phi(inf) = inf; the value inf is allowed at finite arguments.
The powers t^p with p in (0, 1) are quasi-Young of order p (Phi(t) =
Phi0(t^p) for a Young Phi0): supported for evaluation and norms, but they
cannot be conjugated.  Every other function has order 1.

Built-in kinds:

    power(p, s)      t^p / s, with s = 1 from power(p) (quasi-Young for
                     p < 1) and s = p from power_scaled(p)
    cap(a)           0 on [0, a], inf beyond
    entropy          -t^2 log t up to the inflection exp(-3/2), then its
                     tangent line 2 exp(-3/2) t - exp(-3)/2
    tan_example      tan t on [0, pi/2), inf beyond
    log_example      0 at 0, -t/log t on (0, 1), inf for t >= 1
    table            convex piecewise-linear interpolant of sorted knots,
                     continued past the last knot with a declared tail slope
    conjugate        Legendre transform of the YoungFunction params["base"]

Each function's landmarks are set once, when it is made: the zero point t1
and the finiteness point t2, the slopes at 0 and at the right end, the
intercept of a linear tail, sup Phi on [0, t2) and the closed power form.
A conjugate takes its base's landmarks swapped: t1* = Phi'(0+) and
t2* = Phi'(inf), and back (Rao and Ren, Theory of Orlicz Spaces, ch. I-II).

The entropy kind is the convexification of -t^2 log t with a tangent
continuation at the inflection point: the raw curve stops being convex at
exp(-3/2), and conjugation/duality need convexity on the whole ray.  Only the
region near the origin carries meaning for the embedding and growth results,
and there the two definitions agree.

A conjugate has one exact evaluator per base, used by norms, inverses and
biconjugates alike: a t for cap(a), a Lambert-W closed form for entropy
(e^{-3}/2 at its jump point 2 exp(-3/2), inf beyond), and else the generic
Legendre transform s t - Phi(s) at the argmax s.  That argmax is read off
for a cap or a table, and for a base that is itself a conjugate Psi* it is
Psi'(t), since (Psi*)' is the generalized inverse of Psi' (Rao and Ren,
ch. I); else the shared root finder solves Phi'(s) = t.  So Psi** costs
one solve, for Psi* at Psi'(t), and no conjugate of any depth nests one
root finder in another.  A conjugate of a conjugate is never replaced by
its base: Psi** is evaluated as a Legendre transform, so the biconjugation
check compares two computations.

The essential inverse Phi^{-&}(s) = sup{t : Phi(t) <= s} and the Legendre
argmax (Phi')^{-&}(t) = sup{s : Phi'(s) <= t} are one operation, the
generalized inverse of a nondecreasing function (Rao and Ren, ch. I), and
one solve of the shared root finder in log t answers both
(_generalized_inverse): one call per essential inverse, between the
landmarks s = 0 and s >= sup Phi, then one Newton step on Phi(t) = s that
removes the solve's |log t| error factor (for a generic conjugate, one
more evaluation and one argmax solve).  The power family and the entropy kind
skip it: the entropy inverse is a Lambert-W closed form below the splice
value 3 e^{-3} / 2 and the tangent line's inverse above it.  Luxemburg
norms are solved in the orlicz layer, with the same root finder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ENTROPY_SPLICE = math.exp(-1.5)
ENTROPY_SLOPE = 2.0 * math.exp(-1.5)
ENTROPY_INTERCEPT = 0.5 * math.exp(-3.0)


def _vectorized(fn, t):
    """fn on the float array of t, as a float when t is a scalar."""
    a = np.asarray(t, dtype=float)
    out = fn(a)
    return float(out) if a.ndim == 0 else out


def _landmark():
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class YoungFunction:
    """One Young (or quasi-Young) function with its landmark data."""

    kind: str
    params: dict = field(default_factory=dict)
    _t1: float = _landmark()
    _t2: float = _landmark()
    _slope0: float = _landmark()
    _slope_end: float = _landmark()
    _intercept: float = _landmark()  # lim (slope_end s - Phi(s)); nan without a linear tail
    _top: float = _landmark()  # sup Phi on [0, t2)
    _power_form: tuple = _landmark()  # (c, p) when Phi(t) = c t^p, else None
    _knots: tuple = _landmark()  # a table's knot t, knot values, and piece slopes, tail last

    def __post_init__(self):
        k, inf = self.kind, math.inf
        marks = {"_t1": 0.0, "_t2": inf, "_slope0": 0.0, "_slope_end": inf,
                 "_intercept": math.nan, "_top": inf, "_power_form": None, "_knots": None}
        if k == "power":
            p, s = self.params.get("p"), self.params.get("s", 1.0)
            if p is None or p <= 0:
                raise ValueError("power kinds need p > 0")
            # p > 1 keeps the default slopes, 0 at 0 and inf at the end
            if p == 1.0:
                marks.update(_slope0=1.0 / s, _slope_end=1.0 / s, _intercept=0.0)
            elif p < 1.0:
                marks.update(_slope0=inf, _slope_end=0.0)
            marks["_power_form"] = (1.0 / s, p)
        elif k == "cap":
            a = self.params.get("a")
            if a is None or a <= 0:
                raise ValueError("cap needs a > 0")
            marks.update(_t1=a, _t2=a, _top=0.0)
        elif k == "entropy":
            marks.update(_slope_end=ENTROPY_SLOPE, _intercept=ENTROPY_INTERCEPT)
        elif k == "tan_example":
            marks.update(_t2=math.pi / 2, _slope0=1.0)
        elif k == "log_example":
            marks.update(_t2=1.0)
        elif k == "table":
            knots = self.params.get("knots")
            if not knots or list(knots[0]) != [0.0, 0.0]:
                raise ValueError("table needs knots starting at (0, 0)")
            ts, vs = np.array(knots, dtype=float).T.copy()
            # written so that a NaN fails each check
            if not np.all(np.diff(ts) > 0):
                raise ValueError("table knots must have strictly increasing t")
            tail = self.params.get("tail_slope", inf)
            steps = np.append(np.diff(vs) / np.diff(ts), tail)
            if not np.all(steps[1:] >= steps[:-1] - 1e-12):
                raise ValueError("table knots and tail slope are not convex")
            nonzero = np.flatnonzero(vs)
            t_end, v_end = float(ts[-1]), float(vs[-1])
            marks.update(_t1=float(ts[nonzero[0] - 1]) if nonzero.size else t_end,
                         _slope0=float(steps[0]), _slope_end=tail,
                         _intercept=tail * t_end - v_end, _knots=(ts, vs, steps))
            if math.isinf(tail):
                marks.update(_t2=t_end, _top=v_end)
        elif k == "conjugate":
            base = self.params.get("base")
            if base is None:
                raise ValueError("conjugate kind needs a base function")
            marks.update(_t1=base._slope0, _t2=base._slope_end, _slope0=base._t1,
                         _slope_end=base._t2)
            # Phi* reaches t2* = Phi'(inf) with the intercept of Phi's linear
            # tail, and its own tail has intercept sup Phi on [0, t2)
            if math.isfinite(base._slope_end):
                marks["_top"] = base._intercept
            if math.isfinite(base._t2):
                marks["_intercept"] = base._top
            if base._power_form is not None and base._power_form[1] > 1.0:
                c, p = base._power_form
                pp = p / (p - 1.0)
                marks["_power_form"] = ((c * p) ** (-pp / p) / pp, pp)
        else:
            raise ValueError(f"unknown Young function kind: {k!r}")
        for name, value in marks.items():
            object.__setattr__(self, name, value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def power(p: float) -> "YoungFunction":
        return YoungFunction("power", {"p": float(p)})

    @staticmethod
    def power_scaled(p: float) -> "YoungFunction":
        """t^p / p: the power kind with divisor s = p."""
        return YoungFunction("power", {"p": float(p), "s": float(p)})

    @staticmethod
    def cap(a: float = 1.0) -> "YoungFunction":
        return YoungFunction("cap", {"a": float(a)})

    @staticmethod
    def entropy() -> "YoungFunction":
        return YoungFunction("entropy")

    @staticmethod
    def tan_example() -> "YoungFunction":
        return YoungFunction("tan_example")

    @staticmethod
    def log_example() -> "YoungFunction":
        return YoungFunction("log_example")

    @staticmethod
    def table(knots, tail_slope=math.inf) -> "YoungFunction":
        knots = [[float(t), float(v)] for t, v in knots]
        return YoungFunction(
            "table", {"knots": knots, "tail_slope": float(tail_slope)}
        )

    # -- landmarks ---------------------------------------------------------

    def zero_point(self) -> float:
        """t1 = sup of the zero set {t : Phi(t) = 0}."""
        return self._t1

    def infinity_point(self) -> float:
        """t2 = sup of the finiteness set {t : Phi(t) < inf}."""
        return self._t2

    def sup_value(self) -> float:
        """s0 = sup of Phi over [0, t2)."""
        return self._top

    def sup_slope(self) -> float:
        """Limiting slope at the right end (the jump point of the conjugate)."""
        return self._slope_end

    @property
    def quasi_order(self) -> float:
        """q in (0, 1] with Phi(t) / t^q nondecreasing: p for a power below 1
        (a quasi-Young function), 1 for every other function."""
        return min(self.params["p"], 1.0) if self.kind == "power" else 1.0

    # -- evaluation --------------------------------------------------------

    def evaluate(self, t):
        """Phi(t), vectorized; accepts scalars or arrays of nonnegative reals."""
        return _vectorized(self._eval_array, t)

    def _eval_array(self, t: np.ndarray) -> np.ndarray:
        k = self.kind
        t = np.asarray(t, dtype=float)
        if k == "power":
            with np.errstate(over="ignore"):
                return np.power(t, self.params["p"]) / self.params.get("s", 1.0)
        if k == "cap":
            return np.where(t <= self.params["a"], 0.0, np.where(np.isnan(t), np.nan, np.inf))
        if k == "entropy":
            safe = np.where(t > 0, t, 1.0)
            small = -t * t * np.log(safe)
            big = ENTROPY_SLOPE * t - ENTROPY_INTERCEPT
            return np.where(t <= ENTROPY_SPLICE, np.where(t > 0, small, 0.0), big)
        if k == "tan_example":
            out = np.where(np.isnan(t), np.nan, np.inf)
            m = t < math.pi / 2
            out[m] = np.tan(t[m])
            return out
        if k == "log_example":
            out = np.where(np.isnan(t), np.nan, np.inf)
            out[t <= 0] = 0.0
            m = (t > 0) & (t < 1)
            tm = t[m]
            out[m] = -tm / np.log(tm)
            return out
        if k == "table":
            ts, vs, _ = self._knots
            tail = self._slope_end
            out = np.interp(t, ts, vs)
            beyond = t > ts[-1]
            if math.isinf(tail):
                out = np.where(beyond, np.inf, out)
            else:
                out = np.where(beyond, vs[-1] + tail * (t - ts[-1]), out)
            return out
        if k == "conjugate":
            return _conjugate_eval(self.params["base"], t)
        raise AssertionError(k)

    def derivative(self, t):
        """Right derivative Phi'(t) on the finiteness interval, vectorized:
        the landmark Phi'(0+) at 0 and NaN at NaN, for every kind."""
        return _vectorized(self._deriv_array, t)

    def _deriv_array(self, t: np.ndarray) -> np.ndarray:
        slope = np.where(np.isnan(t), np.nan, self._slope_array(t))
        return np.where(t == 0, self._slope0, slope)

    def _slope_array(self, t: np.ndarray) -> np.ndarray:
        k = self.kind
        if k == "power":
            p = self.params["p"]
            with np.errstate(over="ignore", divide="ignore"):
                return p / self.params.get("s", 1.0) * np.power(t, p - 1.0)
        if k == "cap":
            return np.where(t < self.params["a"], 0.0, np.inf)
        if k == "entropy":
            safe = np.where(t > 0, t, 1.0)
            small = np.where(t > 0, -2.0 * t * np.log(safe) - t, 0.0)
            return np.where(t <= ENTROPY_SPLICE, small, ENTROPY_SLOPE)
        if k == "tan_example":
            out = np.full(t.shape, np.inf)
            m = t < math.pi / 2
            out[m] = 1.0 / np.cos(t[m]) ** 2
            return out
        if k == "log_example":
            out = np.full(t.shape, np.inf)
            out[t <= 0] = 0.0
            m = (t > 0) & (t < 1)
            u = -np.log(t[m])
            out[m] = (1.0 + u) / (u * u)
            return out
        if k == "table":
            ts, _, steps = self._knots
            return steps[np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)]
        if k == "conjugate":
            # derivative of the Legendre transform is the argmax map
            return _conjugate_argmax(self.params["base"], t)
        raise AssertionError(k)

    # -- conjugation -------------------------------------------------------

    def conjugate(self) -> "YoungFunction":
        """Legendre transform sup_s (s t - Phi(s)) as a YoungFunction.

        Raises for quasi-Young functions (order < 1): the transform of a
        non-convex function is not an inverse-pair partner.
        """
        if self.quasi_order < 1.0:
            raise ValueError("conjugate of a quasi-Young function (order < 1) is undefined")
        k = self.kind
        if k == "power":
            p, s = self.params["p"], self.params.get("s", 1.0)
            if p == 1.0 and s == 1.0:
                return YoungFunction.cap(1.0)
            if s == p:
                return YoungFunction.power_scaled(p / (p - 1.0))
        if k == "cap" and self.params["a"] == 1.0:
            return YoungFunction.power(1.0)
        return YoungFunction("conjugate", {"base": self})

    # -- essential inverse -------------------------------------------------

    def essential_inverse(self, s):
        """Phi^{-&}(s) = sup{t : Phi(t) <= s}, with the convention 0 at s = 0."""
        return _vectorized(self._inverse_array, s)

    def _inverse_array(self, s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        cp = closed_power_form(self)
        if cp is not None:
            c, p = cp
            # past the largest double the closed form is inf, as it should be
            with np.errstate(over="ignore"):
                return np.power(s / c, 1.0 / p)
        # the landmarks settle s = 0 and s >= sup Phi; in between, the
        # generalized inverse of Phi
        s0 = self.sup_value()
        out = np.where(s >= s0, self.infinity_point(), np.nan)
        out[s == 0] = 0.0
        solve = (s > 0) & (s < s0)
        if self.kind == "entropy":
            out[solve] = _entropy_inverse(s[solve])
        else:
            t1, t2 = self.zero_point(), self.infinity_point()
            y = s[solve]
            t = _generalized_inverse(
                self._eval_array, y, math.log(t1) if t1 > 0 else -math.inf,
                math.log(t2) if math.isfinite(t2) else _LOG_LARGEST, self.quasi_order)
            # the solve stops at 4 eps |log t| relative; one Newton step on
            # Phi(t) = y closes that gap where it lands inside the same band
            with np.errstate(all="ignore"):
                slope = self._deriv_array(t)
                step = t - (self._eval_array(t) - y) / slope
                band = _XTOL * np.maximum(1.0, np.abs(np.log(t))) * t
            good = np.isfinite(slope) & (slope > 0) & (np.abs(step - t) <= band)
            out[solve] = np.where(good, step, t)
        return out


# -- the root finder -----------------------------------------------------------

_XTOL = 4.0 * np.finfo(float).eps
_MAX_STEPS = 300
_LOG_SMALLEST = -740.0  # exp(-740) is about 4e-322, a subnormal double
_LOG_LARGEST = math.log(np.finfo(float).max)
_TINY = np.finfo(float).tiny


def _illinois(F, x0, x_min, x_max, slope, *data):
    """sup{x in [x_min, x_max] : F(x) <= 0} row by row, for F nondecreasing
    in x; x_min where F > 0 on the whole interval.  Where F vanishes on a
    whole interval, the first point found with F(x) == 0 is returned.

    F(x, *data) evaluates the rows of `data` (arrays sharing axis 0) that
    are still in play at the points x, one point per row, with floating
    point warnings off; NaN counts as <= 0.  The search starts at x0.
    While a row knows only one end of its bracket it steps outward: by
    -F / slope when F is known to rise at least `slope` per unit of x (then
    the step is sure to cross), else by doubling steps.  With both ends
    known each step is regula falsi with the Illinois halving of the value
    of an end kept twice in a row (Dowell and Jarratt 1971).  It is
    replaced by a bisection step when an end value is not finite, when F
    came back equal to the value kept at the same end (F is flat there, as
    for tables, and the secant has nothing to go on), or when the bracket
    has not halved in three steps (as in Brent 1973).  A row leaves the
    loop once its bracket is within a few ulps of max(1, |x|), and its
    answer is the F <= 0 end.  Raises RuntimeError after _MAX_STEPS
    evaluations rather than return an open bracket.
    """
    x = np.asarray(x0, dtype=float)
    n = x.shape[0]
    if n == 0:
        return np.empty(0)
    x_min = np.broadcast_to(np.asarray(x_min, dtype=float), (n,))
    x_max = np.broadcast_to(np.asarray(x_max, dtype=float), (n,))
    x = np.minimum(np.maximum(x, x_min), x_max)
    root = np.empty(n)
    idx = np.arange(n)
    lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
    g_lo, g_hi = np.full(n, -np.inf), np.full(n, np.inf)  # F at the ends, Illinois-scaled
    step, ref, since = np.ones(n), np.full(n, np.inf), np.zeros(n)
    last_lo = np.zeros(n, dtype=bool)
    bracketed = False
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(_MAX_STEPS):
            fx = F(x, *data)
            le = ~(fx > 0)
            flat = fx == np.where(le, g_lo, g_hi)
            # Illinois: the value of an end kept for a second step running halves
            half = np.where(le == last_lo, 0.5, 1.0)
            last_lo = le
            g_lo, g_hi = np.where(le, fx, half * g_lo), np.where(le, half * g_hi, fx)
            # a point at x_max with F <= 0, or at x_min with F > 0, closes
            # the bracket on itself
            lo = np.where(le | (x <= x_min), x, lo)
            hi = np.where(le & (x < x_max), hi, x)
            width = hi - lo
            tol = _XTOL * np.maximum(1.0, np.abs(x))
            done = (width <= tol) | (fx == 0)
            if done.any():
                root[idx[done]] = lo[done]
                keep = ~done
                if not keep.any():
                    return root
                (idx, lo, hi, g_lo, g_hi, step, ref, since, last_lo, flat, x_min, x_max,
                 width, tol) = (v[keep] for v in (
                    idx, lo, hi, g_lo, g_hi, step, ref, since, last_lo, flat, x_min, x_max,
                    width, tol))
                data = tuple(d[keep] for d in data)

            halved = width <= 0.5 * ref
            ref = np.where(halved, width, ref)
            since = np.where(halved, 0.0, since + 1.0)
            span = g_hi - g_lo
            secant = np.isfinite(span) & ~flat & (since < 3.0)
            x = np.where(secant, lo - g_lo * (width / span), 0.5 * (lo + hi))
            # the secant point lies in the bracket up to rounding; the clip
            # also keeps each step at least half a tolerance off the ends
            half_tol = 0.5 * tol
            x = np.minimum(np.maximum(x, lo + half_tol), hi - half_tol)

            if not bracketed:
                up, down = np.isinf(hi), np.isinf(lo)
                bracketed = not (up.any() or down.any())
                known = np.where(up, -g_lo, g_hi)
                by_slope = np.isfinite(known) & (slope > 0)
                reach = np.where(by_slope, known / (slope or 1.0), step) + tol
                step = np.where(by_slope, step, 2.0 * step)
                x = np.where(up, np.minimum(lo + reach, x_max), x)
                x = np.where(down, np.maximum(hi - reach, x_min), x)
    raise RuntimeError(f"root finder did not converge in {_MAX_STEPS} steps")


def _generalized_inverse(fn, y, x_min: float, x_max: float, slope: float) -> np.ndarray:
    """sup{t = e^x : x in [x_min, x_max], fn(t) <= y} for a nondecreasing fn
    of arrays, elementwise in the array y, and e^x_min where fn(t) > y on the
    whole range: the one solve behind the essential inverse Phi^{-&}(s) and
    the Legendre argmax (Phi')^{-&}(t).

    The shared root finder runs on log fn(e^x) - log y from x = log y; the
    difference of logs can round to 0 either way, so its sign is taken from
    fn(t) > y.  `slope` is a rate at which log fn(e^x) is known to rise,
    or 0 for none (see _illinois)."""
    y = np.asarray(y, dtype=float)
    ys = y.reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_y = np.log(ys)
    x0 = np.where(np.isfinite(log_y), log_y, 0.0)

    def gap(x, log_y, y):
        v = fn(np.exp(x))
        g = np.log(v) - log_y
        return np.where(v > y, np.maximum(g, _TINY), np.minimum(g, 0.0))

    return np.exp(_illinois(gap, x0, x_min, x_max, slope, log_y, ys)).reshape(y.shape)


# -- closed forms and conjugate evaluation -------------------------------------


def _log1p_root(c: np.ndarray) -> np.ndarray:
    """The root y >= 0 of log1p(y) - y = c <= 0, to a few ulps: two Halley
    steps from the branch-point series y = p + p^2/3 + p^3/36,
    p = sqrt(-2c), where c > -2, else from 1 + y = a + log a + log(a) / a
    with a = 1 - c (Corless, Gonnet, Hare, Jeffrey and Knuth, "On the
    Lambert W function", Adv. Comput. Math. 5, 1996)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.sqrt(-2.0 * c)
        a = 1.0 - c
        log_a = np.log(a)
        y = np.where(c > -2.0, p * (1.0 + p * (1.0 / 3.0 + p / 36.0)),
                     a + log_a + log_a / a - 1.0)
        for _ in range(2):
            g = np.log1p(y) - y - c
            y = y + 2.0 * g * y * (1.0 + y) / (2.0 * y * y + g)
    return y


def _entropy_inverse(s: np.ndarray) -> np.ndarray:
    """Phi^{-&}(s) for the entropy Phi and 0 < s < inf, in closed form.
    Below the splice value Phi(e^{-3/2}) = 3 e^{-3} / 2, t^2 log(1/t) = s
    with v = -2 log t is v - log v = -log(2 s), in y = v - 1 the equation of
    _log1p_root with c = log(2 s) + 1, and t = sqrt(2 s) / sqrt(v); above
    it t is on the tangent line, (s + e^{-3} / 2) / (2 e^{-3/2})."""
    small = s < 3.0 * ENTROPY_INTERCEPT
    sm = s[small]
    v = 1.0 + _log1p_root(np.log(2.0 * sm) + 1.0)
    out = (s + ENTROPY_INTERCEPT) / ENTROPY_SLOPE
    out[small] = np.sqrt(2.0 * sm) / np.sqrt(v)
    return out


def _entropy_legendre(s: np.ndarray):
    """(argmax, value) of sup_t (s t - Phi(t)) for the entropy kind, s in
    [0, t2*) with t2* = Phi'(inf) = 2 exp(-3/2): s / v and
    (s / v)^2 (v - 1) / 2 = e^{-(1+v)} (v - 1) / 2, where v = -(2 log t + 1)
    at the argmax t, so that v / 2 = -W_{-1}(-s sqrt(e) / 2).  In
    y = v / 2 - 1 that is log1p(y) - y = c with c = log(s / t2*), free of
    the underflow of W's own equation at small s (_log1p_root).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.log(np.maximum(s, _TINY) / ENTROPY_SLOPE)
    v = 2.0 + 2.0 * _log1p_root(c)
    t = s / v
    return t, t * (0.5 * (v - 1.0) * t)


def _log_argmax_cap(base: YoungFunction) -> float:
    """log of the largest argmax s searched: the last double below the
    jump point t2, or DBL_MAX."""
    t2 = base.infinity_point()
    return math.log(np.nextafter(t2, 0.0)) if math.isfinite(t2) else _LOG_LARGEST


def _legendre_argmax(base: YoungFunction, t: np.ndarray) -> np.ndarray:
    """argmax_s (s t - Phi(s)) = sup{s : Phi'(s) <= t} for any base, over s
    from about 1e-321 up to the last point where Phi is finite: the
    generalized inverse of Phi'.  Phi' may be flat, jump or vanish (zero
    sets, conjugates of tables), so there is no slope bound; a zero of Phi'
    gives -inf and steps by bisection."""
    return _generalized_inverse(base._deriv_array, t, _LOG_SMALLEST, _log_argmax_cap(base), 0.0)


def _conjugate_argmax(base: YoungFunction, t: np.ndarray) -> np.ndarray:
    """Phi*'(t) = argmax_s (s t - Phi(s)) = (Phi')^{-&}(t), read off where a
    closed form exists: a for cap(a), whose conjugate is a t; the entropy
    closed form (every s once t reaches Phi'(inf)); for a table, whose Phi'
    is a step function, the knot that starts the first piece steeper than
    t (where t equals a slope the generic solve would return the near knot,
    not the far one); for a conjugate Phi = Psi*, Psi'(t), since
    sup{s : (Psi*)'(s) <= t} = Psi'(t) for right derivatives (Rao and Ren,
    ch. I), clamped to the range the generic solve searches, [e^-740, the
    largest s below t2*], so that no conjugate of any depth nests one root
    finder in another.  Else the generalized inverse of Phi',
    `_legendre_argmax`."""
    t = np.asarray(t, dtype=float)
    if base.kind == "conjugate":
        s_max = math.exp(_log_argmax_cap(base))
        return np.clip(base.params["base"]._deriv_array(t), math.exp(_LOG_SMALLEST), s_max)
    if base.kind == "cap":
        return np.full(t.shape, base.params["a"])
    if base.kind == "entropy":
        return np.where(t >= ENTROPY_SLOPE, math.exp(_LOG_LARGEST), _entropy_legendre(t)[0])
    if base.kind == "table":
        ts, _, steps = base._knots
        ends = np.append(ts, min(base.infinity_point(), math.exp(_LOG_LARGEST)))
        return np.maximum(ends[np.searchsorted(steps, t, side="right")],
                          math.exp(_LOG_SMALLEST))
    return _legendre_argmax(base, t)


def _conjugate_eval(base: YoungFunction, t: np.ndarray) -> np.ndarray:
    """Phi*(t) = sup_s (s t - Phi(s)): below Phi'(inf) the entropy closed
    form, else max(s t - Phi(s), 0) at the argmax s (for cap(a) the argmax
    is a, which gives a t); at Phi'(inf) the intercept of Phi's linear tail,
    and inf past it."""
    t = np.asarray(t, dtype=float)
    ss = base.sup_slope()
    out = np.where(np.isnan(t), np.nan, np.inf)
    finite = t < ss
    tf = t[finite]
    if base.kind == "entropy":
        out[finite] = _entropy_legendre(tf)[1]
    else:
        sstar = _conjugate_argmax(base, tf)
        out[finite] = np.maximum(sstar * tf - base._eval_array(sstar), 0.0)
    if math.isfinite(ss):
        out[t == ss] = base._intercept
    return out


def log_example_conjugate(t):
    """The closed form of the log_example conjugate, an oracle for its
    generic Legendre transform: (t + 1/2 - r) e^{-(1/2 + r)/t} with
    r = sqrt(1/4 + t), vectorized.  It is 0 for t <= 0, the t -> 0 limit,
    and inf at t = inf, where the formula reads inf - inf."""

    def form(t):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.sqrt(0.25 + t)
            out = (t + 0.5 - r) * np.exp(-(0.5 + r) / t)
        return np.where(t <= 0, 0.0, np.where(t == np.inf, np.inf, out))

    return _vectorized(form, t)


def closed_power_form(phi: YoungFunction):
    """(c, p) when Phi(t) = c t^p exactly, else None.

    Covers the power kind and conjugates of such (iterated conjugation
    included), so norm code can bypass the root finder for the whole family.
    """
    return phi._power_form


# -- growth classification ---------------------------------------------------


def _grid_sup(num, den, lo: float, hi: float, n: int) -> float:
    t = np.geomspace(lo, hi, n)
    a = np.asarray(num(t), dtype=float)
    b = np.asarray(den(t), dtype=float)
    keep = (a != 0) | (b != 0)
    a, b = a[keep], b[keep]
    if np.any((b == 0) & (a > 0)):
        return math.inf
    with np.errstate(over="ignore", divide="ignore"):
        r = a / b
    return float(np.max(r[np.isfinite(a)], initial=0.0))


# the smallest radius a near-origin comparison takes: its grids start at
# 1e-8 and 1e-16, and a radius below them would be read past r
_MIN_RADIUS = 1e-8


def _compare_near_zero(num, den, r: float, forms) -> dict:
    """Is num(t) <= C den(t) on (0, r]?  The one comparison behind the
    doubling, steering, lower-growth, inverse-product and embedding checks.

    forms holds the power forms (c, e), num = c t^e, of num and den, or None
    in either place.  With both, exponent arithmetic answers: bounded iff
    e_num >= e_den, with C = (c_num / c_den) r^(e_num - e_den).  Otherwise
    C is the sup of num/den on 120 geometric points in [1e-16, r], and
    "bounded" requires it to be finite and at most 1.25 times the sup on 60
    points in [1e-8, r], so that pushing the grid toward 0 does not raise
    it.  Points where both sides vanish are left out (any C holds there), as
    are points where num is inf over a positive den: only the neighbourhood
    of 0 matters, and a caller that cares about such a jump decides it
    from the landmarks.
    A radius that is not finite and at least _MIN_RADIUS raises ValueError.
    """
    if not _MIN_RADIUS <= r < math.inf:
        raise ValueError(f"comparison radius {r:g} is not in [{_MIN_RADIUS:g}, inf)")
    fn, fd = forms
    if fn is not None and fd is not None:
        ok = fn[1] >= fd[1]
        return {"bounded": bool(ok),
                "constant": fn[0] * r ** (fn[1] - fd[1]) / fd[0] if ok else math.inf,
                "method": "analytic"}
    coarse = _grid_sup(num, den, 1e-8, r, 60)
    fine = _grid_sup(num, den, 1e-16, r, 120)
    bounded = math.isfinite(fine) and fine <= 1.25 * coarse + 1e-300
    return {"bounded": bool(bounded), "constant": fine, "method": "grid"}


def check_delta2(phi: YoungFunction, scope: str = "global", radius: float | None = None) -> dict:
    """Doubling condition Phi(2t) <= C Phi(t), globally or on (0, radius].

    Where Phi(2t) jumps to inf while Phi(t) is finite the condition fails,
    and the landmarks say whether that happens: globally iff t2 is finite,
    on (0, radius] iff Phi(2 radius) = inf.  Otherwise `_compare_near_zero`
    decides on (0, radius], or on (0, 1e8] globally: C = 2^p for a power,
    else the sup over its one geometric grid, which must not grow when the
    grid is pushed toward 0.  Phi(2t) >= Phi(t), so C is at least 1.
    """
    if scope not in ("global", "local"):
        raise ValueError("scope must be 'global' or 'local'")
    if scope == "local" and not (radius is not None and 0 < radius < math.inf):
        raise ValueError("local scope needs a finite positive radius")
    t2 = phi.infinity_point()
    if scope == "global":
        jumps, upper = math.isfinite(t2), 1e8
    else:
        # Phi is finite below t2 and inf above it; at t2 itself it may be either
        jumps = 2.0 * radius >= t2 and phi.evaluate(2.0 * radius) == math.inf
        upper = radius
    if jumps:
        verdict = {"bounded": False, "constant": math.inf, "method": "analytic"}
    else:
        cp = closed_power_form(phi)
        forms = (None, None) if cp is None else ((cp[0] * 2.0 ** cp[1], cp[1]), cp)
        verdict = _compare_near_zero(lambda t: phi._eval_array(2.0 * t), phi._eval_array,
                                     upper, forms)
    return {
        "holds": verdict["bounded"],
        "constant": max(verdict["constant"], 1.0),
        "scope": scope,
        "radius": radius,
        "method": verdict["method"],
    }


def check_p_steered(phi: YoungFunction, p: float, radius: float = 0.5) -> dict:
    """Steering test: either Phi(t)/t^p blows up along t -> 0, or
    t -> Phi(t^{1/p}) is midpoint-convex near the origin.

    The first branch is `_compare_near_zero` of Phi against t^p, which
    answers a power c t^e by its exponent.  Any other Phi is compared as
    [Phi > 0] against t^p / Phi, formed in log space: t^p alone overflows
    past t = 1 and underflows near 0 once p is large, where t^p / Phi
    leaves the range only where Phi / t^p is 0 or inf to double precision.
    Returns which branch fired; both failing means not steered.  The
    second branch reports the top of the window it found convex as a point
    t, "window_top".
    """
    if p <= 0 or not math.isfinite(p):
        raise ValueError("steering exponent must be finite and positive")
    if not (0 < radius < math.inf):
        raise ValueError("steering radius must be finite and positive")
    t2 = phi.infinity_point()
    top = min(radius, t2 * 0.99) if math.isfinite(t2) else radius

    def power_over_phi(t):
        with np.errstate(divide="ignore", over="ignore"):
            return np.exp(p * np.log(t) - np.log(phi._eval_array(t)))

    # Phi is finite on (0, top], below t2
    ratio = _compare_near_zero(lambda t: (phi._eval_array(t) > 0) * 1.0, power_over_phi, top,
                               (closed_power_form(phi), (1.0, p)))
    if not ratio["bounded"]:
        return {"steered": True, "branch": "limsup_infinite", "p": p, "radius": radius}

    # branch two: Phi(u^{1/p}) midpoint-convex on some neighborhood of u = 0;
    # scan dyadically shrinking windows, since "near the origin" only asks
    # for one of them to work.  The windows are laid out in log u, because
    # u = top^p underflows once p is large: t = exp(log u / p), and the
    # midpoint (a + b)/2 is logaddexp(log a, log b) - log 2
    log_top = p * math.log(top)
    for shrink in range(0, 13):
        log_hi = log_top - shrink * math.log(4.0)
        lu = np.linspace(log_hi - 6.0 * math.log(10.0), log_hi, 80)
        la, lb = lu[:-2], lu[2:]
        lm = np.logaddexp(la, lb) - math.log(2.0)
        ga = phi._eval_array(np.exp(la / p))
        gb = phi._eval_array(np.exp(lb / p))
        gm = phi._eval_array(np.exp(lm / p))
        tol = 1e-9 * (np.abs(ga) + np.abs(gb)) + 1e-300
        if bool(np.all(gm <= 0.5 * (ga + gb) + tol)):
            return {
                "steered": True,
                "branch": "young_after_power",
                "p": p,
                "radius": radius,
                # in t, where it neither underflows nor overflows
                "window_top": top * 4.0 ** (-shrink / p),
            }
    return {"steered": False, "branch": None, "p": p, "radius": radius}
