"""Named verification battery.

Each criterion runs one quantitative check end to end.  Its body returns
(value, tolerance, passed, details); the `_criterion` decorator times the
call and turns that into the uniform record
{name, value, tolerance, passed, timing_ms, details}, named after the
function.  The registry at the bottom, CRITERIA, lists each criterion
function once, as (name, function) pairs, and drives both the test suite
and the command-line `verify` subcommand, so the two always agree on what
was checked.  It is read at call time, so a tracer can swap in wrapped
criteria.  The product and convolution inequalities of the Orlicz norms
share one verifier (_inequalities), which draws its random rows once.
"""

from __future__ import annotations

import functools
import itertools
import math
import time

import numpy as np

from . import orlicz, psido
from .entropy import gaussian_family_scan, lambda_family_table, lieb_bound_check
from .field import (
    Field,
    inner_product,
    l2_norm,
    make_gaussian,
    make_gaussian_mix,
    make_grid,
    make_hermite,
    make_noise,
    make_random_bandlimited,
    phase_grid,
)
from .modspace import (
    ModulationSpaceSpec,
    check_embedding,
    check_pseudo_hypotheses,
)
from .tfa import quantization_change, stft, stft_adjoint, stft_projection, twisted_convolution, wigner
from .young import YoungFunction, _legendre_argmax, log_example_conjugate


_SEED = 42  # every random draw of the battery starts from this seed


def _criterion(fn):
    """Time a criterion body returning (value, tolerance, passed, details)
    and build its record, named after the function."""

    @functools.wraps(fn)
    def record(*args, **kwargs) -> dict:
        t0 = time.perf_counter()
        value, tolerance, passed, details = fn(*args, **kwargs)
        return {
            "name": fn.__name__,
            "value": value,
            "tolerance": tolerance,
            "passed": bool(passed),
            "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            "details": details,
        }

    return record


# -- 1 ---------------------------------------------------------------------


@_criterion
def moyal_isometry(n: int = 256, half_extent: float = 12.0, trials: int = 100,
                   seed: int = _SEED, tol: float = 1e-8):
    """|V_phi f|_2 equals |f|_2 |phi|_2 for random fields, Gaussian window."""
    g = make_grid(n, half_extent)
    phi = make_gaussian(g, 1.0)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f = make_noise(g, rng)
        target = l2_norm(f) * l2_norm(phi)
        worst = max(worst, abs(l2_norm(stft(f, phi)) - target) / target)
    return worst, tol, worst <= tol, dict(trials=trials, n=n,
                                          half_extent=half_extent, seed=seed)


# -- 2 ---------------------------------------------------------------------


@_criterion
def gaussian_stft_closed_form(n: int = 256, half_extent: float = 12.0):
    """STFT of the unit Gaussian against its closed form."""
    g = make_grid(n, half_extent)
    phi = make_gaussian(g, 1.0)
    V = stft(phi, phi)
    x, xi = V.grid.mesh()
    target = (2.0 * math.pi) ** -0.5 * np.exp(-1j * x * xi / 2.0) * np.exp(
        -(x**2 + xi**2) / 4.0
    )
    worst = float(np.abs(V.values - target).max())
    return worst, 1e-8, worst <= 1e-8, dict(n=n, half_extent=half_extent)


# -- 3 ---------------------------------------------------------------------


@_criterion
def stft_inversion_projection(n: int = 256, half_extent: float = 12.0, trials: int = 10):
    """Adjoint inversion of the STFT and idempotence of the range projection
    (the projection is applied, never formed as a matrix)."""
    g = make_grid(n, half_extent)
    phi = make_gaussian(g, 1.0)
    scale = l2_norm(phi) ** -2
    rng = np.random.default_rng(_SEED)
    worst_inv = 0.0
    for _ in range(trials):
        f = make_noise(g, rng)
        rec = stft_adjoint(stft(f, phi), phi)
        err = l2_norm(Field(g, scale * rec.values - f.values)) / l2_norm(f)
        worst_inv = max(worst_inv, err)
    pg = phase_grid(g)
    worst_proj = 0.0
    for _ in range(trials):
        F = make_noise(pg, rng)
        PF = stft_projection(F, phi)
        PPF = stft_projection(PF, phi)
        err = l2_norm(Field(pg, PPF.values - PF.values)) / l2_norm(F)
        worst_proj = max(worst_proj, err)
    worst = max(worst_inv, worst_proj)
    return worst, 1e-8, worst <= 1e-8, dict(inversion=worst_inv, projection=worst_proj,
                                            trials=trials, seed=_SEED)


# -- 4 ---------------------------------------------------------------------


@_criterion
def twisted_reproducing(n: int = 64, half_extent: float = 8.0, trials: int = 3):
    """V_phi phi twisted-convolved with V_phi f reproduces |phi|^2 V_phi f."""
    g = make_grid(n, half_extent)
    phi = make_gaussian(g, 1.0)
    Vphi = stft(phi, phi)
    scale = l2_norm(phi) ** -2
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for i in range(trials):
        f = make_gaussian_mix(g, _SEED + i) if i else make_noise(g, rng)
        V = stft(f, phi)
        R = twisted_convolution(Vphi, V)
        err = float(np.abs(scale * R.values - V.values).max() / np.abs(V.values).max())
        worst = max(worst, err)
    return worst, 1e-6, worst <= 1e-6, dict(n=n, half_extent=half_extent,
                                            trials=trials, seed=_SEED)


# -- 5 ---------------------------------------------------------------------

HOLDER_TRIPLES = (
    ("power1_power2_power2",
     (YoungFunction.power(1), YoungFunction.power(2), YoungFunction.power(2))),
    ("power1_power3_power15",
     (YoungFunction.power(1), YoungFunction.power(3), YoungFunction.power(1.5))),
    ("power1_entropy_conjugate",
     (YoungFunction.power(1), YoungFunction.entropy(),
      YoungFunction.entropy().conjugate())),
    ("power2_power4_power4",
     (YoungFunction.power(2), YoungFunction.power(4), YoungFunction.power(4))),
)

YOUNG_TRIPLES = (
    ("power1_power1_power1",
     (YoungFunction.power(1), YoungFunction.power(1), YoungFunction.power(1))),
    ("cap1_power2_power2",
     (YoungFunction.cap(1.0), YoungFunction.power(2), YoungFunction.power(2))),
    ("power2_power1_power2",
     (YoungFunction.power(2), YoungFunction.power(1), YoungFunction.power(2))),
    ("power3_power12_power2",
     (YoungFunction.power(3), YoungFunction.power(1.2), YoungFunction.power(2))),
)


def _inverse_product_ok(bound, phi1, phi2) -> bool:
    """phi1^{-&}(s) phi2^{-&}(s) <= bound(s) on a log grid of s in [1e-6, 1e6],
    where the product is finite: the inverse-product premise of the product
    inequality (bound = phi0^{-&}) and of the convolution one (s phi0^{-&})."""
    s = np.geomspace(1e-6, 1e6, 61)
    i1 = phi1._inverse_array(s)
    i2 = phi2._inverse_array(s)
    with np.errstate(invalid="ignore"):
        bad = i1 * i2 > bound(s) * (1.0 + 1e-9)
    return not bool(np.any(bad & np.isfinite(i1 * i2)))


def _young_sum_ok(phi0, phi1, phi2) -> bool:
    """phi0(t1 t2) <= phi1(t1) + phi2(t2) on a log grid of each t up to 1e4
    (or just below t2): the two-variable sum premise of the product
    inequality, which conjugate pairs satisfy exactly."""
    def tgrid(phi):
        t2 = phi.infinity_point()
        top = min(t2 * (1 - 1e-9), 1e4) if math.isfinite(t2) else 1e4
        return np.geomspace(1e-4, top, 40)

    t1 = tgrid(phi1)
    t2 = tgrid(phi2)
    lhs = phi0._eval_array(np.outer(t1, t2))
    rhs = phi1._eval_array(t1)[:, None] + phi2._eval_array(t2)[None, :]
    tol = 1e-9 * (1.0 + np.where(np.isfinite(rhs), rhs, 0.0))
    return bool(np.all((lhs <= rhs + tol) | np.isinf(rhs)))


def _inequalities(products, convolutions, trials: int, seed: int):
    """The norm inequalities |f1 f2|_{Phi0} <= 2 |f1|_{Phi1} |f2|_{Phi2} for
    each labelled triple (phi0, phi1, phi2) of products, and the same for
    the periodic Riemann-sum convolution f1 * f2 for each of convolutions,
    all on one seeded draw of trials x N unit-variance complex Gaussian
    rows f1 and f2.  Either list may be empty.

    A product triple needs one of two sufficient premises, checked on a log
    grid: the inverse product phi1^{-&} phi2^{-&} <= phi0^{-&}, or the
    two-variable sum bound; a convolution triple needs the inverse product
    phi1^{-&} phi2^{-&} <= s phi0^{-&}.  The product triples read the rows;
    then the convolution triples confine their supports to the middle half
    of the axis, masking them in place, so that the circular convolution
    agrees with the real one.

    Returns the worst ratio max |f1 . f2|_{Phi0} / (|f1|_{Phi1} |f2|_{Phi2})
    (0 for no triple), whether every premise held and every ratio was at
    most 2, and the ratio of each triple by label, products then
    convolutions."""
    grid = make_grid()
    w = grid.weight
    rng = np.random.default_rng(seed)
    n = grid.shape[0]
    r1, r2 = ((rng.standard_normal((trials, n)) + 1j * rng.standard_normal((trials, n)))
              / math.sqrt(2.0) for _ in range(2))

    def ratios(triples, combine, premise):
        per, ok = {}, True
        for label, (phi0, phi1, phi2) in triples:
            # each modulus is a temporary of its own, so its blocks are solved
            # in place, not copied; the combined rows are freed once normed
            n0 = orlicz._luxemburg_batch(np.abs(combine(r1, r2)), w, phi0, overwrite=True)
            n1 = orlicz._luxemburg_batch(np.abs(r1), w, phi1, overwrite=True)
            n2 = orlicz._luxemburg_batch(np.abs(r2), w, phi2, overwrite=True)
            per[label] = float(np.max(n0 / (n1 * n2)))
            ok = ok and per[label] <= 2.0 and premise(phi0, phi1, phi2)
        return per, ok

    def convolve(a, b):
        return np.fft.ifft(np.fft.fft(a, axis=1) * np.fft.fft(b, axis=1), axis=1) * w

    holder, holder_ok = ratios(products, np.multiply, lambda f0, f1, f2: (
        _inverse_product_ok(f0._inverse_array, f1, f2) or _young_sum_ok(f0, f1, f2)))
    if convolutions:
        mask = np.abs(grid.axes[0].points) <= grid.axes[0].half_extent / 2.0
        r1 *= mask
        r2 *= mask
    young, young_ok = ratios(convolutions, convolve, lambda f0, f1, f2: _inverse_product_ok(
        lambda s: s * f0._inverse_array(s), f1, f2))
    return (max(0.0, *holder.values(), *young.values()), holder_ok and young_ok,
            (holder, young))


@_criterion
def holder_inequality(trials: int = 1000, seed: int = _SEED):
    """Product-norm inequality across the standard function triples."""
    worst, ok, (per, _) = _inequalities(HOLDER_TRIPLES, (), trials, seed)
    return worst, 2.0, ok, dict(per_triple=per, trials=trials, seed=seed)


@_criterion
def young_convolution_inequality(trials: int = 1000, seed: int = _SEED):
    """Convolution-norm inequality across the standard function triples."""
    worst, ok, (_, per) = _inequalities((), YOUNG_TRIPLES, trials, seed)
    return worst, 2.0, ok, dict(per_triple=per, trials=trials, seed=seed)


@_criterion
def holder_young_inequalities(trials: int = 1000, seed: int = _SEED):
    """Both norm inequalities, reported as one criterion, on one draw of the
    rows."""
    worst, ok, (holder, young) = _inequalities(HOLDER_TRIPLES, YOUNG_TRIPLES, trials, seed)
    return worst, 2.0, ok, dict(holder=holder, young=young, trials=trials, seed=seed)


# -- 6 ---------------------------------------------------------------------

_BUILTINS = (
    ("power1", YoungFunction.power(1)),
    ("power2", YoungFunction.power(2)),
    ("power3", YoungFunction.power(3)),
    ("power_scaled2", YoungFunction.power_scaled(2)),
    ("cap1", YoungFunction.cap(1.0)),
    ("entropy", YoungFunction.entropy()),
    ("tan_example", YoungFunction.tan_example()),
    ("log_example", YoungFunction.log_example()),
    ("table", YoungFunction.table(
        [(0.0, 0.0), (1.0, 0.5), (2.0, 2.0), (3.0, 5.0)], tail_slope=4.0)),
)


def _rel_gap(a, b) -> float:
    """max |a - b| / max(a, b, 1e-300) where a and b are finite, or 1 when
    one of them is inf where the other is not."""
    if np.any(np.isinf(a) != np.isinf(b)):
        return 1.0
    finite = np.isfinite(a)
    a, b = a[finite], b[finite]
    return float(np.max(np.abs(a - b) / np.maximum(np.maximum(a, b), 1e-300), initial=0.0))


@_criterion
def conjugate_closed_forms():
    """The numeric Legendre transform against two closed forms: the
    logarithmic example's on [1e-3, 1e-1], and the generic path against the
    Lambert-W form the library evaluates for the entropy conjugate, on
    [1e-300, t2*) up to 1e-15 of the jump point t2*.  Then double
    conjugation on every built-in."""
    ts = np.geomspace(1e-3, 1e-1, 40)
    closed = {"log_example": _rel_gap(YoungFunction.log_example().conjugate()._eval_array(ts),
                                      log_example_conjugate(ts))}
    ent = YoungFunction.entropy()
    t2 = ent.sup_slope()
    ts = np.append(np.geomspace(1e-300, t2, 60, endpoint=False),
                   t2 * (1.0 - np.geomspace(1e-9, 1e-15, 7)))
    s = _legendre_argmax(ent, ts)
    closed["entropy"] = _rel_gap(np.maximum(s * ts - ent._eval_array(s), 0.0),
                                 ent.conjugate()._eval_array(ts))
    ts = np.geomspace(1e-3, 10.0, 60)
    per = {label: _rel_gap(f._eval_array(ts), f.conjugate().conjugate()._eval_array(ts))
           for label, f in _BUILTINS}
    worst = max(*closed.values(), *per.values())
    return worst, 1e-6, worst <= 1e-6, dict(closed_form=closed, biconjugation=per)


# -- 7 ---------------------------------------------------------------------


@_criterion
def rank_one_duality(n: int = 128, half_extent: float = 10.0):
    """Quadratic-representation symbols act as rank-one operators, and the
    operator pairing matches the symbol pairing, for A in {0, I/2, I}."""
    g = make_grid(n, half_extent)
    f1, f2, h, u = (make_gaussian_mix(g, _SEED + k) for k in (10, 11, 12, 13))
    worst_rank = 0.0
    worst_dual = 0.0
    for t in (0.0, 0.5, 1.0):
        W = wigner(f1, f2, t)
        out = psido.apply(W, t, h)
        target = (2.0 * math.pi) ** -0.5 * inner_product(h, f2) * f1.values
        worst_rank = max(
            worst_rank,
            float(np.abs(out.values - target).max() / np.abs(target).max()),
        )
        lhs = inner_product(u, out)
        rhs = (2.0 * math.pi) ** -0.5 * inner_product(wigner(u, h, t), W)
        worst_dual = max(worst_dual, abs(lhs - rhs) / abs(lhs))
    passed = worst_rank <= 1e-6 and worst_dual <= 1e-7
    return ({"rank_one": worst_rank, "duality": worst_dual},
            {"rank_one": 1e-6, "duality": 1e-7},
            passed, dict(n=n, half_extent=half_extent, seed=_SEED))


# -- 8 ---------------------------------------------------------------------


@_criterion
def calculi_transfer(n: int = 256, half_extent: float = 12.0,
                     transfer_n: int = 342, transfer_half_extent: float = 16.0):
    """Changing the quantization parameter: operator round trips between
    the endpoint calculi and the matching transfer of quadratic
    representations.  The transfer check runs on a wider grid so that the
    random signals' correlation lags stay far from the periodic boundary."""
    g = make_grid(n, half_extent)
    a = make_gaussian_mix(phase_grid(g), _SEED + 20)
    f = make_gaussian_mix(g, _SEED + 21)
    worst_cal = 0.0
    for t1, t2 in ((0.0, 0.5), (0.5, 0.0), (0.0, 1.0), (1.0, 0.0)):
        worst_cal = max(worst_cal,
                        psido.calculi_consistency(a, t1, t2, f)["max_error"])
    gw = make_grid(transfer_n, transfer_half_extent)
    f1, f2 = make_gaussian_mix(gw, _SEED + 22), make_gaussian_mix(gw, _SEED + 23)
    W = {t: wigner(f1, f2, t) for t in (0.0, 0.5, 1.0)}
    worst_wig = 0.0
    for t1, t2 in ((0.5, 0.0), (0.0, 0.5), (0.5, 1.0)):
        T = quantization_change(W[t1], t1, t2)
        worst_wig = max(
            worst_wig,
            float(np.abs(T.values - W[t2].values).max() / np.abs(W[t2].values).max()),
        )
    passed = worst_cal <= 1e-6 and worst_wig <= 1e-7
    return ({"calculi": worst_cal, "wigner_transfer": worst_wig},
            {"calculi": 1e-6, "wigner_transfer": 1e-7},
            passed, dict(n=n, half_extent=half_extent, seed=_SEED))


# -- 9 ---------------------------------------------------------------------


@_criterion
def entropy_lambda_scan():
    """Entropy of the Gaussian family: E(4)-E(1) = log(5/4), and the fitted
    additive constant is flat across two octaves each way."""
    lambdas = [0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    scan = gaussian_family_scan(lambdas)
    by_lam = {r["lam"]: r["entropy"] for r in scan["rows"]}
    diff_err = abs(by_lam[4.0] - by_lam[1.0] - math.log(1.25))
    spread = scan["constant_spread"]
    fit = scan["constant_fit"]
    supported = 1.0 if abs(fit - 1.0) < abs(fit - 0.25) else 0.25
    passed = diff_err <= 1e-5 and spread <= 1e-4
    return ({"difference_error": diff_err, "constant_spread": spread},
            {"difference_error": 1e-5, "constant_spread": 1e-4},
            passed, dict(constant_fit=fit, supported_constant=supported,
                         lambdas=lambdas))


# -- 10 --------------------------------------------------------------------


@_criterion
def entropy_lower_bound(n: int = 256, half_extent: float = 12.0, trials: int = 50):
    """Normalized random and Hermite signals all satisfy the entropy lower
    bound d(1 + log(pi/2)), less a slack of 1e-6."""
    g = make_grid(n, half_extent)
    threshold = 1.45158 - 1e-6
    # made one at a time: holding all of them raised the peak RSS of `verify all`
    signals = itertools.chain(
        (({"kind": "random", "seed": _SEED + i}, make_random_bandlimited(g, _SEED + i, band=5.0))
         for i in range(trials)),
        (({"kind": "hermite", "order": k}, make_hermite(g, k)) for k in range(6)))
    entropies = []
    violations = []
    for tag, f in signals:
        r = lieb_bound_check(f)
        entropies.append(r["entropy"])
        if r["entropy"] < threshold:
            violations.append({**tag, **r})
    return min(math.inf, *entropies), threshold, not violations, dict(
        hermite=entropies[trials:], violations=violations, trials=trials, seed=_SEED)


# -- 11 --------------------------------------------------------------------


@_criterion
def entropy_discontinuity(n: int = 256, half_extent: float = 12.0):
    """The Gaussian family keeps unit flat-quadratic norm while its entropy
    grows by at least 1.31 (a gap of 1.3 and a margin of 1e-2), and its
    entropy-space norm strictly increases — the witness separating the two
    topologies.  The M^2 norms come through Moyal's identity (modspace's
    closed form for joint power-2 norms, which moyal_isometry checks
    against the STFT), so m2_unit_error is how far the sampled Gaussians
    are from unit L2 norm."""
    g = make_grid(n, half_extent)
    rows = lambda_family_table([1.0, 4.0, 16.0, 64.0], grid=g)
    e_gap = rows[-1]["entropy"] - rows[0]["entropy"]
    m2 = [r["M2_norm"] for r in rows]
    mphi = [r["MPhi_norm"] for r in rows]
    unit = max(abs(v - 1.0) for v in m2)
    increasing = all(b > a for a, b in zip(mphi, mphi[1:]))
    passed = e_gap >= 1.31 and unit <= 1e-6 and increasing
    return ({"entropy_gap": e_gap, "m2_unit_error": unit},
            {"entropy_gap": 1.31, "m2_unit_error": 1e-6},
            passed, dict(mphi_norms=mphi, m2_norms=m2, strictly_increasing=increasing))


# -- 12 --------------------------------------------------------------------


def _power_tuple_oracle(p: float, q: float, exponents) -> bool:
    """Direct exponent arithmetic for the operator-continuity hypotheses
    when all four functions are pure powers."""
    if q > p:
        return False
    if p == 1.0:
        return True
    pp = p / (p - 1.0)
    qp = math.inf if q == 1.0 else q / (q - 1.0)
    beta = (0.0 if math.isinf(pp) else 1.0 / pp) + (
        0.0 if math.isinf(qp) else 1.0 / qp
    )
    e1, e2, e3, e4 = exponents
    growth_ok = math.isinf(qp) or all(e <= qp for e in exponents)
    prod_phi = 1.0 / e1 + 1.0 / e3 >= beta
    prod_psi = 1.0 / e2 + 1.0 / e4 >= beta
    return growth_ok and prod_phi and prod_psi


@_criterion
def hypothesis_checkers(count: int = 20):
    """The worked continuity example passes every hypothesis, and for random
    power quadruples the checker verdict coincides exactly with direct
    exponent arithmetic."""
    ent = YoungFunction.entropy()
    example = check_pseudo_hypotheses(3.0, 1.5, ent, ent, ent, ent)
    failed_conditions = [
        c["name"] for c in example["conditions"]
        if c["applicable"] and not c["passed"]
    ]

    rng = np.random.default_rng(_SEED)
    mismatches = []
    for _ in range(count):
        p = round(float(rng.uniform(1.0, 4.0)), 2)
        q = round(float(rng.uniform(1.0, 4.0)), 2)
        exps = [round(float(rng.uniform(1.05, 5.0)), 2) for _ in range(4)]
        funcs = [YoungFunction.power(e) for e in exps]
        got = check_pseudo_hypotheses(p, q, *funcs)["passes"]
        want = _power_tuple_oracle(p, q, exps)
        if got != want:
            mismatches.append({"p": p, "q": q, "exponents": exps,
                               "checker": got, "oracle": want})
    agreements = count - len(mismatches)
    passed = example["passes"] and agreements == count
    return ({"example_passes": example["passes"], "oracle_agreement": agreements},
            {"example_passes": True, "oracle_agreement": count},
            passed, dict(example_failed_conditions=failed_conditions,
                         mismatches=mismatches, count=count, seed=_SEED))


# -- 13 --------------------------------------------------------------------


def _opnorm_configs():
    ent = YoungFunction.entropy()
    p2 = YoungFunction.power(2)
    m_entropy = ModulationSpaceSpec(ent, ent)
    cont = {
        "label": "smooth_symbol_entropy_spaces",
        "domain": m_entropy,
        "codomain": m_entropy,
        "symbol_space": ModulationSpaceSpec(YoungFunction.power(3),
                                            YoungFunction.power(1.5)),
    }
    wiener = {
        "label": "wiener_amalgam_symbol",
        "domain": ModulationSpaceSpec(p2.conjugate(), p2.conjugate()),
        "codomain": ModulationSpaceSpec(p2, p2, flavor="W"),
        "symbol_space": ModulationSpaceSpec(p2, p2, flavor="W"),
    }
    return cont, wiener


@_criterion
def opnorm_ratio_stability(count: int = 10):
    """The operator-norm lower bounds of one analytic symbol, Op_0(a) from
    the domain to the codomain space, change by at most a factor of 2 when
    the grid is refined from N=128 to N=256, for each of `count` symbols per
    configuration.  The bounds come from the random search of
    psido.estimate_operator_norm, with 4 probes drawn once per grid."""
    grids = {n: make_grid(n, 12.0) for n in (128, 256)}
    rows = []
    for cfg_index, cfg in enumerate(_opnorm_configs()):
        probes = {n: psido._probes(g, cfg["domain"], 4, _SEED) for n, g in grids.items()}
        for i in range(count):
            sym_seed = _SEED + 100 * cfg_index + i
            lower = {n: psido._largest_quotient(
                        psido.kernel(make_gaussian_mix(phase_grid(g), sym_seed), 0.0),
                        probes[n], cfg["codomain"])
                     for n, g in grids.items()}
            rows.append({"config": cfg["label"], "seed": sym_seed,
                         "lower_128": lower[128], "lower_256": lower[256],
                         "change": max(lower[256] / lower[128], lower[128] / lower[256])})
    worst = max(0.0, *(r["change"] for r in rows))
    return worst, 2.0, worst <= 2.0, dict(rows=rows, count=count, trials=4, seed=_SEED)


# -- 14 --------------------------------------------------------------------


@_criterion
def embedding_lattice():
    """The entropy-function space sits between the p-power space (p = 1.5)
    and the quadratic space, and neither inclusion reverses."""
    p = 1.5
    ent = YoungFunction.entropy()
    p2 = YoungFunction.power(2)
    pp = YoungFunction.power(p)
    r = 0.5
    forward = {
        "power_p_into_entropy": check_embedding(pp, pp, ent, ent, r)["embeds"],
        "entropy_into_power2": check_embedding(ent, ent, p2, p2, r)["embeds"],
    }
    reverse = {
        "entropy_into_power_p": check_embedding(ent, ent, pp, pp, r)["embeds"],
        "power2_into_entropy": check_embedding(p2, p2, ent, ent, r)["embeds"],
    }
    passed = all(forward.values()) and not any(reverse.values())
    return ({"forward": forward, "reverse": reverse},
            {"forward": "all true", "reverse": "all false"}, passed, dict(p=p))


# -- registry ----------------------------------------------------------------

CRITERIA = tuple((fn.__name__, fn) for fn in (
    moyal_isometry,
    gaussian_stft_closed_form,
    stft_inversion_projection,
    twisted_reproducing,
    holder_young_inequalities,
    conjugate_closed_forms,
    rank_one_duality,
    calculi_transfer,
    entropy_lambda_scan,
    entropy_lower_bound,
    entropy_discontinuity,
    hypothesis_checkers,
    opnorm_ratio_stability,
    embedding_lattice,
))


def run_all(names=None) -> dict:
    """Run the full battery (or a named subset) and collect the records."""
    selected = dict(CRITERIA)
    names = list(selected) if names is None else names
    unknown = [n for n in names if n not in selected]
    if unknown:
        raise KeyError(f"unknown criteria: {unknown}")
    results = [selected[n]() for n in names]
    return {"results": results, "all_passed": all(r["passed"] for r in results)}
