"""Modulation-space norms over Orlicz stages, embedding predicates, and
hypothesis checkers for the boundedness results.

The M flavor integrates the x-axes of the STFT first, then the xi-axes; the
W flavor swaps the stage order.  When both stages carry the same Young
function, the norm is the joint one-stage Luxemburg norm on phase space, so
the flavor does not matter.  For powers this equals the iterated two-stage
norm.  For other functions it does not: the iterated norm, which
`orlicztf norm mixed` computes, is a different number.  When both stages
carry the same power c t^2 the joint norm is sqrt(c) |V_g f|_2, and Moyal's
identity |V_g f|_2 = |f|_2 |g|_2, exact on the periodic grid, answers it in
closed form: `modulation_norm` then forms no STFT.  Every other norm of a
d >= 2 signal takes the STFT in slabs of one x_1 index, N^(2d-1) samples
each, and the first stage reduces each slab as it comes
(orlicz._streamed_mixed_norm): a power first stage holds a slab at a time,
any other one the real N^(2d) array of its rows; no complex N^(2d) array
is formed.  A d = 1 STFT is one slab, the same operations as `stft`.

Every growth comparison "near the origin" (lower growth, inverse products,
embeddings, and the local doubling of the hypothesis checkers) is one call
of `young._compare_near_zero`.  When both sides are powers it answers by
exponent arithmetic.  Otherwise it takes the sup of the ratio on one
geometric grid, 120 points in [1e-16, r], and calls the ratio bounded only
when that sup is finite and at most 25 percent above the sup on 60 points
in [1e-8, r]; a radius below 1e-8 (young._MIN_RADIUS) raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tfa
from .field import Field, l2_norm, make_gaussian, phase_grid
from .orlicz import MixedNormSpec, _streamed_mixed_norm, mixed_norm
from .young import (YoungFunction, _compare_near_zero, check_delta2, check_p_steered,
                    closed_power_form)


@dataclass(frozen=True)
class ModulationSpaceSpec:
    phi: YoungFunction
    psi: YoungFunction
    flavor: str = "M"

    def __post_init__(self):
        if self.flavor not in ("M", "W"):
            raise ValueError("flavor must be 'M' or 'W'")

    def stages_for(self, d: int) -> MixedNormSpec:
        """The stage list; one joint stage when phi == psi, which is the
        iterated norm only for powers (see the module docstring)."""
        x_axes = tuple(range(d))
        xi_axes = tuple(range(d, 2 * d))
        if self.phi == self.psi:
            stages = ((x_axes + xi_axes, self.phi),)
        elif self.flavor == "M":
            stages = ((x_axes, self.phi), (xi_axes, self.psi))
        else:
            stages = ((xi_axes, self.psi), (x_axes, self.phi))
        return MixedNormSpec(stages)


# The largest N at which a four-dimensional STFT is streamed through a norm
# on request: its time grows as N^4 log N (0.1-0.4 s at N = 48, 0.5-1.5 s at
# N = 64 for M^{3,1.5} and M^Phi), while its memory stays at a slab.
_MAX_4D_N = 48


def _moyal_factor(spec: ModulationSpaceSpec) -> float | None:
    """sqrt(c) when both stages are the same power c t^2, so that Moyal's
    identity gives the norm of V_g f as sqrt(c) |f|_2 |g|_2; else None."""
    cp = closed_power_form(spec.phi) if spec.phi == spec.psi else None
    return math.sqrt(cp[0]) if cp is not None and cp[1] == 2.0 else None


def phase_field_norm(F: Field, spec: ModulationSpaceSpec) -> float:
    """Mixed Orlicz norm of an existing phase field under the given stages."""
    d = F.grid.dimension // 2
    return mixed_norm(F, spec.stages_for(d))


def modulation_norm(f: Field, spec: ModulationSpaceSpec, window: Field | None = None) -> float:
    """Norm of the STFT of f in the requested mixed Orlicz space.

    When phi == psi == c t^2 the norm is the joint one sqrt(c) |V f|_2, and
    Moyal's identity |V_g f|_2 = |f|_2 |g|_2, exact on the periodic grid,
    gives it without forming the STFT.  Otherwise the STFT is fed to the
    norm in x_1 slabs (one slab when d = 1), see the module docstring.

    Non-finite samples follow the Luxemburg layer's rule in every space: a
    NaN sample (of f or the window) gives NaN, otherwise an inf sample gives
    inf.  The STFT would read NaN for both, since its FFT meets inf * 0."""
    if window is None:
        window = make_gaussian(f.grid, 1.0)
    if not f.grid.matches(window.grid):
        raise ValueError("signal and window must share a grid")
    if not (np.isfinite(f.values).all() and np.isfinite(window.values).all()):
        nan = np.isnan(f.values).any() or np.isnan(window.values).any()
        return math.nan if nan else math.inf
    moyal = _moyal_factor(spec)
    if moyal is not None:
        return moyal * l2_norm(f) * l2_norm(window)
    d = f.grid.dimension
    return _streamed_mixed_norm(phase_grid(f.grid), spec.stages_for(d),
                                tfa._stft_slabs(f, window), f.grid.shape[0] if d == 1 else 1)


# -- growth comparisons near the origin ----------------------------------------


def lower_growth_check(phi: YoungFunction, alpha: float, r: float) -> dict:
    """Does phi(t) >= c t^alpha hold near the origin (phi grows no slower
    than t^alpha)?  Equivalent to boundedness of t^alpha / phi(t) on (0, r]."""
    if math.isinf(alpha):
        return {"bounded": True, "constant": 0.0, "method": "vacuous"}
    return _compare_near_zero(lambda t: t ** alpha, phi._eval_array, r,
                              ((1.0, alpha), closed_power_form(phi)))


def inverse_product_check(phi_a: YoungFunction, phi_b: YoungFunction,
                          beta: float, r: float) -> dict:
    """Does phiA^{-&}(s) phiB^{-&}(s) <= C s^beta hold near the origin?"""
    if beta == 0.0:
        return {"bounded": True, "constant": 1.0, "method": "vacuous"}
    ca, cb = closed_power_form(phi_a), closed_power_form(phi_b)
    product = None
    if ca is not None and cb is not None:
        # the essential inverse of c t^p is (s / c)^(1/p)
        product = (((1.0 / ca[0]) ** (1.0 / ca[1])) * ((1.0 / cb[0]) ** (1.0 / cb[1])),
                   1.0 / ca[1] + 1.0 / cb[1])
    return _compare_near_zero(lambda s: phi_a._inverse_array(s) * phi_b._inverse_array(s),
                              lambda s: s ** beta, r, (product, (1.0, beta)))


def check_embedding(phi1: YoungFunction, psi1: YoungFunction,
                    phi2: YoungFunction, psi2: YoungFunction,
                    t0: float) -> dict:
    """Inclusion of the (phi1, psi1) space into the (phi2, psi2) space:
    holds iff phi2 <~ phi1 and psi2 <~ psi1 near the origin."""

    def compare(num_phi, den_phi):
        return _compare_near_zero(num_phi._eval_array, den_phi._eval_array, t0,
                                  (closed_power_form(num_phi), closed_power_form(den_phi)))

    first = compare(phi2, phi1)
    second = compare(psi2, psi1)
    return {
        "embeds": first["bounded"] and second["bounded"],
        "phi_comparison": first,
        "psi_comparison": second,
        "t0": t0,
    }


# -- theorem hypothesis checkers ----------------------------------------------


def _dual_exponent(p: float) -> float:
    if p == 1.0:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def _condition(name, passed, applicable=True, **extra):
    d = {"name": name, "passed": bool(passed), "applicable": bool(applicable)}
    d.update(extra)
    return d


def _shared_function_conditions(funcs, steer_exp, growth_exp, prod_exp, r):
    """Steering, local doubling, lower growth, and inverse-product
    conditions on the function quadruple."""
    names = ("Phi1", "Psi1", "Phi2", "Psi2")
    conds = []
    for nm, f in zip(names, funcs):
        st = check_p_steered(f, steer_exp, r)
        conds.append(_condition(f"steering_{nm}", st["steered"], branch=st["branch"]))
    for nm, f in zip(names, funcs):
        d2 = check_delta2(f, "local", r)
        conds.append(_condition(f"delta2_{nm}", d2["holds"], constant=d2["constant"]))
    for nm, f in zip(names, funcs):
        lg = lower_growth_check(f, growth_exp, r)
        conds.append(
            _condition(f"lower_growth_{nm}", lg["bounded"], constant=lg.get("constant"))
        )
    phi1, psi1, phi2, psi2 = funcs
    for nm, (fa, fb) in (("Phi", (phi1, phi2)), ("Psi", (psi1, psi2))):
        ip = inverse_product_check(fa, fb, prod_exp, r)
        conds.append(
            _condition(f"inverse_product_{nm}", ip["bounded"], constant=ip.get("constant"))
        )
    return conds


def check_pseudo_hypotheses(p: float, q: float,
                            phi1: YoungFunction, psi1: YoungFunction,
                            phi2: YoungFunction, psi2: YoungFunction,
                            r: float = 0.5) -> dict:
    """Hypothesis battery for operator continuity between the two mixed
    spaces: q <= p, and for p > 1 the p'-steering, local doubling, lower
    growth against t^{q'}, and inverse-product bounds against s^{1/p'+1/q'}."""
    if not (1.0 <= p) or not (1.0 <= q):
        raise ValueError("exponents must lie in [1, inf]")
    conds = [_condition("q_le_p", q <= p)]
    if p > 1.0:
        pp = _dual_exponent(p)
        qp = _dual_exponent(q)
        beta = (0.0 if math.isinf(pp) else 1.0 / pp) + (
            0.0 if math.isinf(qp) else 1.0 / qp
        )
        conds += _shared_function_conditions(
            (phi1, psi1, phi2, psi2), steer_exp=pp, growth_exp=qp, prod_exp=beta, r=r
        )
    else:
        conds.append(
            _condition("dual_exponent_conditions", True, applicable=False,
                       note="p = 1 leaves no dual-exponent requirements")
        )
    passes = all(c["passed"] for c in conds if c["applicable"])
    return {"p": p, "q": q, "r": r, "conditions": conds, "passes": passes}


# -- STFT norm factorization ----------------------------------------------------


def stft_norm_factorization_check(f1: Field, f2: Field,
                                  phi: YoungFunction, psi: YoungFunction) -> dict:
    """Compares |V_{f1} f2|_{M^{Phi,Psi}} with |f1|_{M^{Phi,Psi}} |f2|_{W^{Psi,Phi}}.

    The left side is modulation_norm(V_{f1} f2), the norm of a two-variable
    field.  Moyal's identity answers it when Phi == Psi == c t^2, as for any
    field; every other pair streams a four-dimensional STFT, N^3 samples per
    slab, through the norm.  The resolution guard (N <= _MAX_4D_N, applied to
    every pair) bounds its time, which grows as N^4 log N, not its memory.
    """
    n = max(ax.n for ax in f1.grid.axes)
    if n > _MAX_4D_N:
        raise ValueError(f"factorization check needs N <= {_MAX_4D_N} (the inner object is 4-d)")
    if not f1.grid.matches(f2.grid):
        raise ValueError("grid mismatch")

    m_spec = ModulationSpaceSpec(phi, psi, flavor="M")
    w_spec = ModulationSpaceSpec(psi, phi, flavor="W")

    if l2_norm(f2) == 0.0 or l2_norm(f1) == 0.0:
        return {"lhs": 0.0, "rhs": 0.0, "ratio": math.nan}

    lhs = modulation_norm(tfa.stft(f2, f1), m_spec)
    rhs = modulation_norm(f1, m_spec) * modulation_norm(f2, w_spec)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0.0 else math.inf)
    return {"lhs": lhs, "rhs": rhs, "ratio": ratio}
