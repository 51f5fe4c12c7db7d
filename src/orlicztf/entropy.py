"""Entropy of the short-time Fourier transform.

E_phi(f) = -integral |V_phi f|^2 log |V_phi f|^2 over phase space, plus the
Moyal compensator c log c with c = |phi|^2 |f|^2, which makes the functional
quadratically homogeneous: E_phi(s f) = |s|^2 E_phi(f).  The module also
carries the Gaussian lambda-family experiment, the lower-bound check for
normalized pairs, and continuity probes in several space norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (
    Field,
    Grid,
    l2_norm,
    make_gaussian,
    make_grid,
)
from .modspace import ModulationSpaceSpec, modulation_norm
from .tfa import stft
from .young import YoungFunction

_FLOOR = 1e-300
_M2 = ModulationSpaceSpec(YoungFunction.power(2), YoungFunction.power(2))
_MPHI = ModulationSpaceSpec(YoungFunction.entropy(), YoungFunction.entropy())


@dataclass(frozen=True)
class EntropyResult:
    value: float
    l2_norm_f: float
    l2_norm_window: float


def _integral_term(S: np.ndarray, weight: float) -> np.ndarray:
    """Pointwise contributions -S log S, with values below the floor
    contributing exactly zero; a NaN value contributes NaN."""
    out = np.log(S, out=np.zeros_like(S), where=~(S <= _FLOOR))
    out *= S
    out *= -weight
    return out


def entropy(f: Field, window: Field | None = None) -> EntropyResult:
    """Entropy of |V_phi f|^2 with the Moyal compensator term."""
    phi = window if window is not None else make_gaussian(f.grid, 1.0)
    nphi = l2_norm(phi)
    if nphi == 0.0:
        raise ValueError("window must be nonzero")
    nf = l2_norm(f)
    V = stft(f, phi)
    S = np.abs(V.values)
    S *= S
    total = float(_integral_term(S, V.grid.weight).sum())
    c = nphi**2 * nf**2
    if c > 0.0:
        total += c * math.log(c)
    return EntropyResult(total, nf, nphi)


def family_grid(lambdas) -> Grid:
    """Grid that resolves every member of the Gaussian family: the extent
    grows like 1/sqrt(min lambda) and the sample count keeps the default
    spacing."""
    lam_min = min(lambdas)
    L = max(12.0, 12.0 / math.sqrt(lam_min))
    n = int(math.ceil(256.0 * L / 12.0 / 2.0)) * 2
    return make_grid(n, L)


def gaussian_family_scan(lambdas) -> dict:
    """Entropy of the normalized Gaussians f_lambda across a lambda list.

    Alongside each E(lambda) the scan fits the model
    E(lambda) = d * (constant + log(pi (sqrt(lambda) + 1/sqrt(lambda))))
    and reports the fitted constant and its spread across the list.
    """
    lambdas = [float(l) for l in lambdas]
    if any(l <= 0 for l in lambdas):
        raise ValueError("lambda must be positive")
    g = family_grid(lambdas)
    d = g.dimension
    phi = make_gaussian(g, 1.0)

    def one(lam: float) -> dict:
        e = entropy(make_gaussian(g, lam), phi).value
        log_term = d * math.log(math.pi * (math.sqrt(lam) + 1.0 / math.sqrt(lam)))
        return {"lam": lam, "entropy": e, "log_term": log_term,
                "constant": (e - log_term) / d}

    rows = [one(lam) for lam in lambdas]
    consts = [r["constant"] for r in rows]
    return {
        "rows": rows,
        "constant_fit": float(np.mean(consts)),
        "constant_spread": float(max(consts) - min(consts)),
        "dimension": d,
    }


def lieb_bound_check(f: Field, window: Field | None = None) -> dict:
    """Check E_phi(f) >= d (1 + log(pi/2)) after rescaling so that
    |f|_2 |phi|_2 = 1."""
    phi = window if window is not None else make_gaussian(f.grid, 1.0)
    nf, nphi = l2_norm(f), l2_norm(phi)
    if nf == 0.0 or nphi == 0.0:
        raise ValueError("both the signal and the window must be nonzero")
    f1 = Field(f.grid, f.values / nf)
    phi1 = Field(phi.grid, phi.values / nphi)
    d = f.grid.dimension
    e = entropy(f1, phi1).value
    bound = d * (1.0 + math.log(math.pi / 2.0))
    return {"entropy": e, "bound": bound, "satisfied": bool(e >= bound)}


def continuity_probe(f: Field, direction: Field, amplitudes,
                     space: ModulationSpaceSpec = _MPHI) -> dict:
    """Perturb f along a direction and tabulate the entropy response.

    For each amplitude eps the row carries |eps g| in the norm of `space`
    (default M^Phi) and |E(f + eps g) - E(f)|; the fitted constant bounds
    the response by n^2 (1 + |log n|) in that norm.
    """
    phi = make_gaussian(f.grid, 1.0)
    base = entropy(f, phi).value
    rows = []
    fitted = 0.0
    for eps in amplitudes:
        g = Field(f.grid, eps * direction.values)
        norm = modulation_norm(g, space, window=phi)
        perturbed = Field(f.grid, f.values + g.values)
        delta = abs(entropy(perturbed, phi).value - base)
        rows.append({"amplitude": float(eps), "space_norm": norm,
                     "delta_entropy": delta})
        if norm > 0.0:
            fitted = max(fitted, delta / (norm**2 * (1.0 + abs(math.log(norm)))))
    return {"space": space, "base_entropy": base, "rows": rows,
            "fitted_constant": fitted}


def lambda_family_table(lambdas, grid: Grid | None = None) -> list:
    """Rows (lambda, entropy, M2 norm, MPhi norm) for the Gaussian family."""
    lambdas = [float(l) for l in lambdas]
    g = grid if grid is not None else family_grid(lambdas)
    phi = make_gaussian(g, 1.0)
    rows = []
    for lam in lambdas:
        f = make_gaussian(g, lam)
        rows.append({
            "lam": lam,
            "entropy": entropy(f, phi).value,
            "M2_norm": modulation_norm(f, _M2, window=phi),
            "MPhi_norm": modulation_norm(f, _MPHI, window=phi),
        })
    return rows
