"""Pseudo-differential operators Op_A(a): kernels, application, calculi
transfer, and empirical operator-norm estimation.

The kernel is K(x, y) = (2pi)^(-d/2) (F2^{-1} a)(x - A(x - y), x - y): a
partial inverse Fourier transform in the frequency slot followed by a shear.
On the grid every A = tI takes the same path: each column z of the partial
transform is shifted by -t z along the x slot (one FFT phase ramp, see
tfa._shifted), and the kernel gathers K(x, y) from column z = x - y.  The
difference x - y is taken as its representative on the centered lattice,
which keeps periodic wraparound consistent.

Operator norms between spaces other than the flat L2 ones are estimated by a
random search over seeded probe signals.  The probes and their domain norms
depend only on the grid, so they are drawn once (`_probes`) and every kernel
is applied to all of them in one matmul (`_largest_quotient`); a battery that
tries many symbols on one grid reuses the probes.

A symbol's own norm (`symbol_norm`) is its modulation norm as a d = 2 field,
in full on its phase grid: closed form in a Moyal space at any N, else a
streamed 4-d STFT, refused past N = modspace._MAX_4D_N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Field, Grid, inverse_fourier_transform, l2_norm, make_gaussian_mix
from .modspace import _MAX_4D_N, ModulationSpaceSpec, _moyal_factor, modulation_norm
from .tfa import _quantization, _shifted, _split_phase, quantization_change
from .young import closed_power_form


@dataclass(frozen=True)
class KernelMatrix:
    """Discrete kernel: entries K[j, m] with quadrature weight Delta^d on m."""

    grid: Grid
    matrix: np.ndarray

    def apply_to(self, f: Field) -> Field:
        if not f.grid.matches(self.grid):
            raise ValueError("kernel and field grids differ")
        return Field(self.grid, self.matrix @ f.values * self.grid.weight)


def kernel(a: Field, A) -> KernelMatrix:
    """Kernel of Op_A(a) for a symbol on the phase grid of a 1-d base grid."""
    t = _quantization(A)
    d, base = _split_phase(a)
    if d != 1:
        raise ValueError("kernels are implemented for a 1-d base grid")
    n = base.axes[0].n
    z = base.axes[0].points
    b = inverse_fourier_transform(a, axes=(1,)).values  # b[j, z-index]
    S = _shifted(b, -t * z, base.axes[0].spacing)  # S[j, l] = b(x_j - t z_l, z_l)
    j = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    K = S[j, (j - m + n // 2) % n]
    return KernelMatrix(base, (2.0 * math.pi) ** -0.5 * K)


def apply(a: Field, A, f: Field) -> Field:
    """Op_A(a) f by kernel quadrature."""
    return kernel(a, A).apply_to(f)


def calculi_consistency(a: Field, A1, A2, f: Field) -> dict:
    """Relative L2 discrepancy between Op_{A1}(a) f and
    Op_{A2}(carried symbol) f."""
    g1 = apply(a, A1, f)
    a2 = quantization_change(a, A1, A2)
    g2 = apply(a2, A2, f)
    denom = l2_norm(f)
    err = l2_norm(Field(g1.grid, g1.values - g2.values)) / denom if denom > 0 else 0.0
    return {"max_error": err}


def symbol_norm(a: Field, space: ModulationSpaceSpec) -> float:
    """modulation_norm(a, space) of a symbol on the phase grid of a 1-d base
    grid: at any N in a Moyal space (both stages c t^2), else a 4-d STFT whose
    time grows as N^4 log N, refused past N = _MAX_4D_N."""
    d, _ = _split_phase(a)
    if d != 1:
        raise ValueError("symbol norms expect a 1-d base grid")
    if max(a.grid.shape) > _MAX_4D_N and _moyal_factor(space) is None:
        raise ValueError(f"a symbol norm needs N <= {_MAX_4D_N} (its STFT is 4-d) "
                         f"outside the Moyal spaces (both stages c t^2), which have no limit")
    return modulation_norm(a, space)


def _is_flat_l2(spec: ModulationSpaceSpec) -> bool:
    return closed_power_form(spec.phi) == closed_power_form(spec.psi) == (1.0, 2.0)


def _probes(base: Grid, domain: ModulationSpaceSpec, trials: int, seed: int):
    """The seeded probe signals of the random search, rows of a trials x N
    array, and their domain norms.  They depend on the grid, not the symbol."""
    F = np.stack([make_gaussian_mix(base, seed + i, terms=3).values for i in range(trials)])
    return F, [modulation_norm(Field(base, f), domain) for f in F]


def _largest_quotient(K: KernelMatrix, probes, codomain: ModulationSpaceSpec) -> float:
    """max |K f|_codomain / |f|_domain over the probes (0 for a zero probe),
    with the kernel applied to all of them in one matmul."""
    F, norms = probes
    G = (K.matrix @ F.T).T * K.grid.weight
    return float(max(modulation_norm(Field(K.grid, g), codomain) / nd if nd != 0.0 else 0.0
                     for g, nd in zip(G, norms)))


def estimate_operator_norm(a: Field, A, domain: ModulationSpaceSpec,
                           codomain: ModulationSpaceSpec, trials: int = 8,
                           seed: int = 42,
                           symbol_space: ModulationSpaceSpec | None = None) -> dict:
    """Lower bound for |Op_A(a)| from domain to codomain.

    Between the flat L2-type spaces the bound is exact (largest singular
    value of the kernel); otherwise it is a max over seeded random smooth
    signals normalized in the domain norm.  The probes are drawn, and their
    domain norms taken, once; the kernel reaches all of them in one matmul.
    When symbol_space is given, the report carries the ratio of the bound to
    the symbol's full norm there, taken (or refused) before any probe.
    """
    K = kernel(a, A)
    base = K.grid
    sn = None if symbol_space is None else symbol_norm(a, symbol_space)

    if _is_flat_l2(domain) and _is_flat_l2(codomain):
        lower = float(np.linalg.svd(K.matrix, compute_uv=False)[0]) * base.weight
        method = "singular_value"
    else:
        lower = _largest_quotient(K, _probes(base, domain, trials, seed), codomain)
        method = "random_search"

    out = {
        "lower_bound": lower,
        "method": method,
        "trials": trials,
        "seed": seed,
        "ratio_to_symbol_norm": None,
    }
    if sn is not None:
        out["symbol_norm"] = sn
        out["ratio_to_symbol_norm"] = lower / sn if sn > 0 else math.inf
    return out
