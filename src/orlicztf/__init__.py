"""Numerical laboratory for Orlicz-normed time-frequency analysis.

Layers, from the ground up: Young-function calculus (`young`), phase-space
weights (`weights`), sampled fields on centered grids (`field`), weighted
Orlicz and mixed norms (`orlicz`), time-frequency transforms (`tfa`),
modulation-space norms and hypothesis checkers (`modspace`),
quantization-parameterized pseudo-differential operators (`psido`), the
spectrogram entropy functional (`entropy`), and the named verification
batteries (`verify`) exposed through the `orlicztf` command line (`cli`).
"""

from .entropy import (
    continuity_probe,
    entropy,
    gaussian_family_scan,
    lambda_family_table,
    lieb_bound_check,
)
from .field import (
    Field,
    Grid,
    inner_product,
    inverse_fourier_transform,
    l2_norm,
    load_csv,
    load_json,
    make_gaussian,
    make_gaussian_mix,
    make_grid,
    make_hermite,
    make_random_bandlimited,
    phase_grid,
    save_csv,
    save_json,
)
from .modspace import (
    ModulationSpaceSpec,
    check_embedding,
    check_pseudo_hypotheses,
    modulation_norm,
    stft_norm_factorization_check,
)
from .orlicz import (
    MixedNormSpec,
    luxemburg_norm,
    mixed_norm,
)
from .psido import (
    apply,
    calculi_consistency,
    estimate_operator_norm,
    kernel,
    symbol_norm,
)
from .tfa import (
    quantization_change,
    stft,
    stft_adjoint,
    stft_projection,
    twisted_convolution,
    wigner,
)
from .weights import Weight
from .young import (
    YoungFunction,
    check_delta2,
    check_p_steered,
    closed_power_form,
)

__all__ = [
    "Field",
    "Grid",
    "MixedNormSpec",
    "ModulationSpaceSpec",
    "Weight",
    "YoungFunction",
    "apply",
    "calculi_consistency",
    "check_delta2",
    "check_embedding",
    "check_p_steered",
    "check_pseudo_hypotheses",
    "closed_power_form",
    "continuity_probe",
    "entropy",
    "estimate_operator_norm",
    "gaussian_family_scan",
    "inner_product",
    "inverse_fourier_transform",
    "kernel",
    "l2_norm",
    "lambda_family_table",
    "lieb_bound_check",
    "load_csv",
    "load_json",
    "luxemburg_norm",
    "make_gaussian",
    "make_gaussian_mix",
    "make_grid",
    "make_hermite",
    "make_random_bandlimited",
    "mixed_norm",
    "modulation_norm",
    "phase_grid",
    "quantization_change",
    "save_csv",
    "save_json",
    "stft",
    "stft_adjoint",
    "stft_norm_factorization_check",
    "stft_projection",
    "symbol_norm",
    "twisted_convolution",
    "wigner",
]

__version__ = "1.0.0"
