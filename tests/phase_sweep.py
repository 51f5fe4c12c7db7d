"""Exactness sweep of the phase tables behind the shift ramp and the
quantization-change multiplier.

Runs seeded columns beta, uniform in [-pi, pi], through orlicztf.tfa._phases
at every even n from 2 to 1024, so the frequencies k reach -512 .. 511, and
compares every entry with np.exp(i k beta): it must lie within 4 ulps of its
phase, |P - exp(i k beta)| <= 4 eps (1 + |k beta|).  The rows -k must be the
exact conjugates of the rows k, and the row -n/2 the edge row that was
passed in.  This exercises the broadcast out= products of the two tables on
the numpy and libm at hand.  Prints the worst error in units of the bound
and exits 1 if any entry is past it.  It is not a pytest module: at the
default 256 columns it takes a few seconds.

    PYTHONPATH=src python tests/phase_sweep.py [columns] [seed]
"""

import math
import sys

import numpy as np

from orlicztf.tfa import _phases


def main(columns: int = 256, seed: int = 20261021) -> int:
    rng = np.random.default_rng(seed)
    eps = np.finfo(float).eps
    worst, bad = 0.0, 0
    for n in range(2, 1025, 2):
        h = n // 2
        beta = rng.uniform(-math.pi, math.pi, columns)
        edge = np.exp(-1j * h * beta)
        got = _phases(n, beta, edge)
        phase = np.multiply.outer(np.fft.fftfreq(n, d=1.0 / n), beta)
        units = np.abs(got - np.exp(1j * phase)) / (4.0 * eps * (1.0 + np.abs(phase)))
        units[h] = 0.0
        worst = max(worst, float(units.max()))
        over = int(np.count_nonzero(units > 1.0))
        if over or not np.array_equal(got[h], edge) \
                or not np.array_equal(got[h + 1:], np.conj(got[h - 1:0:-1])):
            bad += 1
            print(f"n={n}: {over} entries past the bound, or a wrong edge or conjugate row",
                  flush=True)
    print(f"n = 2 .. 1024, {columns} columns each: worst error {worst:.3f} of the bound, "
          f"{bad} sizes failing")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
