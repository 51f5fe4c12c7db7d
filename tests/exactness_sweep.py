"""Exactness sweep of the decimal kernel behind the field writers.

Runs seeded random doubles through both layouts of orlicztf.field._cells
and compares every text with Python's own: format(v, ".17g"), as save_csv
promises, and json.dumps(v), as save_json does.  Half of each block is
random 64-bit patterns (every exponent, NaNs and subnormals among them),
half is normal values of magnitude 1e-30 to 1e30, the range of fields.
Prints the mismatches and exits 1 if there is any.  It is not a pytest
module: at the default 10^7 doubles it takes about half a minute.

    PYTHONPATH=src python tests/exactness_sweep.py [count] [seed]
"""

import json
import sys

import numpy as np

from orlicztf.field import _cells, _tail

_BLOCK = 100_000


def main(count: int = 10_000_000, seed: int = 20261020) -> int:
    rng = np.random.default_rng(seed)
    end = _tail(b"\n")
    bad = 0
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        x = rng.integers(0, 2 ** 64, n, dtype=np.uint64).view(float)
        half = n // 2
        x[half:] = rng.standard_normal(n - half) * 10.0 ** rng.uniform(-30, 30, n - half)
        values = x.tolist()
        for shortest, want in ((False, [format(v, ".17g") for v in values]),
                               (True, json.dumps(values)[1:-1].split(", "))):
            got = _cells(x, shortest, end).tobytes().translate(None, b"\0").decode()
            for v, a, b in zip(values, got.split("\n"), want):
                if a != b:
                    bad += 1
                    print(f"{v!r}: kernel {a!r}, Python {b!r}", flush=True)
    print(f"{count} doubles, both layouts: {bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(*map(int, sys.argv[1:])))
