"""Span tracing of orlicztf's layer entry points, installed from outside the
package.

`Tracer.install()` replaces each traced function in every `orlicztf` module
namespace that bound it at import (so `cli.stft`, `verify.stft` and
`modspace.stft` are all wrapped, not only `tfa.stft`), patches the two
`YoungFunction` evaluation methods and `Weight.evaluate` on their classes,
rebuilds `verify.CRITERIA` from the wrapped criteria, and wraps numpy's
FFT entry points, which the package reaches through `np.fft`.  `uninstall()`
puts every original back.

Each span records its parent span.  Spans are aggregated as they close into
one row per (parent, name) edge holding calls, total seconds, self seconds
(total minus the time covered by child spans) and an optional size count,
so memory stays flat however many calls a run makes.  `tracemalloc` runs
only inside the outermost `modspace.modulation_norm` span.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import sys
import time
import tracemalloc

import numpy as np

LATTICE_T = (0.0, 0.5, 1.0)


def _quantization_t(A) -> float:
    return float(getattr(A, "t", A))


def _wigner_name(f1, f2, A=0.5) -> str:
    kind = "lattice_t" if _quantization_t(A) in LATTICE_T else "general_t"
    return "tfa.wigner." + kind


def _kernel_name(a, A) -> str:
    kind = "lattice_t" if _quantization_t(A) in LATTICE_T else "general_t"
    return "psido.kernel." + kind


def _size_of_first(*args, **kwargs) -> int:
    return int(np.size(args[0]))


def _size_of_second(*args, **kwargs) -> int:
    return int(np.size(args[1]))


def _rows(a, *args, **kwargs) -> int:
    a = np.asarray(a)
    return 1 if a.ndim == 1 else int(a.shape[0])


def _file_bytes(f_or_path, path=None, **kwargs) -> int:
    return os.path.getsize(path if path is not None else f_or_path)


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self):
        self.active = False
        self._stack = []  # [name, child seconds]
        self.edges = {}  # (parent, name) -> [calls, total_s, self_s, size]
        self.counters = {}
        self.alloc_peak_bytes = 0
        self._alloc_depth = 0
        self._patches = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. one request or round."""
        if not self.active:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, frame, 0)

    def _close(self, name: str, start: float, frame: list, size: int) -> None:
        dur = time.perf_counter() - start
        self._stack.pop()
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][1] += dur
        row = self.edges.get((parent, name))
        if row is None:
            row = self.edges[(parent, name)] = [0, 0.0, 0.0, 0]
        row[0] += 1
        row[1] += dur
        row[2] += dur - frame[1]
        row[3] += size

    def count(self, name: str, amount: float) -> None:
        if self.active:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def wrap(self, fn, name, size=None, after_size=None, alloc=False):
        """Wrapper timing fn as a span; name is a string or a function of
        the call's arguments; size/after_size count work before/after it."""
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            nm = name if isinstance(name, str) else name(*args, **kwargs)
            n = size(*args, **kwargs) if size is not None else 0
            frame = [nm, 0.0]
            tracer._stack.append(frame)
            outer_alloc = alloc and tracer._alloc_depth == 0
            if alloc:
                tracer._alloc_depth += 1
                if outer_alloc:
                    tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if alloc:
                    tracer._alloc_depth -= 1
                    if outer_alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        tracer.alloc_peak_bytes = max(tracer.alloc_peak_bytes, peak)
                if after_size is not None:
                    n += after_size(*args, **kwargs)
                tracer._close(nm, start, frame, n)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, fn, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "orlicztf" and not modname.startswith("orlicztf."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        # import_module: the package's own namespace binds the function
        # `entropy` over the submodule of that name
        cli, entropy, field, modspace, orlicz, psido, tfa, verify = (
            importlib.import_module("orlicztf." + m) for m in
            ("cli", "entropy", "field", "modspace", "orlicz", "psido", "tfa", "verify"))
        from orlicztf.weights import Weight
        from orlicztf.young import YoungFunction

        functions = [
            (orlicz._luxemburg_batch, "orlicz.luxemburg", {"size": _rows}),
            (orlicz.luxemburg_norm, "orlicz.luxemburg_norm", {}),
            (orlicz.mixed_norm, "orlicz.mixed_norm", {}),
            (tfa.stft, "tfa.stft", {}),
            (tfa.stft_adjoint, "tfa.stft_adjoint", {}),
            (tfa.stft_projection, "tfa.stft_projection", {}),
            (tfa.twisted_convolution, "tfa.twisted_convolution", {}),
            (tfa.wigner, _wigner_name, {}),
            (tfa.quantization_change, "tfa.quantization_change", {}),
            (modspace.modulation_norm, "modspace.modulation_norm", {"alloc": True}),
            (modspace.phase_field_norm, "modspace.phase_field_norm", {}),
            (modspace.stft_norm_factorization_check,
             "modspace.stft_norm_factorization_check", {}),
            (psido.kernel, _kernel_name, {}),
            (psido.apply, "psido.apply", {}),
            (psido.calculi_consistency, "psido.calculi_consistency", {}),
            (psido.estimate_operator_norm, "psido.estimate_operator_norm", {}),
            (psido.symbol_norm, "psido.symbol_norm", {}),
            (entropy.entropy, "entropy.entropy", {}),
            (entropy.gaussian_family_scan, "entropy.gaussian_family_scan", {}),
            (entropy.lambda_family_table, "entropy.lambda_family_table", {}),
            (entropy.lieb_bound_check, "entropy.lieb_bound_check", {}),
            (entropy.continuity_probe, "entropy.continuity_probe", {}),
            (cli.main, "cli.main", {}),
        ]
        for make in ("make_gaussian", "make_hermite", "make_random_bandlimited",
                     "make_gaussian_mix"):
            functions.append((getattr(field, make), "field.make", {}))
        for save in ("save_csv", "save_json"):
            functions.append((getattr(field, save), "field.io",
                              {"after_size": _file_bytes}))
        for load in ("load_csv", "load_json"):
            functions.append((getattr(field, load), "field.io", {"size": _file_bytes}))
        wrapped_criteria = {}
        for crit_name, crit in verify.CRITERIA:
            wrapper = self.wrap(crit, "verify." + crit_name)
            wrapped_criteria[crit_name] = wrapper
            self._patch_everywhere(crit, wrapper)
        for fn, name, opts in functions:
            self._patch_everywhere(fn, self.wrap(fn, name, **opts))
        self._patch(verify, "CRITERIA",
                    tuple((n, wrapped_criteria[n]) for n, _ in verify.CRITERIA))
        self._patch(YoungFunction, "_eval_array",
                    self.wrap(YoungFunction._eval_array, "young.eval", size=_size_of_second))
        self._patch(YoungFunction, "_deriv_array",
                    self.wrap(YoungFunction._deriv_array, "young.deriv", size=_size_of_second))
        self._patch(Weight, "evaluate", self.wrap(Weight.evaluate, "weights.evaluate"))
        for fft in ("fft", "ifft", "fftn", "ifftn"):
            self._patch(np.fft, fft, self.wrap(getattr(np.fft, fft), "fft",
                                               size=_size_of_first))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reading -----------------------------------------------------------

    def total(self, name: str, column: int, parent=None, prefix=False) -> float:
        """Sum of one column over the edges into `name` (or every name with
        that prefix), optionally only those whose parent is `parent`."""
        out = 0
        for (par, nm), row in self.edges.items():
            hit = nm.startswith(name) if prefix else nm == name
            if hit and (parent is None or par == parent):
                out += row[column]
        return out

    def calls(self, name, **kw) -> int:
        return int(self.total(name, 0, **kw))

    def self_s(self, name, **kw) -> float:
        return float(self.total(name, 2, **kw))

    def total_s(self, name, **kw) -> float:
        return float(self.total(name, 1, **kw))

    def size(self, name, **kw) -> int:
        return int(self.total(name, 3, **kw))

    def edge_table(self) -> list:
        return [
            {"parent": par, "name": nm, "calls": row[0], "total_s": row[1],
             "self_s": row[2], "size": row[3]}
            for (par, nm), row in sorted(self.edges.items(),
                                         key=lambda kv: -kv[1][1])
        ]
