"""Command-line front end.

Every run prints a JSON report with the schema

    {"schema": 1, "command": ..., "config": {...}, "results": [...],
     "timing_ms": ...}

where each result row is {"name", "value", "tolerance", "pass"}.  Reports
are byte-identical for identical argv and seed, except for the timing
field.

Each subcommand handler returns (rows, data).  data is what --out saves:
a field, the lambda table of `entropy scan`, or None, in which case --out
takes the report in the --format given.  main writes it before it prints
the report; a path it cannot open is a usage error.  --tol, 0 included,
replaces every row's default tolerance.

One pass rule covers every row with a tolerance: it passes only when its
value is at most the tolerance, so a NaN value fails.  A row without a
tolerance passes.  Two kinds of row keep a pass of their own: the bound
row of `entropy lieb` (the entropy is at least the bound) and the records
of `verify`.
Exit codes: 0 all rows passed, 1 a numerical check failed, 2 usage error,
which includes a request too large to allocate, or a report that could
not be written because the reader had closed stdout (the run then ends
quietly, with no traceback).

main(argv) may be called repeatedly in one process.  It builds its parser
on the first call (not at import) and reuses it, so a repeated in-process
request pays only for its own parse and work.  Reuse is safe: parse_args
returns a fresh Namespace every call, no option has a mutable default, the
handlers read the layer functions through this module's globals when they
run, and argparse prints usage and help to the sys.stdout/sys.stderr
current at the time.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import psido, verify
from .entropy import (
    continuity_probe,
    entropy as entropy_functional,
    gaussian_family_scan,
    lambda_family_table,
    lieb_bound_check,
)
from .field import (
    Field,
    Grid,
    l2_norm,
    load_csv,
    load_json,
    make_gaussian,
    make_gaussian_mix,
    make_grid,
    make_hermite,
    make_noise,
    make_random_bandlimited,
    phase_grid,
    save_csv,
    save_json,
)
from .modspace import ModulationSpaceSpec, modulation_norm
from .orlicz import MixedNormSpec, luxemburg_norm, mixed_norm
from .tfa import stft, stft_projection, twisted_convolution, wigner
from .weights import Weight
from .young import YoungFunction, check_delta2, check_p_steered, log_example_conjugate


# -- spec grammar ----------------------------------------------------------------
#
# A spec is NAME[:ARG...].  A table row is a builder and one (converter,
# default) pair per argument.  An int or float converter takes a token only
# if it is a finite number; a table takes a nested spec if the token names a
# row.  Builders look layer functions up when called, so tracing sees them.

_REQUIRED = object()  # the default of an argument that must be given


def _is_finite(conv, token: str) -> bool:
    try:
        return math.isfinite(conv(token))
    except ValueError:
        return False


def _arg(tokens: list, conv, default):
    """Pop and build the next argument if conv takes it, else the default."""
    if tokens and isinstance(conv, dict):
        if tokens[0] in conv:
            return _take(tokens, conv)
    elif tokens and _is_finite(conv, tokens[0]):
        return conv(tokens.pop(0))
    if default is _REQUIRED:
        raise ValueError("an argument is missing")
    return default


def _take(tokens: list, table: dict, *context):
    """Pop one NAME[:ARG...] off tokens; build it from context and arguments."""
    name = tokens.pop(0)
    if name not in table:
        raise ValueError(f"unknown name {name!r}")
    build, *params = table[name]
    return build(*context, *[_arg(tokens, conv, default) for conv, default in params])


def _parse(spec: str, table: dict, *context):
    """Build a whole spec; a token left over is an error."""
    tokens = spec.split(":")
    try:
        built = _take(tokens, table, *context)
        if tokens:
            raise ValueError(f"{':'.join(tokens)!r} is left over")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"spec {spec!r}: {exc}") from None
    return built


_YOUNG_KINDS = {
    "power": (YoungFunction.power, (float, 2.0)),
    "power_scaled": (YoungFunction.power_scaled, (float, 2.0)),
    "cap": (YoungFunction.cap, (float, 1.0)),
    "entropy": (YoungFunction.entropy,),
    "tan_example": (YoungFunction.tan_example,),
    "log_example": (YoungFunction.log_example,),
}
_YOUNG_KINDS["conjugate"] = (YoungFunction.conjugate, (_YOUNG_KINDS, _REQUIRED))

_WEIGHT_KINDS = {
    "one": (Weight.constant_one,),
    "constant_one": (Weight.constant_one,),
    "": (Weight.constant_one,),
    "polynomial": (Weight.polynomial, (float, 0.0)),
    "exponential": (Weight.exponential, (float, 0.0)),
}


def _space(phi, psi=None, flavor="M") -> ModulationSpaceSpec:
    return ModulationSpaceSpec(phi, phi if psi is None else psi, flavor=flavor)


_SPACE_KINDS = {
    "M2": (lambda: _space(YoungFunction.power(2)),),
    "Mp": (lambda p: _space(YoungFunction.power(p)), (float, _REQUIRED)),
    "MPhi": (lambda: _space(YoungFunction.entropy()),),
    "m": (_space, (_YOUNG_KINDS, _REQUIRED), (_YOUNG_KINDS, None)),
    "w": (lambda phi, psi: _space(phi, psi, "W"),
          (_YOUNG_KINDS, _REQUIRED), (_YOUNG_KINDS, None)),
}


# builders get (grid, --seed, *args); a seed argument left out means --seed
_SIGNAL_KINDS = {
    "gaussian": (lambda g, seed, lam, x0, xi0: make_gaussian(g, lam, x0=x0, xi0=xi0),
                 (float, 1.0), (float, None), (float, None)),
    "hermite": (lambda g, seed, n: make_hermite(g, n), (int, 0)),
    "mix": (lambda g, seed, s, terms: make_gaussian_mix(
        g, seed if s is None else s, terms=terms), (int, None), (int, 3)),
    "noise": (lambda g, seed, s: make_noise(g, seed if s is None else s), (int, None)),
    "bandlimited": (lambda g, seed, s, band: make_random_bandlimited(
        g, seed if s is None else s, band=band), (int, None), (float, 5.0)),
}


def parse_young(spec: str) -> YoungFunction:
    return _parse(spec, _YOUNG_KINDS)


def parse_weight(spec: str) -> Weight:
    return _parse(spec, _WEIGHT_KINDS)


def parse_space(spec: str) -> ModulationSpaceSpec:
    """M^{p,q}-type spaces; m:PHI[:PSI] and w:PHI[:PSI] take Young specs."""
    return _parse(spec, _SPACE_KINDS)


def make_signal(spec: str, grid: Grid, seed: int) -> Field:
    """A signal spec or the path of a saved .csv/.json field."""
    if spec.endswith((".csv", ".json")):
        return load_field(spec)
    return _parse(spec, _SIGNAL_KINDS, grid, seed)


def load_field(path: str) -> Field:
    return load_json(path) if path.endswith(".json") else load_csv(path)


# -- report plumbing -----------------------------------------------------------


def _row(name, value, tolerance=None, ok=True) -> dict:
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(ok)}


def _check(name, value, args, default: float) -> dict:
    """A row with a tolerance, --tol when given (0 included) else default:
    it passes only when value <= tol, so NaN fails."""
    tol = default if args.tol is None else args.tol
    return _row(name, value, tol, value <= tol)


def _jsonable(x):
    """Plain JSON values; non-finite floats become "inf", "-inf" or "nan"."""
    if isinstance(x, (np.floating, np.integer)):
        x = float(x)
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    if isinstance(x, complex):
        return {"re": _jsonable(x.real), "im": _jsonable(x.imag)}
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _save(data, path: str, fmt: str) -> None:
    """Write what --out takes: a field by the path's extension, the rows of
    the lambda-family table as CSV, or the report (a dict) by fmt."""
    if isinstance(data, Field):
        (save_json if path.endswith(".json") else save_csv)(data, path)
        return
    with open(path, "w", newline="") as fh:
        if isinstance(data, dict) and fmt == "json":
            fh.write(json.dumps(_jsonable(data), indent=2) + "\n")
            return
        w = csv.writer(fh)
        if isinstance(data, dict):
            w.writerow(["name", "value", "tolerance", "pass"])
            w.writerows([r["name"], json.dumps(_jsonable(r["value"])),
                         json.dumps(_jsonable(r["tolerance"])), r["pass"]]
                        for r in data["results"])
        else:
            w.writerow(["lambda", "entropy", "M2_norm", "MPhi_norm"])
            w.writerows([r["lam"], repr(r["entropy"]), repr(r["M2_norm"]),
                         repr(r["MPhi_norm"])] for r in data)


# -- subcommand handlers --------------------------------------------------------


def _grid(args) -> Grid:
    return make_grid(args.N, args.L, args.d)


def cmd_young(args) -> tuple:
    phi = parse_young(args.kind)
    if args.action == "evaluate":
        return [_row("value", phi.evaluate(args.at))], None
    if args.action == "inverse":
        return [_row("essential_inverse", phi.essential_inverse(args.at))], None
    if args.action == "classify":
        d2g = check_delta2(phi, "global")
        d2l = check_delta2(phi, "local", args.radius)
        steer = check_p_steered(phi, args.steer, args.radius)
        return [
            _row("zero_point", phi.zero_point()),
            _row("infinity_point", phi.infinity_point()),
            _row("sup_slope", phi.sup_slope()),
            _row("doubling_global", d2g["holds"]),
            _row("doubling_local", d2l["holds"]),
            _row(f"steered_at_{args.steer}", steer["steered"]),
        ], None
    rows = [_row("conjugate_value", phi.conjugate().evaluate(args.at))]
    if phi == YoungFunction.log_example() and not math.isnan(args.at):
        closed = log_example_conjugate(args.at)
        num = rows[0]["value"]
        err = 0.0 if num == closed else abs(num - closed) / (closed if closed > 0 else 1.0)
        rows.append(_check("closed_form_rel_error", err, args, 1e-6))
    return rows, None


def cmd_norm(args) -> tuple:
    g = _grid(args)
    if args.action == "mixed":
        F = load_field(args.input)
        phi, psi = parse_young(args.phi), parse_young(args.psi)
        d = F.grid.dimension // 2
        if args.flavor == "M":
            stages = ((tuple(range(d)), phi), (tuple(range(d, 2 * d)), psi))
        else:
            stages = ((tuple(range(d, 2 * d)), psi), (tuple(range(d)), phi))
        spec = MixedNormSpec(stages, parse_weight(args.weight))
        return [_row("mixed_norm", mixed_norm(F, spec))], None
    f = make_signal(args.input, g, args.seed)
    if args.action == "luxemburg":
        phi = parse_young(args.young)
        return [_row("luxemburg_norm", luxemburg_norm(f, phi, parse_weight(args.weight)))], None
    return [_row("modulation_norm", modulation_norm(f, parse_space(args.space)))], None


def cmd_transform(args) -> tuple:
    g = _grid(args)
    if args.action == "twisted":
        if args.input2 is None:
            raise argparse.ArgumentTypeError("transform twisted needs --input2")
        F = load_field(args.input)
        H = twisted_convolution(F, load_field(args.input2))
        return [_row("twisted_l2_norm", l2_norm(H))], H
    if args.action == "project":
        F = load_field(args.input)
        base = make_grid(F.grid.axes[0].n, F.grid.axes[0].half_extent,
                         F.grid.dimension // 2)
        phi = make_signal(args.window, base, args.seed)
        P = stft_projection(F, phi)
        PP = stft_projection(P, phi)
        err = l2_norm(Field(P.grid, PP.values - P.values)) / max(l2_norm(F), 1e-300)
        return [_row("projection_l2_norm", l2_norm(P)),
                _check("idempotence_rel_error", err, args, 1e-8)], P
    # stft and wigner: |T(f1, f2)|_2 = |f1|_2 |f2|_2 (Moyal)
    f1 = make_signal(args.input, g, args.seed)
    if args.action == "stft":
        f2 = make_signal(args.window, g, args.seed)
        T = stft(f1, f2)
        name, tol = "moyal_rel_error", 1e-8
    else:
        f2 = make_signal(args.input2 or args.input, g, args.seed)
        T = wigner(f1, f2, args.A)
        name, tol = "l2_product_rel_error", 1e-7
    product = l2_norm(f1) * l2_norm(f2)
    err = abs(l2_norm(T) - product) / max(product, 1e-300)
    return [_row(f"{args.action}_l2_norm", l2_norm(T)),
            _check(name, err, args, tol)], T


def cmd_psido(args) -> tuple:
    g = _grid(args)
    a = make_signal(args.symbol, phase_grid(g), args.seed)
    if args.action == "kernel":
        K = psido.kernel(a, args.A).matrix
        return ([_row("kernel_frobenius_norm", float(np.linalg.norm(K)) * g.weight)],
                Field(Grid((g.axes[0], g.axes[0])), K))
    if args.action == "opnorm":
        sym_space = parse_space(args.symbol_space) if args.symbol_space else None
        r = psido.estimate_operator_norm(
            a, args.A, parse_space(args.domain), parse_space(args.codomain),
            trials=args.trials, seed=args.seed, symbol_space=sym_space)
        rows = [_row("operator_norm_lower_bound", r["lower_bound"]),
                _row("method", r["method"])]
        if r["ratio_to_symbol_norm"] is not None:
            rows.append(_row("symbol_norm", r["symbol_norm"]))
            rows.append(_row("ratio_to_symbol_norm", r["ratio_to_symbol_norm"]))
        return rows, None
    f = make_signal(args.input, g, args.seed)
    if args.action == "apply":
        h = psido.apply(a, args.A, f)
        return [_row("output_l2_norm", l2_norm(h))], h
    r = psido.calculi_consistency(a, args.A1, args.A2, f)
    return [_check("calculi_max_error", r["max_error"], args, 1e-6)], None


def cmd_entropy(args) -> tuple:
    g = _grid(args)
    if args.action == "scan":
        lambdas = [float(t) for t in args.lambdas.split(",")]
        scan = gaussian_family_scan(lambdas)
        rows = [_row(f"entropy_lambda_{r['lam']:g}", r["entropy"])
                for r in scan["rows"]]
        rows.append(_row("constant_fit", scan["constant_fit"]))
        rows.append(_check("constant_spread", scan["constant_spread"], args, 1e-4))
        # the table's M^Phi norms are the expensive part: only for --out
        return rows, lambda_family_table(lambdas) if args.out else None
    f = make_signal(args.input, g, args.seed)
    if args.action == "probe":
        direction = make_signal(args.direction, g, args.seed)
        amplitudes = [float(t) for t in args.amplitudes.split(",")]
        r = continuity_probe(f, direction, amplitudes, parse_space(args.space))
        rows = [_row(f"delta_entropy_amp_{row['amplitude']:g}",
                     {"space_norm": row["space_norm"],
                      "delta_entropy": row["delta_entropy"]})
                for row in r["rows"]]
        rows.append(_row("fitted_constant", r["fitted_constant"]))
        return rows, None
    w = make_signal(args.window, g, args.seed) if args.window else None
    if args.action == "eval":
        r = entropy_functional(f, w)
        return [_row("entropy", r.value),
                _row("l2_norm_f", r.l2_norm_f),
                _row("l2_norm_window", r.l2_norm_window)], None
    r = lieb_bound_check(f, w)
    # the bound row passes when the entropy is at least the bound
    return [_row("entropy", r["entropy"]),
            _row("bound", r["bound"], r["bound"], r["satisfied"])], None


def _criterion(name: str):
    return lambda args: [dict(verify.CRITERIA)[name]()]


_VERIFY = {
    "holder": lambda a: [verify.holder_inequality(trials=a.trials, seed=a.seed)],
    "young-conv": lambda a: [verify.young_convolution_inequality(
        trials=a.trials, seed=a.seed)],
    "moyal": lambda a: [verify.moyal_isometry(
        n=a.N, half_extent=a.L, trials=a.trials, seed=a.seed, tol=1e-8 if a.tol is None else a.tol)],
    "reproducing": _criterion("twisted_reproducing"),
    "projection": _criterion("stft_inversion_projection"),
    "rank-one": _criterion("rank_one_duality"),
    "hypotheses": _criterion("hypothesis_checkers"),
    "all": lambda a: verify.run_all()["results"],
}


def cmd_verify(args) -> tuple:
    return [_row(r["name"], r["value"], r["tolerance"], r["passed"])
            for r in _VERIFY[args.action](args)], None


# -- argument tree ---------------------------------------------------------------


def _nonnegative(text: str) -> float:
    """A float argument in [0, inf]; nan passes through and is reported."""
    x = float(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return x


def _tolerance(text: str) -> float:
    """A tolerance argument: as _nonnegative, but nan is refused too."""
    if math.isnan(float(text)):
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return _nonnegative(text)


def _at_least_one(text: str) -> int:
    """A count argument: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return n


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    one; nothing in it changes while a request is parsed."""
    top = argparse.ArgumentParser(
        prog="orlicztf",
        description="Numerical laboratory for Orlicz-normed time-frequency "
                    "analysis: Young-function machinery, modulation norms, "
                    "quadratic representations, quantizations, and the "
                    "spectrogram entropy functional.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, default=256, help="samples per axis")
    common.add_argument("--L", type=float, default=12.0, help="half extent")
    common.add_argument("--d", type=int, default=1, help="dimension")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--trials", type=_at_least_one, default=100)
    common.add_argument("--tol", type=_tolerance, default=None,
                        help="override the default tolerance")
    common.add_argument("--out", type=str, default=None,
                        help="write the command's data or report here")
    common.add_argument("--format", choices=("json", "csv"), default="json")

    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("young", parents=[common], help="Young-function calculus")
    p.add_argument("action", choices=("evaluate", "conjugate", "inverse", "classify"))
    p.add_argument("--kind", required=True, help="Young spec")
    p.add_argument("--at", type=_nonnegative, default=1.0)
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--steer", type=float, default=2.0)
    p.set_defaults(handler=cmd_young)

    p = sub.add_parser("norm", parents=[common], help="Orlicz and modulation norms")
    p.add_argument("action", choices=("luxemburg", "mixed", "modulation"))
    p.add_argument("--input", required=True, help="signal spec or field file")
    p.add_argument("--young", default="power:2", help="luxemburg: Young spec")
    p.add_argument("--phi", default="power:2")
    p.add_argument("--psi", default="power:2")
    p.add_argument("--flavor", choices=("M", "W"), default="M")
    p.add_argument("--space", default="M2", help="modulation: space spec")
    p.add_argument("--weight", default="one")
    p.set_defaults(handler=cmd_norm)

    p = sub.add_parser("transform", parents=[common],
                       help="time-frequency transforms")
    p.add_argument("action", choices=("stft", "wigner", "twisted", "project"))
    p.add_argument("--input", required=True)
    p.add_argument("--input2", default=None)
    p.add_argument("--window", default="gaussian:1")
    p.add_argument("--A", type=float, default=0.5,
                   help="quantization parameter t (A = tI)")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("psido", parents=[common],
                       help="pseudo-differential operators")
    p.add_argument("action", choices=("kernel", "apply", "opnorm", "calculi"))
    p.add_argument("--symbol", required=True, help="signal spec on phase space")
    p.add_argument("--input", default="mix")
    p.add_argument("--A", type=float, default=0.0)
    p.add_argument("--A1", type=float, default=0.0)
    p.add_argument("--A2", type=float, default=0.5)
    p.add_argument("--domain", default="M2")
    p.add_argument("--codomain", default="M2")
    p.add_argument("--symbol-space", dest="symbol_space", default=None)
    p.set_defaults(handler=cmd_psido)

    p = sub.add_parser("entropy", parents=[common],
                       help="spectrogram entropy functional")
    p.add_argument("action", choices=("eval", "scan", "lieb", "probe"))
    p.add_argument("--input", default="gaussian:1")
    p.add_argument("--window", default=None)
    p.add_argument("--lambdas", default="0.25,1,4")
    p.add_argument("--direction", default="hermite:2")
    p.add_argument("--amplitudes", default="0.3,0.1,0.03,0.01")
    p.add_argument("--space", default="MPhi", help="space spec")
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("verify", parents=[common],
                       help="named verification batteries")
    p.add_argument("action", choices=tuple(_VERIFY))
    p.set_defaults(handler=cmd_verify)

    return top


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # a report prints every non-finite value as "nan" or "inf", so
        # numpy's floating-point warnings would only repeat it on stderr
        with np.errstate(all="ignore"):
            rows, data = args.handler(args)
            report = {
                "schema": 1,
                "command": args.command + " " + getattr(args, "action", ""),
                "config": {k: v for k, v in sorted(vars(args).items()) if not callable(v)},
                "results": rows,
                "timing_ms": round((time.perf_counter() - t0) * 1000.0, 3),
            }
            if args.out:
                _save(report if data is None else data, args.out, args.format)
    except (argparse.ArgumentTypeError, ValueError, OSError, MemoryError) as exc:
        # an --out or input path that cannot be opened is a usage error too,
        # and so is a request too large to allocate (a bare MemoryError has
        # no message)
        parser.error(str(exc) or "not enough memory for this request")
    try:
        print(json.dumps(_jsonable(report), indent=2), flush=True)
    except BrokenPipeError:
        # the reader closed stdout: point it at the null device, so that the
        # flush at shutdown cannot raise again, and exit as for an --out path
        # that cannot be opened
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0 if all(r["pass"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
