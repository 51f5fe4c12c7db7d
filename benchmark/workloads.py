"""One workload run in a fresh process: set-up, timed rounds, output checks
and, with --trace 1, one further traced round.

Started by run.py, which sets BENCH_T0 to its monotonic clock just before
the process starts, so that setup_s covers interpreter start, `import
orlicztf`, input generation and one untimed warm-up call of every operation
class the workload times.  The last line of standard output is one JSON
object with the run's figures.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import resource
import statistics
import sys
import time
import warnings

T0 = float(os.environ.get("BENCH_T0", time.monotonic()))

import numpy as np  # noqa: E402

import orlicztf  # noqa: E402
# Program calls go through module attributes, so that the traced round
# reaches the wrappers spans.Tracer installs in the package's namespaces.
from orlicztf import cli, modspace, orlicz, psido, tfa, verify  # noqa: E402
from orlicztf.field import (  # noqa: E402
    Axis,
    Field,
    Grid,
    make_gaussian,
    make_gaussian_mix,
    make_grid,
    phase_grid,
)
from orlicztf.modspace import ModulationSpaceSpec  # noqa: E402
from orlicztf.orlicz import MixedNormSpec  # noqa: E402
from orlicztf.young import YoungFunction  # noqa: E402

from spans import Tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")


class Workload:
    """Counts operations; an operation fails when it raises or its output
    check fails.  Only the known program faults of cli_requests may fail
    without making the run incorrect."""

    def __init__(self, seed: int, tracer: Tracer, min_successes: int):
        self.seed = seed
        self.tracer = tracer
        self.min_successes = min_successes
        self.attempted = 0
        self.failed = 0
        self.unexpected = []
        self.latencies = []  # seconds of each successful request, if any

    def op(self, ok: bool, what: str, known_fault: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not known_fault and len(self.unexpected) < 20:
                self.unexpected.append(what)

    def enough(self) -> bool:
        return True

    def details(self) -> dict:
        return {}


def _rel(err: float, scale: float) -> float:
    return err / scale if scale > 0 else err


def _quiet_gaussian(grid: Grid, lam: float = 1.0) -> Field:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return make_gaussian(grid, lam)


# -- battery -------------------------------------------------------------------

ENTROPY_SPLICE = math.exp(-1.5)


def entropy_young(t: np.ndarray) -> np.ndarray:
    """-t^2 log t up to e^{-3/2}, its tangent line beyond."""
    t = np.asarray(t, dtype=float)
    safe = np.where(t > 0, t, 1.0)
    small = np.where(t > 0, -t * t * np.log(safe), 0.0)
    tangent = 2.0 * ENTROPY_SPLICE * t - 0.5 * math.exp(-3.0)
    return np.where(t <= ENTROPY_SPLICE, small, tangent)


def luxemburg_by_bisection(a: np.ndarray, w: float, phi) -> float:
    """inf{lam > 0 : w sum phi(a / lam) <= 1}, bisected to adjacent floats."""
    a = np.abs(np.asarray(a))

    def fits(lam):
        return w * float(np.sum(phi(a / lam))) <= 1.0

    hi = 1.0
    while not fits(hi):
        hi *= 2.0
    lo = hi
    while fits(lo):
        lo *= 0.5
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if fits(mid):
            hi = mid
        else:
            lo = mid


class Battery(Workload):
    """One pass of verify.run_all() at the program's defaults per round."""

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.grid = make_grid()
        self.grid2 = Grid((Axis(8, 2.0), Axis(256, 12.0)))
        self.rows = (rng.standard_normal((8, 256))
                     + 1j * rng.standard_normal((8, 256))) / math.sqrt(2.0)
        self.young = {
            "power2": YoungFunction.power(2),
            "power3": YoungFunction.power(3),
            "entropy": YoungFunction.entropy(),
            "log_example": YoungFunction.log_example(),
            "tan_example": YoungFunction.tan_example(),
        }
        self.warm_up()

    def warm_up(self) -> None:
        small = dict(n=32, half_extent=6.0)
        verify.moyal_isometry(trials=1, **small)
        verify.gaussian_stft_closed_form(**small)
        verify.stft_inversion_projection(trials=1, **small)
        verify.twisted_reproducing(n=16, half_extent=4.0, trials=1)
        verify.holder_young_inequalities(trials=2)
        ts = np.array([0.01])
        YoungFunction.log_example().conjugate()._eval_array(ts)
        YoungFunction.power(3).conjugate().conjugate()._eval_array(ts)
        verify.rank_one_duality(**small)
        verify.calculi_transfer(transfer_n=32, transfer_half_extent=8.0, **small)
        verify.entropy_lower_bound(trials=1, **small)
        verify.entropy_discontinuity(**small)
        verify.hypothesis_checkers(count=1)
        a = make_gaussian_mix(phase_grid(make_grid(32, 12.0)), 1)
        for cfg in verify._opnorm_configs():
            psido.estimate_operator_norm(a, 0.0, cfg["domain"], cfg["codomain"],
                                         trials=1, symbol_space=cfg["symbol_space"])
        verify.embedding_lattice()

    def round(self) -> float:
        with self.tracer.span("round.battery"):
            t = time.perf_counter()
            report = verify.run_all()
            wall = time.perf_counter() - t
        with self.tracer.paused():
            for r in report["results"]:
                self.op(r["passed"], f"criterion {r['name']} did not pass")
            self.check()
        return wall

    def check(self) -> None:
        """Norms against the benchmark's own bisection and closed forms, and
        Fenchel-Young for the conjugates; one operation per program call."""
        w = self.grid.weight
        ent = self.young["entropy"]
        for i in range(5):
            got = orlicz.luxemburg_norm(Field(self.grid, self.rows[i]), ent)
            want = luxemburg_by_bisection(self.rows[i], w, entropy_young)
            self.op(abs(got - want) <= 1e-10 * want,
                    f"entropy Luxemburg norm of row {i}: {got!r} vs {want!r}")
        spec = MixedNormSpec((((1,), ent), ((0,), ent)))
        got = orlicz.mixed_norm(Field(self.grid2, self.rows), spec)
        inner = [luxemburg_by_bisection(r, self.grid2.axes[1].spacing, entropy_young)
                 for r in self.rows]
        want = luxemburg_by_bisection(np.array(inner), self.grid2.axes[0].spacing,
                                      entropy_young)
        self.op(abs(got - want) <= 1e-9 * want,
                f"entropy mixed norm: {got!r} vs {want!r}")

        a = np.abs(self.rows[5])
        for phi, c, p in ((YoungFunction.power(1.5), 1.0, 1.5),
                          (YoungFunction.power(2), 1.0, 2.0),
                          (YoungFunction.power(3), 1.0, 3.0),
                          (YoungFunction.power_scaled(2), 0.5, 2.0)):
            got = orlicz.luxemburg_norm(Field(self.grid, self.rows[5]), phi)
            want = (c * w * float(np.sum(a ** p))) ** (1.0 / p)
            self.op(abs(got - want) <= 1e-12 * want,
                    f"{phi.kind}({p}) Luxemburg norm {got!r} vs closed form {want!r}")

        for label, phi in self.young.items():
            self.op(fenchel_young_ok(phi), f"Fenchel-Young fails for {label}")


def fenchel_young_ok(phi: YoungFunction) -> bool:
    """Phi(s) + Phi*(t) >= s t on a grid, with equality at t = Phi'(s)."""
    conj = phi.conjugate()
    t2 = phi.infinity_point()
    s = np.geomspace(1e-3, 0.9 * t2 if math.isfinite(t2) else 5.0, 40)
    slope = min(phi.sup_slope(), 20.0)
    t = np.geomspace(1e-3, 0.9 * slope, 40)
    ps, ct = phi.evaluate(s), conj.evaluate(t)
    st = np.outer(s, t)
    lhs = ps[:, None] + ct[None, :]
    inequality = bool(np.all(lhs - st >= -1e-12 * (lhs + st)))
    ts = phi.derivative(s)
    at = ps + conj.evaluate(ts)
    equality = bool(np.all(np.abs(at - s * ts) <= 1e-9 * np.maximum(at, 1e-300)))
    return inequality and equality


# -- phase_space_sweep -----------------------------------------------------------

SWEEP_T = {128: (0.0, 0.3, 0.5, 0.7), 256: (0.0, 0.3, 0.5)}
SWEEP_L = {128: 10.0, 256: 12.0, 512: 12.0}


def _l2(values: np.ndarray, weight: float) -> float:
    return math.sqrt(float(np.sum(np.abs(values) ** 2)) * weight)


class PhaseSpaceSweep(Workload):
    """A fixed mix of phase-space operations on seeded Gaussian mixtures."""

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        seeds = iter(int(s) for s in rng.integers(1, 2**31 - 1, size=16))
        self.sig = {}
        for n in (128, 256):
            g = make_grid(n, SWEEP_L[n])
            f1, f2, h = (make_gaussian_mix(g, next(seeds)) for _ in range(3))
            phi = _quiet_gaussian(g)
            self.sig[n] = dict(grid=g, f1=f1, f2=f2, h=h, phi=phi,
                               Vphi=tfa.stft(phi, phi), Vf=tfa.stft(f1, phi))
        g = make_grid(512, SWEEP_L[512])
        self.sig[512] = dict(grid=g, phi=_quiet_gaussian(g),
                             fs=[make_gaussian_mix(g, next(seeds)) for _ in range(3)])
        g1, g2 = make_grid(48, 8.0), make_grid(48, 8.0, 2)
        a, b = make_gaussian_mix(g1, next(seeds)), make_gaussian_mix(g1, next(seeds))
        self.sig[48] = dict(grid=g1, a=a, b=b,
                            ab=Field(g2, np.multiply.outer(a.values, b.values)))
        self.mpq = ModulationSpaceSpec(YoungFunction.power(1.5), YoungFunction.power(3))
        self.p2 = YoungFunction.power(2)
        self.warm_up()

    def warm_up(self) -> None:
        g = make_grid(32, 6.0)
        f, phi = make_gaussian_mix(g, 1), _quiet_gaussian(g)
        for t in SWEEP_T[128]:
            psido.apply(tfa.wigner(f, f, t), t, f)
        V = tfa.stft(f, phi)
        tfa.twisted_convolution(V, V)
        tfa.stft_projection(V, phi)
        tfa.stft_adjoint(V, phi)
        g8 = make_grid(8, 4.0, 2)
        modspace.modulation_norm(Field(g8, np.ones(g8.shape)), self.mpq)
        small = make_gaussian_mix(make_grid(8, 4.0), 2)
        modspace.stft_norm_factorization_check(small, small, self.p2, self.p2)

    def timed(self, fn, *args):
        """fn(*args), adding its time to the round's wall time."""
        t = time.perf_counter()
        out = fn(*args)
        self.wall += time.perf_counter() - t
        return out

    def round(self) -> float:
        """Each output is checked, outside the timed calls, and dropped before
        the next call, so the heap does not grow over a round."""
        self.wall = 0.0
        with self.tracer.span("round.phase_space_sweep"):
            for n, ts in SWEEP_T.items():
                s = self.sig[n]
                for t in ts:
                    W = self.timed(tfa.wigner, s["f1"], s["f2"], t)
                    g = self.timed(psido.apply, W, t, s["h"])
                    with self.tracer.paused():
                        self.check_wigner(n, t, W.values, g.values)
                R = self.timed(tfa.twisted_convolution, s["Vphi"], s["Vf"])
                with self.tracer.paused():
                    self.check_twisted(n, R.values)
            s = self.sig[512]
            for i, f in enumerate(s["fs"]):
                V = self.timed(tfa.stft, f, s["phi"])
                rec = self.timed(tfa.stft_adjoint, V, s["phi"])
                P = self.timed(tfa.stft_projection, V, s["phi"])
                with self.tracer.paused():
                    self.check_stft(f.values, V.values, rec.values, P.values)
            s = self.sig[48]
            norms = [self.timed(modspace.modulation_norm, s[k], self.mpq)
                     for k in ("ab", "a", "b")]
            r = self.timed(modspace.stft_norm_factorization_check, s["a"], s["b"],
                           self.p2, self.p2)
            with self.tracer.paused():
                self.check_norms(norms, r)
        return self.wall

    def check_wigner(self, n: int, t: float, W: np.ndarray, g: np.ndarray) -> None:
        s = self.sig[n]
        L = SWEEP_L[n]
        dx, dxi = 2.0 * L / n, math.pi / L
        f1, f2, h = s["f1"].values, s["f2"].values, s["h"].values
        moyal = _l2(f1, dx) * _l2(f2, dx)
        err = _rel(abs(_l2(W, dx * dxi) - moyal), moyal)
        self.op(err <= 1e-8, f"Moyal identity at N={n}, t={t}: error {err:.3g}")
        target = (2.0 * math.pi) ** -0.5 * complex(np.sum(h * np.conj(f2)) * dx) * f1
        err = _rel(float(np.abs(g - target).max()), float(np.abs(target).max()))
        self.op(err <= 1e-6, f"rank-one identity at N={n}, t={t}: error {err:.3g}")

    def check_twisted(self, n: int, R: np.ndarray) -> None:
        s = self.sig[n]
        phi2 = _l2(s["phi"].values, 2.0 * SWEEP_L[n] / n) ** 2
        V = s["Vf"].values
        err = _rel(float(np.abs(R / phi2 - V).max()), float(np.abs(V).max()))
        self.op(err <= 1e-6, f"twisted reproducing at N={n}: error {err:.3g}")

    def check_stft(self, f, V, rec, P) -> None:
        dx = 2.0 * SWEEP_L[512] / 512
        dxi = math.pi / SWEEP_L[512]
        nphi = _l2(self.sig[512]["phi"].values, dx)
        want = _l2(f, dx) * nphi
        err = _rel(abs(_l2(V, dx * dxi) - want), want)
        self.op(err <= 1e-8, f"STFT Moyal at N=512: error {err:.3g}")
        err = _rel(_l2(rec / nphi ** 2 - f, dx), _l2(f, dx))
        self.op(err <= 1e-8, f"STFT inversion at N=512: error {err:.3g}")
        err = _rel(_l2(P - V, dx * dxi), _l2(V, dx * dxi))
        self.op(err <= 1e-8, f"projection of an STFT at N=512: error {err:.3g}")

    def check_norms(self, norms: list, r: dict) -> None:
        ab, a, b = norms
        err = _rel(abs(ab - a * b), a * b)
        for _ in norms:
            self.op(err <= 1e-10, f"d=2 tensor-product norm: error {err:.3g}")
        s = self.sig[48]
        dx = 16.0 / 48
        dxi = math.pi / 8.0
        x = -8.0 + dx * np.arange(48)
        xi = -math.pi / dx + dxi * np.arange(48)
        win2 = math.pi ** -0.5 * np.exp(-0.5 * (x[:, None] ** 2 + xi[None, :] ** 2))
        na, nb = _l2(s["a"].values, dx), _l2(s["b"].values, dx)
        nphi = _l2(_quiet_gaussian(s["grid"]).values, dx)
        lhs_want = na * nb * _l2(win2, dx * dxi)
        rhs_want = na * nphi * nb * nphi
        err = max(_rel(abs(r["lhs"] - lhs_want), lhs_want),
                  _rel(abs(r["rhs"] - rhs_want), rhs_want))
        self.op(err <= 1e-8, f"norm factorization at N=48: error {err:.3g}")


# -- cli_requests ----------------------------------------------------------------


def _reject_constant(token):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def log_example_conjugate(t: float) -> float:
    """Closed form of the Legendre transform of -t/log t at t > 0."""
    root = math.sqrt(0.25 + t)
    return (t + 0.5 - root) * math.exp(-(0.5 + root) / t)


@dataclasses.dataclass
class Request:
    name: str
    argv: list
    expect: str = "ok"  # "ok", "usage" or "known_fault"
    check: object = None  # check(report, text) -> bool on a strict-JSON report


class CliRequests(Workload):
    """A fixed cycle of in-process cli.main(argv) calls, repeated until
    enough requests have succeeded for the run's percentiles."""

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.s = [int(v) for v in rng.integers(1, 10**6, size=6)]
        self.hermite = int(rng.integers(0, 6))
        self.at = round(float(rng.uniform(0.005, 0.05)), 6)
        self.dir = os.path.join(OUT, "cli")
        os.makedirs(self.dir, exist_ok=True)
        self.files = {k: os.path.relpath(os.path.join(self.dir, v), ROOT)
                      for k, v in (("V", "V.json"), ("Vc", "V.csv"), ("W", "W.csv"),
                                   ("K", "K.csv"), ("scan", "scan.csv"))}
        self.cycle = self.requests(self.files)
        self.by_request = {req.name: [] for req in self.cycle}
        self.successes = 0
        warm = {k: os.path.join(os.path.dirname(v), "warm_" + os.path.basename(v))
                for k, v in self.files.items()}
        for req in self.requests(warm):
            self.call(req.argv + ["--N", "32", "--L", "6"])
        g = make_grid()
        # what the library returns for the inputs of the --out requests
        self.v_want = tfa.stft(make_gaussian_mix(g, self.s[0]), _quiet_gaussian(g))

    def requests(self, files) -> list:
        s, h = self.s, self.hermite
        V, Vc, W, K, scan = (files[k] for k in ("V", "Vc", "W", "K", "scan"))
        return [
            Request("stft_out_json", ["transform", "stft", "--input", f"mix:{s[0]}",
                                      "--window", "gaussian:1", "--out", V],
                    check=self.check_v_file),
            Request("stft_out_csv", ["transform", "stft", "--input", f"mix:{s[0]}",
                                     "--window", "gaussian:1", "--out", Vc],
                    check=self.check_vc_file),
            Request("wigner_out_csv", ["transform", "wigner", "--input", f"mix:{s[1]}",
                                       "--A", "0.5", "--out", W]),
            Request("kernel_out_csv", ["psido", "kernel", "--symbol", f"mix:{s[2]}",
                                       "--A", "0.5", "--out", K]),
            Request("mixed_json", ["norm", "mixed", "--input", V,
                                   "--phi", "power:1", "--psi", "power:3"]),
            Request("project_json", ["transform", "project", "--input", V,
                                     "--window", "gaussian:1"]),
            Request("mixed_csv", ["norm", "mixed", "--input", W,
                                  "--phi", "power:2", "--psi", "power:1"]),
            Request("evaluate", ["young", "evaluate", "--kind", "power:2", "--at", "3"],
                    check=lambda rep, _: rep["results"][0]["value"] == 9.0),
            Request("conjugate_closed", ["young", "conjugate", "--kind", "log_example",
                                         "--at", repr(self.at)],
                    check=self.check_conjugate),
            Request("luxemburg_weighted", ["norm", "luxemburg", "--input", f"noise:{s[3]}",
                                           "--young", "log_example",
                                           "--weight", "polynomial:1"]),
            Request("luxemburg_repeat_1", self.repeat_argv()),
            Request("luxemburg_repeat_2", self.repeat_argv(), check=self.check_repeat),
            Request("usage_error", ["norm", "luxemburg", "--input", f"bogus:{s[4]}"],
                    expect="usage"),
            Request("modulation_pq", ["norm", "modulation", "--input", f"mix:{s[5]}",
                                      "--space", "m:power:3:power:1.5"]),
            Request("lieb", ["entropy", "lieb", "--input", f"hermite:{h}"]),
            Request("opnorm", ["psido", "opnorm", "--symbol", f"mix:{s[2]}",
                               "--domain", "M2", "--codomain", "M2",
                               "--symbol-space", "m:power:2:power:2"]),
            Request("wigner_general_t", ["transform", "wigner", "--input", f"mix:{s[1]}",
                                         "--A", "0.3", "--N", "128"]),
            Request("scan_out_csv", ["entropy", "scan", "--lambdas", "1,2,4",
                                     "--out", scan]),
            Request("verify_holder", ["verify", "holder", "--trials", "20",
                                      "--seed", str(s[3])]),
            Request("space_m_conjugate", ["norm", "modulation", "--input", "gaussian:1",
                                          "--space", "m:conjugate"],
                    expect="known_fault"),
            Request("conjugate_at_zero", ["young", "conjugate", "--kind", "log_example",
                                          "--at", "0"],
                    expect="known_fault", check=self.check_conjugate_zero),
            Request("evaluate_at_nan", ["young", "evaluate", "--kind", "power:2",
                                        "--at", "nan"],
                    expect="known_fault"),
        ]

    def repeat_argv(self) -> list:
        return ["norm", "luxemburg", "--input", f"mix:{self.s[0]}", "--young", "entropy",
                "--N", "64", "--L", "8"]

    # -- checks on single reports -------------------------------------------

    def check_conjugate(self, rep, _text) -> bool:
        rows = {r["name"]: r for r in rep["results"]}
        got = rows["conjugate_value"]["value"]
        want = log_example_conjugate(self.at)
        return abs(got - want) <= 1e-6 * want and rows["closed_form_rel_error"]["pass"]

    @staticmethod
    def check_conjugate_zero(rep, _text) -> bool:
        return rep["results"][0]["value"] == 0.0

    def check_repeat(self, _rep, text) -> bool:
        strip = re.compile(r'"timing_ms": [^\n]*')
        return strip.sub("", text) == strip.sub("", self.last_repeat_text)

    def check_v_file(self, _rep, _text) -> bool:
        with open(os.path.join(ROOT, self.files["V"])) as fh:
            doc = json.load(fh)
        if doc["grid"]["N"] != [256, 256] or doc["grid"]["roles"] != ["x", "xi"]:
            return False
        got = np.array(doc["re"]) + 1j * np.array(doc["im"])
        return self.matches_v(got)

    def check_vc_file(self, _rep, _text) -> bool:
        with open(os.path.join(ROOT, self.files["Vc"])) as fh:
            header = fh.readline()
            cells = [line.rsplit(",", 2) for line in fh if line.strip()]
        if "N=256,256" not in header:
            return False
        got = np.array([complex(float(c[-2]), float(c[-1])) for c in cells])
        return self.matches_v(got)

    def matches_v(self, got: np.ndarray) -> bool:
        want = self.v_want.values.reshape(-1)
        return got.shape == want.shape and float(np.abs(got - want).max()) <= 1e-12 * float(
            np.abs(want).max())

    # -- requests ------------------------------------------------------------

    def call(self, argv):
        """(seconds, exit code or None, exception or None, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # a fault in the program: the request failed
            exc = e
        return time.perf_counter() - t, code, exc, out.getvalue(), err.getvalue()

    def judge(self, req: Request, code, exc, text: str, err: str) -> tuple:
        """(succeeded, output as expected, reason)."""
        if exc is not None:
            return False, False, f"raised {type(exc).__name__}: {exc}"
        if code == 2:
            usage = "error" in err or "usage" in err
            return usage, usage and req.expect in ("usage", "known_fault"), \
                f"exit 2: {err.strip()[-120:]}"
        if code not in (0, 1):
            return False, False, f"exit code {code!r}"
        try:
            rep = strict_json(text)
        except ValueError as e:
            return False, False, f"report is not strict JSON: {e}"
        ok = code == 0 and req.expect != "usage" and all(r["pass"] for r in rep["results"])
        if ok and req.check is not None:
            ok = bool(req.check(rep, text))
        return code == 0, ok, f"exit {code}, output check failed"

    def round(self) -> float:
        total = 0.0
        for req in self.cycle:
            with self.tracer.span("request." + req.name):
                dt, code, exc, text, err = self.call(req.argv)
            with self.tracer.paused():
                succeeded, as_expected, why = self.judge(req, code, exc, text, err)
            if req.name == "luxemburg_repeat_1":
                self.last_repeat_text = text
            self.tracer.count("cli.report_bytes", len(text.encode()))
            total += dt
            self.op(succeeded and as_expected, f"{req.name}: {why}",
                    known_fault=req.expect == "known_fault" and not succeeded)
            if succeeded:
                self.successes += 1
                self.latencies.append(dt)
            self.by_request[req.name].append(dt)
        return total

    def enough(self) -> bool:
        return self.successes >= self.min_successes

    def details(self) -> dict:
        return {"request_ms": {k: [round(1000.0 * x, 3) for x in v]
                               for k, v in self.by_request.items()}}


WORKLOADS = {
    "battery": Battery,
    "phase_space_sweep": PhaseSpaceSweep,
    "cli_requests": CliRequests,
}


# -- per-layer metrics -------------------------------------------------------------


def per_layer(tr: Tracer, traced_wall: float, wall: float) -> dict:
    """Per-layer figures of one traced round."""
    m = {
        "young.eval.calls": (tr.calls("young.eval"), "count"),
        "young.eval.points": (tr.size("young.eval"), "count"),
        "young.deriv.calls": (tr.calls("young.deriv"), "count"),
        "young.deriv.points": (tr.size("young.deriv"), "count"),
        "young.self_s": (tr.self_s("young.", prefix=True), "s"),
        "orlicz.luxemburg.calls": (tr.calls("orlicz.luxemburg"), "count"),
        "orlicz.luxemburg.rows": (tr.size("orlicz.luxemburg"), "count"),
        "orlicz.luxemburg.self_s": (tr.self_s("orlicz.luxemburg"), "s"),
        "orlicz.luxemburg.gauge_evals": (
            tr.calls("young.eval", parent="orlicz.luxemburg"), "count"),
        "orlicz.mixed_norm.self_s": (tr.self_s("orlicz.mixed_norm"), "s"),
        "weights.evaluate.calls": (tr.calls("weights.evaluate"), "count"),
        "weights.evaluate.self_s": (tr.self_s("weights.evaluate"), "s"),
        "fft.calls": (tr.calls("fft"), "count"),
        "fft.points": (tr.size("fft"), "count"),
        "field.io.self_s": (tr.self_s("field.io"), "s"),
        "field.io.bytes": (tr.size("field.io"), "B"),
        "field.make.self_s": (tr.self_s("field.make"), "s"),
        "tfa.stft.calls": (tr.calls("tfa.stft"), "count"),
        "tfa.stft.self_s": (tr.self_s("tfa.stft"), "s"),
        "tfa.stft_adjoint.self_s": (tr.self_s("tfa.stft_adjoint"), "s"),
        "tfa.wigner.lattice_t.self_s": (tr.self_s("tfa.wigner.lattice_t"), "s"),
        "tfa.wigner.general_t.self_s": (tr.self_s("tfa.wigner.general_t"), "s"),
        "tfa.twisted_convolution.self_s": (tr.self_s("tfa.twisted_convolution"), "s"),
        "tfa.quantization_change.self_s": (tr.self_s("tfa.quantization_change"), "s"),
        "psido.kernel.lattice_t.self_s": (tr.self_s("psido.kernel.lattice_t"), "s"),
        "psido.kernel.general_t.self_s": (tr.self_s("psido.kernel.general_t"), "s"),
        "psido.estimate_operator_norm.self_s": (
            tr.self_s("psido.estimate_operator_norm"), "s"),
        "psido.symbol_norm.self_s": (tr.self_s("psido.symbol_norm"), "s"),
        "modspace.modulation_norm.calls": (tr.calls("modspace.modulation_norm"), "count"),
        "modspace.modulation_norm.self_s": (tr.self_s("modspace.modulation_norm"), "s"),
        "entropy.entropy.calls": (tr.calls("entropy.entropy"), "count"),
        "entropy.entropy.self_s": (tr.self_s("entropy.entropy"), "s"),
    }
    for name, _ in verify.CRITERIA:
        m[f"verify.{name}.s"] = (tr.total_s("verify." + name), "s")
    m["cli.self_s"] = (tr.self_s("cli.main"), "s")
    m["cli.report_bytes"] = (tr.counters.get("cli.report_bytes", 0), "B")
    m["modspace.alloc_peak_mb"] = (tr.alloc_peak_bytes / 2**20, "MiB")
    m["trace.overhead_s"] = (traced_wall - wall, "s")
    return m


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--min-successes", type=int, default=0,
                   help="cli_requests: keep cycling until this many requests succeeded")
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(orlicztf.__file__), src]) != src:
        print(f"orlicztf was imported from {orlicztf.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = Tracer()
    wl = WORKLOADS[args.workload](args.seed, tracer, args.min_successes)
    wl.setup()
    setup_s = time.monotonic() - T0
    result = {"setup_s": setup_s}
    if not args.setup_only:
        walls = []
        start = time.monotonic()
        while True:
            walls.append(wl.round())
            if time.monotonic() - start >= args.seconds and wl.enough():
                break
        result.update(
            walls_s=walls,
            latencies_ms=[1000.0 * v for v in wl.latencies],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            details=wl.details(),
        )
        if args.trace:
            tracer.install()
            try:
                traced_wall = wl.round()
            finally:
                tracer.uninstall()
            result["per_layer"] = per_layer(tracer, traced_wall, statistics.median(walls))
            result["edges"] = tracer.edge_table()
        result.update(attempted=wl.attempted, failed=wl.failed,
                      unexpected=wl.unexpected)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
