"""Acceptance battery: every named verification criterion must pass at its
stated tolerance.  Each case prints a single PASS/FAIL line with the measured
value, visible with `pytest -v -rA` or `-s`."""

import tracemalloc

import numpy as np
import pytest

from orlicztf import YoungFunction, psido, verify
from orlicztf.field import make_gaussian_mix, make_grid, phase_grid

CRITERIA = list(verify.CRITERIA)
RECORD_KEYS = ["name", "value", "tolerance", "passed", "timing_ms", "details"]


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    # the call run_all makes for this registry entry
    record = fn()
    assert list(record) == RECORD_KEYS and record["name"] == name
    verdict = "PASS" if record["passed"] else "FAIL"
    line = (f"{verdict} {name}: value={record['value']} "
            f"tolerance={record['tolerance']}")
    print(line)
    assert record["passed"], line


def test_battery_is_complete():
    assert len(CRITERIA) == 14


def test_run_all_aggregates():
    out = verify.run_all(names=["moyal_isometry", "embedding_lattice"])
    assert out["all_passed"]
    assert [r["name"] for r in out["results"]] \
        == ["moyal_isometry", "embedding_lattice"]
    assert all(list(r) == RECORD_KEYS for r in out["results"])
    with pytest.raises(KeyError, match="unknown criteria"):
        verify.run_all(names=["moyal_isometry", "nosuch"])


def test_holder_young_inequalities_composes_the_two_inequalities():
    """The joint criterion is the worse of the two, passes when both do,
    and reports the same per-triple ratios."""
    kw = dict(trials=100, seed=7)
    h = verify.holder_inequality(**kw)
    y = verify.young_convolution_inequality(**kw)
    both = verify.holder_young_inequalities(**kw)
    assert both["value"] == max(h["value"], y["value"])
    assert both["tolerance"] == h["tolerance"] == y["tolerance"] == 2.0
    assert both["passed"] == (h["passed"] and y["passed"])
    assert both["details"] == {"holder": h["details"]["per_triple"],
                               "young": y["details"]["per_triple"], **kw}
    assert [r["name"] for r in (h, y, both)] == [
        "holder_inequality", "young_convolution_inequality", "holder_young_inequalities"]


P1, P2 = YoungFunction.power(1), YoungFunction.power(2)


def test_inequality_verifier_bounds_a_product_triple():
    worst, ok, (per, conv) = verify._inequalities([("p1_p2_p2", (P1, P2, P2))], (), 50, 0)
    assert ok and worst == per["p1_p2_p2"] <= 2.0 and conv == {}


def test_inequality_verifier_bounds_a_convolution_triple():
    worst, ok, (prod, per) = verify._inequalities((), [("p1_p1_p1", (P1, P1, P1))], 50, 0)
    assert ok and worst == per["p1_p1_p1"] <= 2.0 and prod == {}


def test_inequality_verifier_fails_a_triple_meeting_no_premise():
    """(power 2, power 1, power 1) meets neither premise of either
    inequality: s^2 > s^(1/2) and s^2 > s s^(1/2) for s > 1, and
    (t1 t2)^2 > t1 + t2 for large t.  Its ratios are far below 2, so only
    the premise fails it."""
    triple = [("p2_p1_p1", (P2, P1, P1))]
    for products, convolutions in ((triple, ()), ((), triple)):
        worst, ok, _ = verify._inequalities(products, convolutions, 50, 0)
        assert worst <= 2.0 and not ok


def test_inequality_rows_drawn_once(monkeypatch):
    """holder_young_inequalities draws its random rows once, for the product
    triples and the convolution triples both, and each triple's ratio is the
    one the verifier reports for that triple alone."""
    calls = []
    default_rng = np.random.default_rng

    def counted(*args):
        calls.append(args)
        return default_rng(*args)

    monkeypatch.setattr(np.random, "default_rng", counted)
    rec = verify.holder_young_inequalities(trials=40, seed=3)
    assert calls == [(3,)]
    monkeypatch.undo()
    for key, triples in (("holder", verify.HOLDER_TRIPLES), ("young", verify.YOUNG_TRIPLES)):
        for triple in triples:
            products, convolutions = ([triple], ()) if key == "holder" else ((), [triple])
            alone = verify._inequalities(products, convolutions, 40, 3)[0]
            assert repr(rec["details"][key][triple[0]]) == repr(alone)


def test_holder_young_inequalities_peak_memory():
    """The criterion's 1000 x 256 Luxemburg batches are solved a block of
    rows at a time: its traced peak is 15.9 MiB, within a bound of 20 MiB
    (33.6 MiB when each batch was solved whole)."""
    tracemalloc.start()
    try:
        verify.holder_young_inequalities()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2 ** 20


def test_opnorm_ratio_stability_takes_no_symbol_norm(monkeypatch):
    """No symbol norm, each lower bound that of estimate_operator_norm,
    and the value the largest change between the two grids."""
    calls = []
    monkeypatch.setattr(psido, "symbol_norm", lambda *args: calls.append(args))
    record = verify.opnorm_ratio_stability(count=2)
    assert calls == []
    monkeypatch.undo()
    configs = {cfg["label"]: cfg for cfg in verify._opnorm_configs()}
    rows = record["details"]["rows"]
    assert len(rows) == 4
    for row in rows:
        cfg = configs[row["config"]]
        lower = {}
        for n in (128, 256):
            a = make_gaussian_mix(phase_grid(make_grid(n, 12.0)), row["seed"])
            lower[n] = psido.estimate_operator_norm(
                a, 0.0, cfg["domain"], cfg["codomain"], trials=4, seed=42)["lower_bound"]
            assert row[f"lower_{n}"] == pytest.approx(lower[n], rel=1e-12, abs=0)
        assert row["change"] == max(row["lower_256"] / row["lower_128"],
                                    row["lower_128"] / row["lower_256"])
    assert record["value"] == max(row["change"] for row in rows)


def _counted(monkeypatch, module, name, calls):
    """Replace module.name by a wrapper that appends its arguments to calls."""
    fn = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, wrapper)


def test_calculi_transfer_builds_each_wigner_once(monkeypatch):
    """One Wigner distribution per t in {0, 1/2, 1} on the N=342 grid."""
    calls = []
    _counted(monkeypatch, verify, "wigner", calls)
    record = verify.calculi_transfer()
    assert record["passed"]
    assert sorted(t for f1, f2, t in calls if f1.grid.axes[0].n == 342) == [0.0, 0.5, 1.0]


def test_rank_one_duality_applies_each_operator_once(monkeypatch):
    """One Op_t(W) h per t: the duality pairing reuses the rank-one output."""
    calls = []
    _counted(monkeypatch, psido, "apply", calls)
    record = verify.rank_one_duality()
    assert record["passed"]
    assert [t for a, t, f in calls] == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("count", [2, 3])
def test_opnorm_ratio_stability_draws_probes_once_per_grid(monkeypatch, count):
    """2 configs x 2 grids x 4 trials domain norms, however many symbols."""
    probes = [make_gaussian_mix(make_grid(n, 12.0), 42 + i, terms=3)
              for n in (128, 256) for i in range(4)]
    domain_norms = []
    modulation_norm = psido.modulation_norm

    def counted(f, spec, window=None):
        if any(f.grid.matches(p.grid) and np.array_equal(f.values, p.values)
               for p in probes):
            domain_norms.append(spec)
        return modulation_norm(f, spec, window)

    monkeypatch.setattr(psido, "modulation_norm", counted)
    verify.opnorm_ratio_stability(count=count)
    assert len(domain_norms) == 16
