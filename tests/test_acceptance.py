"""Acceptance battery: every named verification criterion must pass at its
stated tolerance.  Each case prints a single PASS/FAIL line with the measured
value, visible with `pytest -v -rA` or `-s`."""

import numpy as np
import pytest

from orlicztf import psido, verify
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


def test_opnorm_ratio_stability_takes_one_symbol_norm_per_seed(monkeypatch):
    """One symbol norm per (config, seed), and the same ratios as dividing
    each N's operator norm by that N's own symbol norm."""
    calls = []
    symbol_norm = psido.symbol_norm

    def counted(a, space):
        calls.append(a.grid.shape)
        return symbol_norm(a, space)

    monkeypatch.setattr(psido, "symbol_norm", counted)
    record = verify.opnorm_ratio_stability(count=2)
    assert len(calls) == 4
    monkeypatch.undo()
    configs = {cfg["label"]: cfg for cfg in verify._opnorm_configs()}
    changes = []
    for row in record["details"]["rows"]:
        cfg = configs[row["config"]]
        ratios = {}
        for n in (128, 256):
            a = make_gaussian_mix(phase_grid(make_grid(n, 12.0)), row["seed"])
            ratios[n] = psido.estimate_operator_norm(
                a, 0.0, cfg["domain"], cfg["codomain"], trials=4, seed=42,
                symbol_space=cfg["symbol_space"])["ratio_to_symbol_norm"]
            assert row[f"ratio_{n}"] == pytest.approx(ratios[n], rel=1e-12, abs=0)
        changes.append(max(ratios[256] / ratios[128], ratios[128] / ratios[256]))
    assert record["value"] == pytest.approx(max(changes), rel=1e-12, abs=0)


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
