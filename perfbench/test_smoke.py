"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
tracing leaves the library as it found it, and that a wrong oracle value is
recorded as a failed operation rather than raised, once however often it ran.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import worker  # noqa: E402  (puts src/ on sys.path)
from hccycles import closedforms, cycles, polynomial, series  # noqa: E402

TINY = {
    "verify": {"pool": 1, "suites": ("series",)},
    "series": {"pool": 1, "depths": {1: 3, 2: 2}, "symbols": (1, 2)},
    "tensor-r23": {"pool": 1, "r2_points": 8, "r3_points": 8, "r3_ws": 1},
    "sweep-r1": {"pool": 1, "ops": 4, "points": 9},
}
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(name, tmp_path, trace):
    rec = worker.run_workload(name, 7, 0.0, trace, str(tmp_path), TINY[name])
    return rec, run.result_line(rec, [rec["setup_s"]], trace)


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(worker.workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_emitted_with_its_unit(name, tmp_path):
    originals = (closedforms.a_w, cycles.integrate, polynomial.Poly.__add__, polynomial.Poly.zero)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        rec, line = tiny_run(name, tmp_path, trace)
        assert line["correct"] and line["attempted"] >= 1, rec["invalid"]
        emitted = {k: v["unit"] for k, v in line["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())
    assert rec["trace_json_identical"] is True
    assert (closedforms.a_w, cycles.integrate, polynomial.Poly.__add__, polynomial.Poly.zero) == originals


def test_wrong_closed_form_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(closedforms, "a_w", lambda w, sp: 12345.0)
    rec, line = tiny_run("sweep-r1", tmp_path, False)
    assert line["failed"] == line["attempted"] == TINY["sweep-r1"]["ops"]
    assert rec["accuracy_misses"] == line["failed"] and line["correct"]


def test_wrong_exact_oracle_is_a_failed_operation(tmp_path, monkeypatch):
    monkeypatch.setattr(series, "a1_hypergeometric_coefficients", lambda sp, w, depth: [0] * (depth + 1))
    rec, line = tiny_run("series", tmp_path, False)
    assert line["failed"] == 2 and not line["correct"]
    assert all("rank 1" in note for note in rec["invalid"])


def test_failures_count_distinct_operations(tmp_path, monkeypatch):
    monkeypatch.setattr(closedforms, "a_w", lambda w, sp: 12345.0)
    sizes = {**TINY["sweep-r1"], "pool": 2}
    rec = worker.run_workload("sweep-r1", 7, 0.3, False, str(tmp_path), sizes)
    assert rec["passes"] > sizes["pool"] and len(rec["op_s"]) == rec["passes"] * sizes["ops"]
    assert rec["failed"] == rec["attempted"] == sizes["pool"] * sizes["ops"]
    assert not rec["invalid"]
