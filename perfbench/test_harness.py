"""Fast self-test of the benchmark harness (not of sfuncs itself).

    PYTHONPATH=src python3 -m pytest -q perfbench/test_harness.py

Runs every workload at the tiny size, untraced and traced, and asserts that
the last line names every metric of BENCHMARK.json with its unit, that the
run is correct, and that the result file records machine and provenance.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace, seed=3):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    r = run_bench(ROOT, workload, trace)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, r.stdout
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(last["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = last["metrics"][m["name"]]
        assert set(got) == {"value", "unit"} and got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    for m in SPEC["end_to_end"]:
        if not trace:
            assert last["metrics"][m["name"]]["value"] > 0, m["name"]

    path = os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed3-trace{trace}.json")
    with open(path) as fh:
        result = json.load(fh)
    assert result["machine"]["nproc"] >= 1 and result["machine"]["python"]
    assert result["provenance"]["source_sha256"] and result["sizes"] and result["seed"] == 3
    assert result["digests"] and not result["problems"]
    if trace:
        assert result["per_layer"]["trace.overhead_ratio"]["value"] > 0
        assert any(p["traced"] for p in result["passes"])


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
                        "--seconds", "1", "--trace", "0"],
                       cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert r.returncode != 0
    assert '"metrics"' not in r.stdout


def test_tracer_wraps_every_binding_and_restores_them():
    import sfuncs
    from sfuncs import catalog, framing, numfield, padic, series, sfunc
    from tracer import Tracer

    originals = (series.revert, numfield.FieldElem.__dict__["__mul__"],
                 padic.make_residue_ring, sfunc._congruence.__defaults__)
    t = Tracer()
    t.install()
    try:
        assert framing.revert is series.revert is catalog.revert is sfuncs.revert
        assert series.revert is not originals[0]
        fe = numfield.FieldElem.__dict__
        assert fe["__rmul__"] is fe["__mul__"] is not originals[1]
        assert sfunc._congruence.__defaults__[-1] is padic.make_residue_ring
        q = numfield.rationals()
        before = padic.make_residue_ring.cache_info().hits
        for _ in range(2):
            padic.make_residue_ring(q, 5, 3)
        assert padic.make_residue_ring.cache_info().hits >= before + 1
        x = q.elem(3)
        x * x
        2 * x
        snap = t.snapshot()
        assert snap["spans"]["numfield.FieldElem.mul"]["calls"] == 2
        assert snap["caches"]["padic.make_residue_ring"]["hits"] >= 1
    finally:
        t.uninstall()
    assert (series.revert, numfield.FieldElem.__dict__["__mul__"],
            padic.make_residue_ring, sfunc._congruence.__defaults__) == originals
    assert framing.revert is series.revert and sfuncs.revert is series.revert
