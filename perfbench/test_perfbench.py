"""Smoke tests of the benchmark on tiny instances.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
TINY_DIMS = {"spencer": (4, 6, 8), "probes": (4,)}
TINY = {name: replace(w, dims=TINY_DIMS[name], pool=4, timed=2) for name, w in WORKLOADS.items()}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)


def _run(capsys, trace):
    assert run.main(["--workload", "all", "--seed", "5", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        [(n, run.E2E_UNITS[n]) for n in run.E2E_RESULT]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER_UNITS.items())
    assert max(m["bound"] for m in spec["end_to_end"]) == \
        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


def test_every_metric_printed_with_unit_and_digests_agree(tiny, capsys):
    plain, plain_result = _run(capsys, 0)
    traced, traced_result = _run(capsys, 1)
    # With no time to fill, an untraced run makes one pass over each pool and
    # MIN_PASSES - 1 over its timed instances; a traced run one untraced and
    # one traced pass over the pool.
    plain_attempted = sum(w.pool + (run.MIN_PASSES - 1) * w.timed for w in TINY.values())
    traced_attempted = sum(2 * w.pool for w in TINY.values())
    for result, attempted in ((plain_result, plain_attempted), (traced_result, traced_attempted)):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == attempted
    for name in TINY:
        for metric, unit in [*run.E2E_UNITS.items()]:
            assert any(line.startswith(f"{name} {metric} ") and f" {unit}" in line
                       for line in plain), (name, metric)
        for metric, unit in run.PER_LAYER_UNITS.items():
            assert any(line.startswith(f"{name} {metric} ") and line.split()[3] == unit
                       for line in traced), (name, metric)
        assert f"{name} passes {run.MIN_PASSES} repeats_match_first_pass True" in plain
        assert f"{name} passes 2 repeats_match_first_pass True" in traced
        digests = [line for line in plain + traced if line.startswith(f"{name} digest ")]
        assert len(digests) == 2 and digests[0] == digests[1]
    assert set(plain_result["metrics"]) == {f"{n}.{m}" for n in TINY for m in run.E2E_RESULT}
    for entry in plain_result["metrics"].values():
        assert entry["value"] > 0


def test_self_times_add_up_to_traced_wall_time(tiny):
    m = run.measure(TINY["spencer"], seed=3, seconds=0, trace=True)
    tr = m.tracer
    roots = [i for i, s in enumerate(tr.spans) if s[tracing.PARENT] < 0]
    assert {tr.spans[i][tracing.NAME] for i in roots} == {tracing.ROOT}
    root_total = tr.durations()[roots].sum()
    assert tr.self_times().sum() == pytest.approx(root_total, rel=1e-9)
    assert root_total == pytest.approx(m.traced.wall, rel=0.05)
    assert (tr.self_times() >= -1e-9).all()
    # The originals are back in every namespace after the traced run.
    assert not hasattr(m.zb.coloring.partial_coloring, "__wrapped__")
    assert not hasattr(m.zb.zonotope.lp_solve, "__wrapped__")


def test_tracer_counts_exceptions_through_wrappers(tiny):
    zb, _ = run.import_package()
    tr = tracing.Tracer()
    tr.install()
    try:
        with pytest.raises(zb.InputError), tr.root(0):
            zb.zonotope.zonotope_norm(zb.Zonotope([[1.0, 0.0], [0.0, 1.0]]), [1.0])
    finally:
        tr.uninstall()
    assert [(s[tracing.NAME], s[tracing.ERROR]) for s in tr.spans] == \
        [(tracing.ROOT, True), ("zonotope.norm", True)]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spencer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
