"""Smoke test: the benchmark harness runs end to end in tiny mode.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace):
    result = _result(_run(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], (int, float))
        if trace == 0:
            assert value["value"] > 0


def test_traced_counts_repeat_for_one_seed():
    first, second = (_result(_run(ROOT, "certify-torus6", 1, seed=5)) for _ in range(2))
    for name in tracer.COUNT_METRICS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    spans = tracer.read_spans(ROOT / ".perfbench" / "results" / "spans-certify-torus6-seed5")
    assert len(spans["start"]) == second["metrics"]["trace.spans"]["value"]
    assert all(p < i for i, p in enumerate(spans["parent"]))


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import harmonica
    from harmonica import cli  # noqa: F401

    modules = [harmonica, *(sys.modules[f"harmonica.{m}"] for m in tracer.MODULES)]
    before = [dict(vars(m)) for m in modules]
    methods = [dict(vars(harmonica.Form)), dict(vars(harmonica.GaussianRational))]
    t = tracer.Tracer()
    with t:
        assert harmonica.linalg.rref is not before[modules.index(harmonica.linalg)]["rref"]
        spec = harmonica.load_spec_path(ROOT / "src" / "harmonica" / "data" / "iwasawa_cplx.json")
        harmonica.harmonic_space(harmonica.HarmonicKind.BC, 1, 1, spec)
    for module, saved in zip(modules, before):
        for name, value in saved.items():
            assert vars(module)[name] is value, f"{module.__name__}.{name}"
    assert dict(vars(harmonica.Form)) == methods[0]
    assert dict(vars(harmonica.GaussianRational)) == methods[1]
    metrics = t.layer_metrics()
    assert metrics["harmonic.space_calls"] == 1 and metrics["linalg.rref_calls"] > 0


def test_refuses_to_run_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
