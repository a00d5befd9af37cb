"""Smoke test of the benchmark at a tiny size; finishes in seconds.

Run from the repository root: ``python3 -m pytest -q benchmark/test_smoke.py``
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402
from dcpreg import dcpnet, geometry  # noqa: E402
from dcpreg.errors import GradientSingularityError  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_MODEL = dataclasses.replace(workloads.DESK_V2, widths=(8, 8), emb_dims=16, heads=2, ffn_dims=16, knn_k=4)


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    for name, w in workloads.WORKLOADS.items():
        tiny = dataclasses.replace(w, model=TINY_MODEL, n_points=32)
        if w.trains:
            tiny = dataclasses.replace(tiny, train_pairs=4, train_epochs=2)
        monkeypatch.setitem(workloads.WORKLOADS, name, tiny)


def every_other_call(monkeypatch, bad):
    """Make every second dcp_predict call return or raise ``bad()``."""
    original, calls = dcpnet.dcp_predict, []

    def predict(*args, **kwargs):
        calls.append(1)
        return bad() if len(calls) % 2 == 0 else original(*args, **kwargs)

    monkeypatch.setattr(dcpnet, "dcp_predict", predict)


def test_benchmark_json_names_the_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    import tracing

    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_appears_with_its_unit(tiny_workloads, name, trace):
    result = run.run(name, seed=3, seconds=0.2, trace=trace)
    assert result["correct"], result["report"]["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        trains = workloads.WORKLOADS[name].trains
        assert (metrics["dcpnet.knn_graph.repeat_frac"] > 0) == trains
        assert (metrics["autodiff.backward.s"] > 0) == trains
        assert metrics["dcpnet.knn_graph.calls"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_output_check_rejects_invalid_rotations():
    c, s = np.cos(0.3), np.sin(0.3)
    assert workloads.rotation_problem(np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])) is None
    assert "det" in workloads.rotation_problem(np.diag([1.0, 1.0, -1.0]))
    assert "R^T R" in workloads.rotation_problem(np.eye(3) * 1.01)
    assert "non-finite" in workloads.rotation_problem(np.full((3, 3), np.nan))
    assert "non-finite" in workloads.rotation_problem(np.eye(3), [0.0, np.inf, 0.0])


def reflection():
    return SimpleNamespace(rotation=np.diag([1.0, 1.0, -1.0]), translation=np.zeros(3))


def invalid_transform():
    """What the program's own validation does with a reflection."""
    return geometry.RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


def collapsed_pair():
    raise GradientSingularityError("collapsed soft match")


@pytest.mark.parametrize("bad", [reflection, invalid_transform])
def test_invalid_registration_makes_the_run_incorrect(tiny_workloads, monkeypatch, bad):
    every_other_call(monkeypatch, bad)
    result = run.run("register_1k", seed=3, seconds=0.3, trace=False)
    assert not result["correct"]
    assert result["report"]["problems"]
    if bad is invalid_transform:
        assert result["failed"] >= 1
        assert result["report"]["failures"] == {"InvalidInputError": result["failed"]}


def test_numerical_failure_counts_as_failed_but_correct(tiny_workloads, monkeypatch):
    every_other_call(monkeypatch, collapsed_pair)
    result = run.run("register_1k", seed=3, seconds=0.3, trace=False)
    assert result["correct"], result["report"]["problems"]
    assert result["failed"] >= 1
    assert result["report"]["failures"] == {"GradientSingularityError": result["failed"]}
    assert result["report"]["reported"]["fail_frac"] == result["failed"] / result["attempted"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "benchmark", tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "register_desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
