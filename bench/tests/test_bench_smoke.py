"""Smoke test of the benchmark harness: shape, names and exact counts, never speeds.

Runs ``bench/run.py --smoke`` untraced and traced (tiny sizes, one unit
each) and checks the result files against ``BENCHMARK.json``.
"""

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

sys.path.insert(0, str(BENCH))
import layers  # noqa: E402


@pytest.fixture(scope="module")
def smoke_results(tmp_path_factory):
    """One untraced and one traced smoke suite, run side by side."""
    out = tmp_path_factory.mktemp("bench")
    runs = {
        trace: subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--smoke", "--trace", str(trace),
             "--output", str(out / f"{trace}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        for trace in (0, 1)
    }
    documents = {}
    for trace, process in runs.items():
        output, _ = process.communicate(timeout=300)
        assert process.returncode == 0, output
        documents[trace] = json.loads((out / f"{trace}.json").read_text())
    return documents


def test_spec_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s" and entry["better"] == "lower"
        for entry in SPEC["end_to_end"]
    )


def test_every_package_has_a_layer():
    packages = sorted(
        path.name for path in (ROOT / "src" / "repro").iterdir() if (path / "__init__.py").is_file()
    )
    unmapped = [package for package in packages if not layers.layer_of_path(f"{package}/module.py")]
    assert not unmapped, f"packages with no layer in bench/layers.py: {unmapped}"
    assert layers.layer_of_path("experiments/cli/run.py") == layers.CLI
    for layer in layers.SHARE_LAYERS:
        assert any(entry["name"] == f"{layer}.self_share" for entry in SPEC["per_layer"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted(smoke_results, trace, key):
    document = smoke_results[trace]
    assert {"nproc", "python", "numpy", "coding_backend", "platform", "git_commit"} <= set(document["env"])
    assert set(document["workloads"]) == {entry["name"] for entry in SPEC["workloads"]}
    declared = {entry["name"]: entry["unit"] for entry in SPEC[key]}
    for name, workload in document["workloads"].items():
        assert workload["correct"] and workload["failed"] == 0, (name, workload["problems"])
        assert workload["attempted"] >= 1 and workload["sizes"]
        assert "calibration_drift" in workload and "noisy" in workload
        assert set(workload["metrics"]) == set(declared), name
        for metric, record in workload["metrics"].items():
            assert record["unit"] == declared[metric], (name, metric)
            value = record["value"]
            # A layer metric with no source on this workload is an explicit null.
            assert (value is None and trace == 1) or math.isfinite(value), (name, metric)
    if trace == 0:
        assert document["matrix_digests_identical"]


def test_each_layer_metric_has_a_source_somewhere(smoke_results):
    workloads = smoke_results[1]["workloads"].values()
    for entry in SPEC["per_layer"]:
        assert any(w["metrics"][entry["name"]]["value"] is not None for w in workloads), entry["name"]


def test_exact_counts_repeat(smoke_results):
    for name, workload in smoke_results[1]["workloads"].items():
        assert workload["extra"]["exact_counts_repeat"], name
