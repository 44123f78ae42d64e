"""The benchmark's own tests: engine oracle, traced-run identity, output contract.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
The tests simulate the held-out seed, which tuning the benchmark never used
(and, to show the seed matters, the seed after it).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import perfbench.layers as layers
from perfbench.layers import PER_LAYER_METRICS, LayerTimer
from perfbench.run import END_TO_END_METRICS, measure
from perfbench.workloads import HELD_OUT_SEED, SHAPES, check_run, prepare, sim_digest

ROOT = Path(__file__).resolve().parents[2]
#: Share of each workload's accesses these tests run.
SMALL = 0.05


def _digest(name: str, workdir: Path, engine: str | None = None, seed: int = HELD_OUT_SEED):
    prepared = prepare(name, seed, workdir=workdir, scale=SMALL, engine=engine)
    result = prepared.run()
    assert check_run(result, prepared.requested) == []
    return sim_digest(result)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_engines_agree(name, tmp_path):
    """docs/kernel.md's contract: both engines simulate identical numbers."""
    assert _digest(name, tmp_path, "object") == _digest(name, tmp_path, "vectorized")


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_seed_reaches_the_inputs(name, tmp_path):
    digest = _digest(name, tmp_path)
    assert _digest(name, tmp_path) == digest
    assert _digest(name, tmp_path, seed=HELD_OUT_SEED + 1) != digest


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_traced_run_simulates_the_same(name, tmp_path):
    untraced = measure(name, HELD_OUT_SEED, tmp_path, scale=SMALL)
    traced = measure(name, HELD_OUT_SEED, tmp_path, LayerTimer(), scale=SMALL)
    assert untraced.failures == [] and traced.failures == []
    assert traced.digest == untraced.digest
    assert set(traced.layers) == set(PER_LAYER_METRICS) - {"tracing.overhead_ratio"}
    assert traced.layers["pipeline.calls"] == traced.sim["nonresident"]
    assert 0 <= traced.layers["unattributed_s"] < traced.wall_s


def test_timer_restores_every_wrapped_attribute(tmp_path):
    originals = {
        (module, attr): getattr(module, attr)
        for module, attr in [
            (layers.sim_simulate, "run_processes"),
            (layers.sim_simulate, "make_driver"),
            (layers.sim_scheduler, "make_driver"),
            (layers.kernel_vectorized, "step_burst_columnar"),
            (layers.kernel_vectorized, "leading_resident"),
        ]
    }
    classes = {
        cls: dict(vars(cls))
        for cls in (layers.ProcessDriver, layers.ConcurrentScheduler, layers.ConcurrentResidentWindow)
    }
    measure("resident-hot", HELD_OUT_SEED, tmp_path, LayerTimer(), scale=SMALL)
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original
    for cls, namespace in classes.items():
        assert dict(vars(cls)) == namespace


def test_check_run_reports_missing_accesses(tmp_path):
    prepared = prepare("fault-dense", HELD_OUT_SEED, workdir=tmp_path, scale=SMALL)
    result = prepared.run()
    assert check_run(result, prepared.requested + 1) == [
        f"executed {prepared.requested} accesses, requested {prepared.requested + 1}"
    ]


def test_benchmark_json_matches_the_program():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(SHAPES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_METRICS


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace, names", [("0", END_TO_END_METRICS), ("1", PER_LAYER_METRICS)])
def test_command_prints_the_contract(trace, names):
    out = _run(
        ROOT, "--workload", "fault-dense", "--seed", str(HELD_OUT_SEED),
        "--seconds", "1", "--trace", trace,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == HELD_OUT_SEED and meta["code_rev"]


def test_command_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    out = _run(
        tmp_path, "--workload", "fault-dense", "--seed", str(HELD_OUT_SEED),
        "--seconds", "1", "--trace", "0",
    )
    assert out.returncode != 0
    assert out.stdout == ""
