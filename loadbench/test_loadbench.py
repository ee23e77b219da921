"""Tests of the benchmark itself: ``python -m pytest loadbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import inputs as inp
import layers
import load
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "loadbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def test_spec_names_the_metrics_run_prints():
    assert SPEC["command"] == ["python3", "loadbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        name: entry[:2] for name, entry in layers.CATALOGUE.items()}
    readme = (HERE / "README.md").read_text(encoding="utf-8")
    for name, (unit, _, moves, where) in layers.CATALOGUE.items():
        assert f"| `{name}` | {unit} | `{moves}` | {where} |" in readme


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1.5",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr[-4000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for metric in expected:
        printed = [line for line in lines[:-1] if line.split()[:1] == [metric["name"]]]
        assert len(printed) == 1, metric["name"]
        assert printed[0].split()[2] == metric["unit"]
        assert "n=" in printed[0]
    if trace == "0":
        for name, entry in result["metrics"].items():
            assert entry["value"] > 0, name


def test_same_seed_generates_identical_inputs():
    def digest(seed):
        data = inp.generate(seed, num_studies=4)
        arrays = [data.small_images, data.study_images, data.study_labels,
                  np.array([shape_seed for _, shape_seed in inp.studies(data)])]
        for plan in inp.build_plans(data).values():
            for op in plan.ops:
                arrays.extend(value for value in vars(op).values()
                              if isinstance(value, np.ndarray))
        return [array.tobytes() for array in arrays]

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """Published plans, references, and an in-process client over them."""
    from repro.api import connect

    base = tmp_path_factory.mktemp("oracle")
    data = inp.generate(5, num_studies=0)
    inp.publish(data, base / "plans")
    inp.compute_references(data, base / "plans", base / "ref-jobs", with_studies=True)
    client = connect(f"local:{base / 'plans'}?jobs_dir={base / 'jobs'}")
    yield data, client
    client.close()


def test_oracle_accepts_the_served_answers(served):
    data, client = served
    tally = load.Tally()
    load.predict_loop(client, data, 0, float("inf"), tally, limit=8)
    assert (tally.attempted, tally.failed) == (8, 0)


def test_oracle_rejects_a_corrupted_predict_reference(served):
    data, client = served
    good = data.small_refs
    bad = good.copy()
    bad[0, 3] += 1e-9  # just past the 1e-10 tolerance
    data.small_refs = bad
    try:
        tally = load.Tally()
        load.predict_loop(client, data, 0, float("inf"), tally, limit=4)
    finally:
        data.small_refs = good
    assert tally.failed == 1 and tally.errors == {"wrong_predict": 1}
    assert tally.attempted == 4


def test_oracle_rejects_a_corrupted_study_reference(served):
    import dataclasses

    data, client = served
    seed = data.warm_seed
    reference = data.study_refs[seed]
    spec = inp.study_spec_for(data, "warm", seed)
    tally = load.Tally()
    assert load.run_study(client, spec, reference, tally, 0.005) is not None
    cell = reference.cells[-1]
    logits = cell.mean_logits.copy()
    logits.flat[0] = np.nextafter(logits.flat[0], np.inf)  # one ulp
    corrupted = dataclasses.replace(
        reference, cells=reference.cells[:-1] + (dataclasses.replace(cell, mean_logits=logits),))
    assert load.run_study(client, spec, corrupted, tally, 0.005) is None
    cells = len(reference.cells)
    assert (tally.attempted, tally.failed) == (2 * cells, cells)
    assert tally.errors == {"wrong_study": cells}


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "loadbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "predict-small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
