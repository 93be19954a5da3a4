"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
TINY = workloads.Sizes(episodes=4, heldout_episodes=3, qvae_epochs=1, world_epochs=1,
                       candidates=200, eval_candidates=200, steps=3, setups=1,
                       retrains=1)
QUALITY = ("recon_mse", "hoyer", "world_val_ppl", "mean_cost")


def _run_cli(monkeypatch, workload, trace):
    monkeypatch.setattr(workloads, "PAPER", TINY)
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    assert code == 0
    return out.getvalue().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted(monkeypatch, workload):
    lines = _run_cli(monkeypatch, workload, trace=0)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == END_TO_END
    for name in END_TO_END:
        assert result["metrics"][name]["value"] > 0, name

    lines = _run_cli(monkeypatch, workload, trace=1)
    traced = json.loads(lines[-1])
    assert traced["correct"]
    assert list(traced["metrics"]) == PER_LAYER
    assert any(line.startswith("absent metrics") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env: "))[5:])
    assert env["blas_threads_requested"] <= env["nproc"]
    assert env["seed"] == 3 and env["candidates_per_step"] == 200


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tracing_leaves_outputs_bitwise_equal(tmp_path, workload):
    run_workload = workloads.WORKLOADS[workload]
    plain = run_workload(5, 0.0, trace=False, workdir=tmp_path / "a", sizes=TINY)
    traced = run_workload(5, 0.0, trace=True, workdir=tmp_path / "b", sizes=TINY)
    for name in QUALITY:
        assert plain.metrics[name][0] == traced.metrics[name][0], name
    timed = [n for n, (_, unit) in traced.layers.items() if unit in ("s", "ms")]
    assert all(traced.layers[n][0] != 0 for n in timed), "a traced layer did no work"
    assert traced.layers["cem.iterations"][0] == 10
    assert traced.layers["cem.candidates"][0] == 10 * TINY.candidates


def test_removed_names_are_absent_not_fatal(monkeypatch, tmp_path):
    import minreal.world

    # A later change may fold rollout_batch into rollout: the planner still
    # reaches it through the name minreal.cem looks up.
    monkeypatch.delattr(minreal.world, "rollout_batch")
    monkeypatch.delattr(minreal.world, "rollout")
    result = workloads.WORKLOADS["mpc_s5"](1, 0.0, trace=True, workdir=tmp_path, sizes=TINY)
    assert "minreal.world:rollout_batch" in result.tracer.absent_names
    assert result.layers["world.rollout_ms"][0] > 0
    assert workloads.absent_metrics(result.tracer) == []

    tracer = Tracer({"world.rollout": ["minreal.world:rollout_batch"]}).install()
    tracer.uninstall()
    assert tracer.absent_layers == ["world.rollout"]
    assert "world.rollout_gflop_s" in workloads.absent_metrics(tracer)


def test_tracer_restores_public_names():
    import minreal.cem
    import minreal.world

    before = (minreal.cem.plan, minreal.world.WorldModel.__dict__["dynamics_mean"])
    with Tracer():
        assert minreal.cem.plan is not before[0]
    assert (minreal.cem.plan, minreal.world.WorldModel.__dict__["dynamics_mean"]) == before


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mpc_s5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
