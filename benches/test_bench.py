"""Tests of the benchmark itself: the tracer, the correctness gate and the refusals.

    python3 -m pytest benches -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench  # noqa: E402

sys.path.insert(0, str(bench.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER, TIME_UNITS, Tracer  # noqa: E402

# never used while the benchmark was written; it must pass the gate as any seed does
HELD_OUT_SEED = 7919

GOLDENS = json.loads(bench.GOLDENS.read_text())


def _workload(name: str, seed: int, workdir: Path, goldens=None):
    goldens = GOLDENS[name] if goldens is None else goldens
    return workloads.WORKLOADS[name].from_seed(seed, workdir, goldens)


def _bindings() -> dict:
    """Every attribute of every efeplan module and of the classes the tracer patches."""
    import efeplan.numerics
    import efeplan.tmaze
    found = {}
    for module in tracer.efeplan_modules():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
    for cls in (efeplan.numerics.Categorical, efeplan.tmaze.TmazeEnv):
        for name, value in vars(cls).items():
            found[(cls.__qualname__, name)] = value
    return found


def test_wrappers_sit_where_callers_look_and_are_removed():
    import efeplan.harness
    import efeplan.inference
    before = _bindings()
    with Tracer():
        assert efeplan.harness.infer_states is not before[("efeplan.harness", "infer_states")]
        assert efeplan.inference.infer_states is efeplan.harness.infer_states
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_wrappers_are_removed_when_a_call_raises():
    import efeplan.harness
    before = _bindings()
    with pytest.raises(AttributeError):
        with Tracer():
            efeplan.harness.validate(None)  # raises inside the wrapper
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(name, tmp_path):
    runs = []
    for attempt in range(2):
        workload = _workload(name, 0, tmp_path)
        workload.keys = workload.keys[:2]
        outcomes = bench.Outcomes()
        metrics, _ = bench.traced_run(workload, outcomes, tmp_path / f"spans{attempt}.json")
        workload.close()
        assert outcomes.failed == 0
        assert metrics.keys() == dict(PER_LAYER).keys()
        runs.append(metrics)
    counts = [metric for metric, unit in PER_LAYER if unit not in TIME_UNITS]
    assert {m: runs[0][m] for m in counts} == {m: runs[1][m] for m in counts}
    assert runs[0]["inference.infer_states.calls"] > 0
    assert runs[0]["inference.sweeps_per_call"] == 2.0


@pytest.mark.parametrize("name", bench.WORKLOAD_NAMES)
def test_held_out_seed_passes_the_gate(name, tmp_path):
    workload = _workload(name, HELD_OUT_SEED, tmp_path)
    workload.setup()
    outcomes = bench.Outcomes()
    for key in workload.keys:
        outcomes.run(workload, key)
    workload.close()
    assert (outcomes.attempted, outcomes.failed, outcomes.messages) == (len(workload.keys), 0, [])


def test_gate_counts_a_wrong_golden_as_failed(tmp_path):
    goldens = dict(GOLDENS["maze-sweep"])
    workload = _workload("maze-sweep", 0, tmp_path, goldens)
    agent, seed = workload.keys[0]
    goldens[f"{agent}/{seed}"] += 1
    outcomes = bench.Outcomes()
    assert outcomes.run(workload, workload.keys[0]) is None
    assert outcomes.failed == 1 and "golden" in outcomes.messages[0]


def _bench(args, cwd: Path, *flags):
    return subprocess.run([sys.executable, *flags, "benches/bench.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


ARGS = ["--workload", "maze-sweep", "--seed", "0", "--seconds", "1", "--trace", "0"]


def test_refuses_optimized_interpreter():
    done = _bench(ARGS, bench.ROOT, "-O")
    assert done.returncode == 2 and done.stdout == "" and "-O" in done.stderr


def test_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benches", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(ARGS, tmp_path)
    assert done.returncode == 2 and done.stdout == ""
