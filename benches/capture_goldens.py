"""Capture the correctness-gate goldens from the program as it stands.

    python3 benches/capture_goldens.py

Runs every input in each workload's pool once and writes benches/goldens.json:
maze-sweep final scores per (agent, seed), the sha256 of every file maze-out
writes per (agent, seed, format), and the scaled-loop digest of actions and G
values per (model, agent, trial). It refuses to run while goldens.json exists,
so goldens change only when someone deletes the file on purpose and the
change shows in review.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

from bench import GOLDENS, SRC, WORK

sys.path.insert(0, str(SRC))

import workloads  # noqa: E402


def capture(workload) -> dict:
    found = {}
    workload.setup()
    for key in workload.keys:
        result = workload.prepare(key)()
        name, value = workload.golden(key, result)
        found[name] = value
    workload.close()
    return found


def main() -> int:
    if GOLDENS.exists():
        print(f"{GOLDENS} exists; delete it first to capture new goldens", file=sys.stderr)
        return 1
    workdir = WORK / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        goldens = {
            "maze-sweep": capture(workloads.MazeSweep(range(workloads.MAZE_SEED_POOL), workdir, {})),
            "scaled-loop": {},
            "maze-out": capture(workloads.MazeOut(range(workloads.OUT_SEED_POOL), workdir, {})),
        }
        for index in range(workloads.SCALED_MODEL_POOL):
            goldens["scaled-loop"].update(capture(workloads.ScaledLoop(index, workdir, {})))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
