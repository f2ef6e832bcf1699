"""The benchmark's three workloads.

Each workload turns the workload seed into inputs for the program, performs
the program's set-up, prepares one unit operation at a time as a zero-argument
call (only that call is timed), and checks the operation's result against
goldens captured from the program.

Every call into efeplan goes through a module attribute looked up at call time
(``harness.run_experiment``, not a name bound at import), so the tracer's
wrappers see it.

Goldens exist for a fixed pool of program inputs per workload (see
capture_goldens.py); ``from_seed`` picks from the workload seed which part of
the pool a run uses, so every seed has goldens.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path

import numpy as np

import efeplan.cli as cli
import efeplan.harness as harness
import efeplan.model as spec
import efeplan.tmaze as tmaze
from efeplan.harness import ExperimentConfig
from efeplan.model import GenerativeModel, Policy, PolicySet
from efeplan.numerics import Categorical
from efeplan.planning import ObjectiveKind

TRIALS_PER_RUN = 50          # one `run`, as in the paper's benchmark

MAZE_AGENTS = ("efe", "eig", "eu")
MAZE_SEED_POOL = 32          # experiment seeds 0..31, as acceptance criterion 3 sweeps
MAZE_SEEDS_PER_RUN = 4

OUT_SEED_POOL = 8
OUT_SEEDS_PER_RUN = 2
OUT_FORMATS = ("csv", "json")

SCALED_AGENTS = ("efe", "eu-states", "klc")
SCALED_MODEL_POOL = 8
SCALED_TRIALS = 8            # distinct trials per agent in one round
SCALED_STATES = 256
# run_trial scores observations with the maze's 7-entry score_outcome, so a
# model with more than 7 outcomes raises; the outcome count stays at 7.
SCALED_OUTCOMES = 7
SCALED_ACTIONS = 2
SCALED_HORIZON = 5

SUM_TOL = 1e-9               # a posterior must sum to 1 within this


def _pick(seed: int, pool: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return sorted(int(x) for x in rng.choice(pool, size=count, replace=False))


def _validated(model: GenerativeModel) -> GenerativeModel:
    problems = spec.validate(model)
    if problems:
        raise spec.ModelSpecError("; ".join(problems))
    return model


def _against_golden(workload, key, result) -> str | None:
    golden_key, got = workload.golden(key, result)
    if golden_key not in workload.goldens:
        return f"{workload.name} {golden_key}: no golden"
    want = workload.goldens[golden_key]
    if got != want:
        return f"{workload.name} {golden_key}: got {got!r}, golden {want!r}"
    return None


class MazeSweep:
    """harness.run_experiment on the built-in maze; one 50-trial run per operation."""

    name = "maze-sweep"
    probe_arg = "maze"

    def __init__(self, seeds, workdir: Path, goldens: dict):
        self.goldens = goldens
        self.keys = [(agent, s) for s in seeds for agent in MAZE_AGENTS]

    @classmethod
    def from_seed(cls, seed: int, workdir: Path, goldens: dict):
        return cls(_pick(seed, MAZE_SEED_POOL, MAZE_SEEDS_PER_RUN), workdir, goldens)

    def setup(self) -> None:
        _validated(tmaze.build_tmaze_model())

    def trials(self, key) -> int:
        return TRIALS_PER_RUN

    def prepare(self, key):
        agent, seed = key
        config = ExperimentConfig(agent=ObjectiveKind(agent), trials=TRIALS_PER_RUN, seed=seed)
        return lambda: harness.run_experiment(config)

    def golden(self, key, record):
        agent, seed = key
        return f"{agent}/{seed}", record.final_score

    def check(self, key, record) -> str | None:
        return _against_golden(self, key, record)

    def close(self) -> None:
        pass


def sha256_files(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


class MazeOut:
    """cli.main(["run", ..., "--out", DIR, "--format", FMT]) in-process; one call per operation."""

    name = "maze-out"
    probe_arg = "cli"

    def __init__(self, seeds, workdir: Path, goldens: dict):
        self.goldens = goldens
        self.out_dir = workdir / "out"
        # formats alternate from one call to the next
        self.keys = [(agent, s, fmt) for s in seeds for agent in MAZE_AGENTS for fmt in OUT_FORMATS]

    @classmethod
    def from_seed(cls, seed: int, workdir: Path, goldens: dict):
        return cls(_pick(seed, OUT_SEED_POOL, OUT_SEEDS_PER_RUN), workdir, goldens)

    def setup(self) -> None:
        _validated(tmaze.build_tmaze_model())

    def trials(self, key) -> int:
        return TRIALS_PER_RUN

    def prepare(self, key):
        agent, seed, fmt = key
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["run", "--agent", agent, "--seed", str(seed), "--trials", str(TRIALS_PER_RUN),
                "--out", str(self.out_dir), "--format", fmt]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)
        return call

    def golden(self, key, exit_code):
        agent, seed, fmt = key
        return f"{agent}/{seed}/{fmt}", sha256_files(self.out_dir)

    def check(self, key, exit_code) -> str | None:
        if exit_code != 0:
            return f"{key}: exit code {exit_code}"
        return _against_golden(self, key, exit_code)

    def close(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def random_model(model_seed: int) -> GenerativeModel:
    """A dense random model with the full |U|^(T-1) policy set and a risk prior."""
    rng = np.random.default_rng([SCALED_STATES, model_seed])
    n_s, n_o, n_u = SCALED_STATES, SCALED_OUTCOMES, SCALED_ACTIONS
    return GenerativeModel(
        num_states=n_s,
        num_outcomes=n_o,
        num_actions=n_u,
        horizon=SCALED_HORIZON,
        likelihood=rng.dirichlet(np.ones(n_o), size=n_s).T,
        transitions=tuple(rng.dirichlet(np.full(n_s, 0.1), size=n_s).T for _ in range(n_u)),
        preferences=rng.normal(scale=2.0, size=n_o),
        state_prior=Categorical(rng.dirichlet(np.ones(n_s))),
        policies=PolicySet(tuple(
            Policy(p) for p in itertools.product(range(n_u), repeat=SCALED_HORIZON - 1)
        )),
        risk_state_prior=Categorical(rng.dirichlet(np.ones(n_s))),
    )


def _sampler(probs: np.ndarray, draw: float) -> int:
    return min(int(np.searchsorted(probs, draw, side="right")), probs.size - 1)


class ModelEnv:
    """Generative process equal to the model: samples states from D and B, outcomes from A.

    One uniform draw per sample. Takes column-wise cumulative sums of A and B.
    """

    true_context = 0  # run_trial records it; a random model has no context

    def __init__(self, cum_a: np.ndarray, cum_b: tuple, cum_d: np.ndarray,
                 rng: np.random.Generator):
        self.cum_a, self.cum_b, self.rng = cum_a, cum_b, rng
        self.state = _sampler(cum_d, rng.random())

    def observe(self) -> int:
        return _sampler(self.cum_a[:, self.state], self.rng.random())

    def step(self, action: int) -> int:
        self.state = _sampler(self.cum_b[action][:, self.state], self.rng.random())
        return self.observe()


def trial_digest(record) -> str:
    """sha256 of the executed actions and every G value at 12 significant digits."""
    doc = [list(record.actions), [[f"{g:.12g}" for g in e.g_values] for e in record.epochs]]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


class ScaledLoop:
    """harness.run_trial on a 256-state random model loaded from a spec file; one trial per operation."""

    name = "scaled-loop"

    def __init__(self, model_index: int, workdir: Path, goldens: dict):
        self.goldens = goldens
        self.model_index = model_index
        generated = random_model(model_index)
        self.spec_path = workdir / "scaled-model.json"
        spec.save_spec(generated, self.spec_path)
        self.probe_arg = str(self.spec_path)
        self.cum_a = np.cumsum(generated.likelihood, axis=0)
        self.cum_b = tuple(np.cumsum(b, axis=0) for b in generated.transitions)
        self.cum_d = np.cumsum(generated.state_prior.probs)
        self.keys = [(j, agent) for j in range(SCALED_TRIALS) for agent in SCALED_AGENTS]
        self.model = None

    @classmethod
    def from_seed(cls, seed: int, workdir: Path, goldens: dict):
        return cls(_pick(seed, SCALED_MODEL_POOL, 1)[0], workdir, goldens)

    def setup(self) -> None:
        self.model = _validated(spec.load_spec(self.spec_path))

    def trials(self, key) -> int:
        return 1

    def prepare(self, key):
        j, agent = key
        env_stream, tie_stream = np.random.SeedSequence([self.model_index, j]).spawn(2)
        env = ModelEnv(self.cum_a, self.cum_b, self.cum_d, np.random.default_rng(env_stream))
        tie_rng = np.random.default_rng(tie_stream)
        config = ExperimentConfig(agent=ObjectiveKind(agent), model_path=str(self.spec_path))
        model = self.model
        return lambda: harness.run_trial(model, env, config, tie_rng, trial=j + 1)

    def golden(self, key, record):
        j, agent = key
        return f"{self.model_index}/{agent}/{j + 1}", trial_digest(record)

    def check(self, key, record) -> str | None:
        for e in record.epochs:
            if abs(math.fsum(e.policy_posterior) - 1.0) > SUM_TOL:
                return f"{key}: epoch {e.epoch} policy posterior sums to {sum(e.policy_posterior)!r}"
            prefix = record.actions[: e.epoch - 1]
            viable = [i for i, p in enumerate(self.model.policies)
                      if p.actions[: len(prefix)] == prefix]
            if not all(math.isfinite(e.g_values[i]) for i in viable):
                return f"{key}: epoch {e.epoch} has a non-finite G for a viable policy"
        return _against_golden(self, key, record)

    def close(self) -> None:
        self.spec_path.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (MazeSweep, ScaledLoop, MazeOut)}
