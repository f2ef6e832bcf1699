"""Closed-loop trial runner, experiment driver, and result persistence.

Each trial runs perceive -> infer -> plan -> act over the model horizon,
re-planning every epoch with policies filtered to the executed action prefix.
Beliefs reset between trials. One master seed derives an independent
(environment, tie-break) generator pair per trial, so environment draws on
matched seeds are identical across agents.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inference import ImpossibleObservationError, bma_beliefs, infer_states
from .model import GenerativeModel, ModelSpecError, load_spec
from .numerics import Categorical
from .planning import (
    EfeBreakdown,
    ObjectiveKind,
    PlanContext,
    action_marginal,
    policy_posterior,
    score_policies,
    select_action,
)
from .tmaze import (
    ACTION_LABELS,
    CONTEXT_LABELS,
    LOCATION_LABELS,
    TmazeEnv,
    build_tmaze_model,
    default_context,
    score_outcome,
)


@dataclass(frozen=True)
class ExperimentConfig:
    agent: ObjectiveKind = ObjectiveKind.EXPECTED_FREE_ENERGY
    trials: int = 50
    seed: int = 0
    precision: float = 1.0
    tie_tolerance: float = 1e-9
    reward_prob: float = 0.98
    model_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.precision) and self.precision >= 0.0):
            raise ValueError(f"precision must be a nonnegative real, got {self.precision!r}")
        if not (math.isfinite(self.tie_tolerance) and self.tie_tolerance >= 0.0):
            raise ValueError(
                f"tie_tolerance must be a nonnegative real, got {self.tie_tolerance!r}"
            )
        if not 0.0 <= self.reward_prob <= 1.0:
            raise ValueError(f"reward_prob must lie in [0, 1], got {self.reward_prob!r}")


@dataclass(frozen=True)
class EpochRecord:
    """Everything observed, believed, and decided at one epoch of a trial."""

    epoch: int
    observation: int
    action: int | None                      # None at the final epoch
    action_marginal: tuple[float, ...] | None
    policy_posterior: tuple[float, ...]
    bma_states: tuple[tuple[float, ...], ...]  # state marginal per timestep 1..horizon
    g_values: tuple[float, ...]             # NaN for prefix-inconsistent policies
    breakdowns: tuple[EfeBreakdown | None, ...]  # summed over future epochs; None if not planned


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    true_context: int
    epochs: tuple[EpochRecord, ...]
    actions: tuple[int, ...]
    score_delta: int
    cumulative_score: int


@dataclass(frozen=True)
class ExperimentRecord:
    config: ExperimentConfig
    trials: tuple[TrialRecord, ...]
    final_score: int
    duration_seconds: float


def _plan_epoch(
    model: GenerativeModel,
    config: ExperimentConfig,
    executed: tuple[int, ...],
    observations: tuple[int, ...],
    trial: int,
) -> tuple[dict, Categorical | None]:
    """Everything the agent computes at one epoch from its history.

    Returns the epoch's EpochRecord fields except the action, and the action
    marginal to select from (None at the final epoch).
    """
    policies = model.policies
    horizon = model.horizon
    epoch = len(observations)
    observed = tuple(enumerate(observations, start=1))
    ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
    viable = ctx.viable(policies)
    # Viable policies share the executed prefix, so they share its filtered
    # beliefs; they differ only in the predictions past the current epoch.
    try:
        filtered = infer_states(model, policies[viable[0]], observed).states[:epoch]
    except ImpossibleObservationError as exc:
        raise ImpossibleObservationError(str(exc), trial, epoch) from exc
    filtered_rows = np.array([q.probs for q in filtered])

    g = np.full(len(policies), math.nan)
    breakdowns: list[EfeBreakdown | None] = [None] * len(policies)
    beliefs: list[np.ndarray | None] = [None] * len(policies)
    if epoch < horizon:
        scores = score_policies(
            model, filtered[-1], [policies[i] for i in viable], ctx, config.agent
        )
        for i, scored in zip(viable, scores):
            g[i] = scored.total
            breakdowns[i] = scored.summed
            beliefs[i] = np.vstack((filtered_rows, scored.states))
    else:
        g[viable] = 0.0  # no future left; posterior reduces to the prefix filter
        for i in viable:
            beliefs[i] = filtered_rows

    post = policy_posterior(g, policies, ctx, config.precision)
    marg = None
    if epoch < horizon:
        marg = action_marginal(post, policies, epoch, model.num_actions)
    fields = dict(
        epoch=epoch,
        observation=observations[-1],
        action_marginal=None if marg is None else tuple(marg.probs.tolist()),
        policy_posterior=tuple(post.probs.tolist()),
        bma_states=tuple(tuple(row) for row in bma_beliefs(post, beliefs).tolist()),
        g_values=tuple(g.tolist()),
        breakdowns=tuple(breakdowns),
    )
    return fields, marg


def run_trial(
    model: GenerativeModel,
    env: TmazeEnv,
    config: ExperimentConfig,
    rng: np.random.Generator,
    *,
    trial: int = 1,
    cumulative_before: int = 0,
    memo: dict | None = None,
) -> TrialRecord:
    """One full trial; the env must already sit at the center with its context set.

    Every epoch is planned through a memo keyed by the (executed actions,
    observations) history. A memo dict shared by trials of one model and config
    plans each distinct history once: later visits reuse its records and only
    select the action and step the env. Without one, a fresh dict serves the
    trial; each epoch's history is one observation longer, so it never hits.
    Records are the same either way.
    """
    memo = {} if memo is None else memo
    observations = [env.observe()]
    executed: list[int] = []
    epoch_records: list[EpochRecord] = []

    for _ in range(model.horizon):
        key = (tuple(executed), tuple(observations))
        if key not in memo:
            memo[key] = _plan_epoch(model, config, *key, trial)
        fields, marg = memo[key]

        action = None
        if marg is not None:
            action = select_action(marg, rng, config.tie_tolerance)
            executed.append(action)
            observations.append(env.step(action))
        epoch_records.append(EpochRecord(action=action, **fields))

    score_delta = sum(score_outcome(o) for o in observations)
    return TrialRecord(
        trial=trial,
        true_context=env.true_context,
        epochs=tuple(epoch_records),
        actions=tuple(executed),
        score_delta=score_delta,
        cumulative_score=cumulative_before + score_delta,
    )


def _resolve_model(model_path: str | None, reward_prob: float) -> GenerativeModel:
    """The spec at model_path (load_spec validates it), else the built-in maze."""
    return build_tmaze_model(reward_prob) if model_path is None else load_spec(model_path)


def _maze_model(config: ExperimentConfig) -> GenerativeModel:
    """The config's model; the experiment driver and its env need the maze's shape."""
    model = _resolve_model(config.model_path, config.reward_prob)
    shape = (model.num_states, model.num_outcomes, model.num_actions, model.horizon)
    if shape != (8, 7, 4, 3):
        raise ModelSpecError(
            f"the experiment driver needs a maze-shaped model "
            f"(8 states, 7 outcomes, 4 actions, horizon 3); got {shape}"
        )
    return model


def _trial_rngs(seed: int, trial: int) -> tuple[np.random.Generator, np.random.Generator]:
    """(environment, tie-break) generators of a 1-based trial.

    They are children 2(trial-1) and 2(trial-1)+1 of the master seed, the
    same streams SeedSequence(seed).spawn makes, built without spawning the
    children of earlier trials.
    """
    first = 2 * (trial - 1)
    return (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first,))),
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(first + 1,))),
    )


def _scheduled_trial(
    model: GenerativeModel,
    env: TmazeEnv,
    config: ExperimentConfig,
    trial: int,
    cumulative_before: int = 0,
    memo: dict | None = None,
) -> TrialRecord:
    """Trial `trial` of config's schedule: set its generators and context, then run it."""
    env.rng, tie_rng = _trial_rngs(config.seed, trial)
    env.reset(default_context(trial))
    return run_trial(
        model, env, config, tie_rng, trial=trial, cumulative_before=cumulative_before, memo=memo
    )


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Run the scheduled trials; fully deterministic for a given config."""
    start = time.perf_counter()
    model = _maze_model(config)
    records: list[TrialRecord] = []
    cumulative = 0
    memo: dict = {}  # one model and config: every history plans the same way
    env = TmazeEnv(rng=None, reward_prob=config.reward_prob)  # each trial sets its generator
    for trial in range(1, config.trials + 1):
        record = _scheduled_trial(model, env, config, trial, cumulative, memo)
        cumulative = record.cumulative_score
        records.append(record)

    return ExperimentRecord(
        config=config,
        trials=tuple(records),
        final_score=cumulative,
        duration_seconds=time.perf_counter() - start,
    )


# ---------------------------------------------------------------------------
# Persistence. Floats are printed with 12 significant digits; every file is
# byte-identical across runs of the same config (no timestamps).
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.12g}"
    return str(x)


def _jsonable(x):
    if isinstance(x, float):
        if math.isnan(x):
            return None
        return float(f"{x:.12g}")
    return x


def _config_echo(config: ExperimentConfig, fmt: str) -> dict:
    """The config's fields plus the format the records were written in."""
    return {**vars(config), "agent": config.agent.value, "output_format": fmt}


def _state_marginal_columns(num_states: int) -> list[str]:
    if num_states == 8:
        return ["loc_center", "loc_left", "loc_right", "loc_cue", "ctx_white", "ctx_black"]
    return [f"state_{s}" for s in range(num_states)]


def _state_marginal_values(bma: tuple[float, ...]) -> list[float]:
    if len(bma) == 8:
        probs = np.asarray(bma).reshape(2, 4)
        return [*probs.sum(axis=0).tolist(), *probs.sum(axis=1).tolist()]
    return list(bma)


def build_tables(record: ExperimentRecord) -> dict[str, tuple[list[str], list[list]]]:
    """Assemble the output tables as (header, rows) pairs keyed by table name."""
    num_policies = len(record.trials[0].epochs[0].policy_posterior)
    num_states = len(record.trials[0].epochs[0].bma_states[0])

    trials_rows = []
    beliefs_rows = []
    breakdown_rows = []
    for tr in record.trials:
        planning_epochs = [e for e in tr.epochs if e.action is not None]
        trials_rows.append([
            tr.trial,
            CONTEXT_LABELS[tr.true_context],
            *[ACTION_LABELS[a] for a in tr.actions],
            tr.score_delta,
            tr.cumulative_score,
        ])
        for e in tr.epochs:
            beliefs_rows.append(
                [tr.trial, e.epoch, *_state_marginal_values(e.bma_states[e.epoch - 1])]
            )
        for e in planning_epochs:
            for i in range(num_policies):
                b = e.breakdowns[i]
                viable = 0 if b is None else 1
                breakdown_rows.append([
                    tr.trial, e.epoch, i + 1, viable,
                    None if b is None else b.risk_states,
                    None if b is None else b.ambiguity,
                    None if b is None else b.intrinsic,
                    None if b is None else b.extrinsic,
                    None if b is None else b.total,
                ])

    action_cols = [f"action{k}" for k in range(1, len(record.trials[0].actions) + 1)]
    return {
        "trials": (
            ["trial", "context", *action_cols, "score", "cumulative"],
            trials_rows,
        ),
        "beliefs": (
            ["trial", "epoch", *_state_marginal_columns(num_states)],
            beliefs_rows,
        ),
        "policies": _policy_table(record),
        "breakdown": (
            ["trial", "epoch", "policy", "viable",
             "risk", "ambiguity", "intrinsic", "extrinsic", "G"],
            breakdown_rows,
        ),
    }


def _policy_table(record: ExperimentRecord) -> tuple[list[str], list[list]]:
    """Per trial, the policy posterior of its final planning epoch."""
    rows = [[tr.trial, *[e for e in tr.epochs if e.action is not None][-1].policy_posterior]
            for tr in record.trials]
    return ["trial", *[f"policy{i}" for i in range(1, len(rows[0]))]], rows


def _write_csvs(out: Path, tables: dict[str, tuple[list[str], list[list]]]) -> list[Path]:
    """Write each (header, rows) table to out/<name>.csv."""
    written = []
    for name, (header, rows) in tables.items():
        path = out / f"{name}.csv"
        lines = [",".join(header), *(",".join(_fmt(x) for x in row) for row in rows)]
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def write_records(record: ExperimentRecord, output_dir, fmt: str = "csv") -> list[Path]:
    """Emit the trials/beliefs/policies/breakdown tables plus a config echo."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = build_tables(record)
    if fmt == "csv":
        written = _write_csvs(out, tables)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(_config_echo(record.config, fmt), indent=2) + "\n")
        written.append(config_path)
    elif fmt == "json":
        doc = {"config": _config_echo(record.config, fmt)}
        for name, (header, rows) in tables.items():
            doc[name] = [
                {key: _jsonable(value) for key, value in zip(header, row)} for row in rows
            ]
        path = out / "records.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        written = [path]
    else:
        raise ValueError(f"unknown output format: {fmt!r}")
    return written


def _black_bands(contexts: list[int]) -> list[tuple[int, int]]:
    bands = []
    start = None
    for trial, context in enumerate(contexts, start=1):
        if context == 1 and start is None:
            start = trial
        elif context != 1 and start is not None:
            bands.append((start, trial - 1))
            start = None
    if start is not None:
        bands.append((start, len(contexts)))
    return bands


def emit_plot_data(record: ExperimentRecord, output_dir) -> list[Path]:
    """Numeric tables for the first-trial belief matrices and the run series."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    first = record.trials[0]
    horizon = len(first.epochs)
    num_states = len(first.epochs[0].bma_states[0])
    if num_states != 8:
        raise ValueError("plot data emission expects the 8-state maze layout")

    held_cols = [f"at_epoch{h}" for h in range(1, horizon + 1)]
    # marginals[about][held]: location then context marginals of the belief
    # about timestep about+1 held at epoch held+1
    marginals = [[_state_marginal_values(e.bma_states[about]) for e in first.epochs]
                 for about in range(horizon)]
    position_rows = [[about + 1, LOCATION_LABELS[loc], *[m[loc] for m in held]]
                     for about, held in enumerate(marginals) for loc in range(4)]
    context_rows = [[about + 1, CONTEXT_LABELS[ctx], *[m[4 + ctx] for m in held]]
                    for about, held in enumerate(marginals) for ctx in range(2)]
    bands = _black_bands([tr.true_context for tr in record.trials])
    return _write_csvs(out, {
        "fig2_position_trial1": (["epoch", "location", *held_cols], position_rows),
        "fig2_context_trial1": (["epoch", "context", *held_cols], context_rows),
        "fig3_policies": _policy_table(record),
        "fig3_score": (
            ["trial", "context", "cumulative"],
            [[tr.trial, CONTEXT_LABELS[tr.true_context], tr.cumulative_score]
             for tr in record.trials],
        ),
        "fig3_context_bands": (["start", "end"], [list(band) for band in bands]),
    })
