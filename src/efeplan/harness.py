"""Closed-loop trial runner, experiment driver, and result persistence.

Each trial runs perceive -> infer -> plan -> act over the model horizon,
re-planning every epoch with policies filtered to the executed action prefix.
Beliefs reset between trials. One master seed derives an independent
(environment, tie-break) generator pair per trial, so environment draws on
matched seeds are identical across agents.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .inference import ImpossibleObservationError, bma_beliefs, infer_states
from .model import GenerativeModel, ModelEnvironment, ModelSpecError, load_spec
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
    CENTER,
    CONTEXT_LABELS,
    LOCATION_LABELS,
    NUM_LOCATIONS,
    REWARD_PROB,
    build_tmaze_model,
    default_context,
    score_outcome,
    state_index,
)


@dataclass(frozen=True)
class ExperimentConfig:
    agent: ObjectiveKind = ObjectiveKind.EXPECTED_FREE_ENERGY
    trials: int = 50
    seed: int = 0
    precision: float = 1.0
    tie_tolerance: float = 1e-9
    reward_prob: float = REWARD_PROB
    model_path: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("precision", "tie_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be a nonnegative real, got {value!r}")
        if not 0.0 <= self.reward_prob <= 1.0:
            raise ValueError(f"reward_prob must lie in [0, 1], got {self.reward_prob!r}")
        if self.model_path is not None and self.reward_prob != REWARD_PROB:
            raise ValueError("a model spec carries its own likelihood; leave reward_prob unset")


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
    initial_state: int
    epochs: tuple[EpochRecord, ...]
    actions: tuple[int, ...]
    score_delta: int
    cumulative_score: int

    @property
    def true_context(self) -> int:
        """The maze's view of the initial state: the context the trial ran in."""
        return self.initial_state // NUM_LOCATIONS


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
    marg = action_marginal(post, policies, epoch, model.num_actions) if epoch < horizon else None
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
    env: ModelEnvironment,
    config: ExperimentConfig,
    rng: np.random.Generator,
    *,
    trial: int = 1,
    cumulative_before: int = 0,
    memo: dict | None = None,
) -> TrialRecord:
    """One full trial from the env's current state, which the record keeps.

    Every epoch is planned through a memo keyed by the (executed actions,
    observations) history. A memo dict shared by trials of one model and config
    plans each distinct history once: later visits reuse its records and only
    select the action and step the env. Without one, a fresh dict serves the
    trial; each epoch's history is one observation longer, so it never hits.
    Records are the same either way.
    """
    memo = {} if memo is None else memo
    initial_state = env.state
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
        initial_state=initial_state,
        epochs=tuple(epoch_records),
        actions=tuple(executed),
        score_delta=score_delta,
        cumulative_score=cumulative_before + score_delta,
    )


def _resolve_model(model_path: str | None, reward_prob: float) -> GenerativeModel:
    """The spec at model_path (load_spec validates it), else the built-in maze."""
    return build_tmaze_model(reward_prob) if model_path is None else load_spec(model_path)


def _maze_model(config: ExperimentConfig) -> GenerativeModel:
    """The config's model; the experiment driver's schedule and scoring need the maze's shape."""
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
    env: ModelEnvironment,
    config: ExperimentConfig,
    trial: int,
    cumulative_before: int = 0,
    memo: dict | None = None,
) -> TrialRecord:
    """Trial `trial` of config's schedule: set its generators and context, then run it."""
    env.rng, tie_rng = _trial_rngs(config.seed, trial)
    env.reset(state_index(default_context(trial), CENTER))
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
    env = ModelEnvironment(model)  # each trial sets its generator
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
# Persistence. Every file is byte-identical across runs of the same config (no
# timestamps). A table cell is a float, an int, a string or None. Each float is
# rounded once, to 12 significant digits; the CSV and JSON renderers then spell
# the rounded value, and a missing value (None or NaN), each in their own way.
# ---------------------------------------------------------------------------

_JSON_INFINITIES = {"inf": "Infinity", "-inf": "-Infinity"}  # json.dumps' spelling


def _rounded(x: float) -> str | None:
    """x at the tables' precision, 12 significant digits; None for NaN."""
    return None if x != x else f"{x:.12g}"


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return _rounded(x) or ""
    return "" if x is None else str(x)


def _json_cell(x) -> str:
    """The text json.dumps writes for x after rounding, with null for NaN."""
    if isinstance(x, float):
        text = _rounded(x)
        if text is None:
            return "null"
        return _JSON_INFINITIES.get(text) or float.__repr__(float(text))
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    return encode_basestring_ascii(x)


class _Rows(list):
    """A table's rows, grouped into spans that name where their cells come from.

    Each span (lead, source, count) covers the next `count` rows. They start
    with the cells `lead`, and their other cells derive from `source` alone,
    an object of the record. Memo hits share those objects across trials, so
    `add` derives a source's cells once and a writer renders them once, each
    keyed by id(source) in a cache that lives for one table of one write. The
    spans keep every source alive meanwhile, so no id is reused. Never key by
    value: 0.0 == -0.0 and 1 == 1.0 hash alike but render differently.
    """

    __slots__ = ("spans", "_tails")

    def __init__(self):
        super().__init__()
        self.spans: list[tuple[list, object, int]] = []
        self._tails: dict[int, list[list]] = {}

    def add(self, lead: list, source, derive) -> None:
        """One row lead + tail for each tail of derive(source), derived once per source."""
        tails = self._tails.get(id(source))
        if tails is None:
            tails = self._tails[id(source)] = derive(source)
        self.extend([*lead, *tail] for tail in tails)
        self.spans.append((lead, source, len(tails)))


def _rendered_rows(rows: list[list], cell_texts, sep: str) -> list[str]:
    """sep.join(cell_texts(cells, index of the first cell)) for each row.

    For `_Rows`, each source's cells are rendered once, and each span's lead once.
    """
    spans = getattr(rows, "spans", None)
    if spans is None:
        return [sep.join(cell_texts(row, 0)) for row in rows]
    tails: dict[int, list[list[str]]] = {}
    lines = []
    start = 0
    for lead, source, count in spans:
        texts = tails.get(id(source))
        if texts is None:
            first = len(lead)
            texts = tails[id(source)] = [cell_texts(row[first:], first)
                                         for row in rows[start:start + count]]
        start += count
        head = cell_texts(lead, 0)
        lines += [sep.join(head + tail) for tail in texts]
    return lines


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = _rendered_rows(rows, lambda cells, _: list(map(_csv_cell, cells)), ",")
    return "\n".join([",".join(header), *lines]) + "\n"


def _json_member(name: str, header: list[str], rows: list[list]) -> str:
    """A table as a member of the records document: a list of one object per row."""
    key = f"  {encode_basestring_ascii(name)}: "
    if not rows:
        return key + "[]"
    keys = [f"      {encode_basestring_ascii(column)}: " for column in header]

    def cell_texts(cells, first):
        return list(map(str.__add__, keys[first:], map(_json_cell, cells)))

    objects = _rendered_rows(rows, cell_texts, ",\n")
    return key + "[\n    {\n" + "\n    },\n    {\n".join(objects) + "\n    }\n  ]"


def _json_text(config_echo: dict, tables: dict[str, tuple[list[str], list[list]]]) -> str:
    """json.dumps({"config": config_echo, **tables as row objects}, indent=2) + newline."""
    head = json.dumps({"config": config_echo}, indent=2)[:-2]  # without the closing "\n}"
    members = [_json_member(name, header, rows) for name, (header, rows) in tables.items()]
    return ",\n".join([head, *members]) + "\n}\n"


def _config_echo(config: ExperimentConfig, fmt: str) -> dict:
    """The config's fields plus the format the records were written in."""
    return {**vars(config), "agent": config.agent.value, "output_format": fmt}


def _state_marginal_columns(num_states: int) -> list[str]:
    if num_states == 8:
        return [*(f"loc_{label}" for label in LOCATION_LABELS),
                *(f"ctx_{label}" for label in CONTEXT_LABELS)]
    return [f"state_{s}" for s in range(num_states)]


def _state_marginal_values(bma: tuple[float, ...]) -> list[float]:
    if len(bma) == 8:
        probs = np.asarray(bma).reshape(2, 4)
        return [*probs.sum(axis=0).tolist(), *probs.sum(axis=1).tolist()]
    return list(bma)


def _breakdown_tails(breakdowns: tuple[EfeBreakdown | None, ...]) -> list[list]:
    """Per policy: its number, viable, and the summed components (empty if unplanned)."""
    return [[i, 0, None, None, None, None, None] if b is None else
            [i, 1, b.risk_states, b.ambiguity, b.intrinsic, b.extrinsic, b.total]
            for i, b in enumerate(breakdowns, start=1)]


def build_tables(record: ExperimentRecord) -> dict[str, tuple[list[str], list[list]]]:
    """Assemble the output tables as (header, rows) pairs keyed by table name."""
    num_states = len(record.trials[0].epochs[0].bma_states[0])
    trials_rows = []
    beliefs_rows = _Rows()
    breakdown_rows = _Rows()
    for tr in record.trials:
        trials_rows.append([
            tr.trial,
            CONTEXT_LABELS[tr.true_context] if num_states == 8 else tr.initial_state,
            *[ACTION_LABELS[a] for a in tr.actions],
            tr.score_delta,
            tr.cumulative_score,
        ])
        for e in tr.epochs:
            bma = e.bma_states[e.epoch - 1]
            beliefs_rows.add([tr.trial, e.epoch], bma, lambda row: [_state_marginal_values(row)])
        for e in tr.epochs:
            if e.action is not None:
                breakdown_rows.add([tr.trial, e.epoch], e.breakdowns, _breakdown_tails)

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
    rows = _Rows()
    for tr in record.trials:
        posterior = [e for e in tr.epochs if e.action is not None][-1].policy_posterior
        rows.add([tr.trial], posterior, lambda row: [row])
    return ["trial", *[f"policy{i}" for i in range(1, len(rows[0]))]], rows


def _write_csvs(out: Path, tables: dict[str, tuple[list[str], list[list]]]) -> list[Path]:
    """Write each (header, rows) table to out/<name>.csv."""
    written = []
    for name, (header, rows) in tables.items():
        path = out / f"{name}.csv"
        path.write_text(_csv_text(header, rows))
        written.append(path)
    return written


def write_records(record: ExperimentRecord, output_dir, fmt: str = "csv") -> list[Path]:
    """Emit the trials/beliefs/policies/breakdown tables plus a config echo."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = build_tables(record)
    echo = _config_echo(record.config, fmt)
    if fmt == "csv":
        written = _write_csvs(out, tables)
        config_path = out / "config.json"
        config_path.write_text(json.dumps(echo, indent=2) + "\n")
        written.append(config_path)
    elif fmt == "json":
        path = out / "records.json"
        path.write_text(_json_text(echo, tables))
        written = [path]
    else:
        raise ValueError(f"unknown output format: {fmt!r}")
    return written


def _black_bands(contexts: list[int]) -> list[tuple[int, int]]:
    bands, end = [], 0
    for context, run in itertools.groupby(contexts):
        start, end = end + 1, end + len(list(run))
        if context == 1:
            bands.append((start, end))
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
