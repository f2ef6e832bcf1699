"""Closed-loop trial runner, experiment driver, and result persistence.

Each trial runs perceive -> infer -> plan -> act over the model horizon,
re-planning every epoch with policies filtered to the executed action prefix.
Beliefs reset between trials. One master seed derives an independent
(environment, tie-break) generator pair per trial, so environment draws on
matched seeds are identical across agents.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .inference import bma_beliefs, filter_step
from .model import GenerativeModel, ModelEnvironment, ModelSpecError, load_spec
from .planning import (
    TIE_TOLERANCE,
    EfeBreakdown,
    ObjectiveKind,
    PlanContext,
    _score_tree,
    action_marginal,
    break_tie,
    policy_posterior,
    tie_set,
)
from .tmaze import (
    ACTION_LABELS,
    CENTER,
    CONTEXT_LABELS,
    LOCATION_LABELS,
    NUM_LOCATIONS,
    OUTCOME_SCORES,
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
    tie_tolerance: float = TIE_TOLERANCE
    reward_prob: float = REWARD_PROB
    model_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "agent", ObjectiveKind(self.agent))
        for name in ("trials", "seed", "precision", "tie_tolerance", "reward_prob"):
            value = getattr(self, name)
            if isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, not a bool: {value!r}")
            if name in ("trials", "seed"):
                if not hasattr(value, "__index__"):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
                object.__setattr__(self, name, operator.index(value))
            elif not isinstance(value, (int, float, np.integer, np.floating)):
                raise ValueError(f"{name} must be an int or a float, got {value!r}")
        if self.model_path is not None:
            try:
                object.__setattr__(self, "model_path", os.fsdecode(self.model_path))
            except TypeError:
                raise ValueError(f"model_path must be a path, got {self.model_path!r}") from None
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        for name in ("precision", "tie_tolerance"):
            value = getattr(self, name)
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int past the largest float
                finite = False
            if not (finite and value >= 0.0):
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
    parent: EpochRecord | None,
    trial: int,
) -> dict[int | None, EpochRecord]:
    """The memo value of the (executed, observations) history: its records.

    parent is a record of the history one epoch shorter (None at epoch 1). Its
    first epoch - 1 bma_states rows, the past filtered beliefs, are shared; a
    filter_step of the newest observation adds the present row. Every viable
    policy shares these rows, so only the viable policies' predictions are
    mixed. The records map each tied action, ascending, to its EpochRecord
    (None at the final epoch); all share one set of field tuples."""
    policies = model.policies
    epoch = len(observations)
    past = parent.bma_states[: epoch - 1] if parent else ()
    pred = model.transitions[executed[-1]] @ past[-1] if past else model.state_prior.probs
    now = filter_step(model, pred, observations[-1], epoch, trial)
    ctx = PlanContext(current_epoch=epoch, executed_actions=executed)
    viable = ctx.viable(policies)

    g = np.full(len(policies), math.nan)
    breakdowns: list[EfeBreakdown | None] = [None] * len(policies)
    predicted: list[np.ndarray | None] = [None] * len(policies)
    planning = epoch < model.horizon
    if planning:
        summed, paths, _, states = _score_tree(model, now, policies.actions[viable, epoch - 1:],
                                               config.agent)
        g[viable] = summed[:, -1]
        for i, sums, table in zip(viable, summed.tolist(), states[paths]):
            breakdowns[i] = EfeBreakdown(*sums)
            predicted[i] = table
    else:
        g[viable] = 0.0  # no future left; posterior reduces to the prefix filter

    post = policy_posterior(g, policies, ctx, config.precision)
    marg = action_marginal(post, policies, epoch, model.num_actions) if planning else None
    mixed = bma_beliefs(post, predicted).tolist() if planning else []
    fields = dict(
        epoch=epoch,
        observation=observations[-1],
        action_marginal=None if marg is None else tuple(marg.probs.tolist()),
        policy_posterior=tuple(post.probs.tolist()),
        bma_states=(*past, tuple(now.tolist()), *map(tuple, mixed)),
        g_values=tuple(g.tolist()),
        breakdowns=tuple(breakdowns),
    )
    tied = (None,) if marg is None else tie_set(marg, config.tie_tolerance)
    return {a: EpochRecord(action=a, **fields) for a in tied}


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
    observations) history, whose value _plan_epoch makes: its records keyed by
    the tie set. A miss plans the history from the record appended last; every
    visit draws the tie-break among the keys (none at the final epoch), appends
    that record and steps the env. A memo dict shared by trials of one model
    and plan key plans each distinct history once. Without one, a fresh dict
    serves the trial and never hits. Records are the same either way."""
    if model.num_outcomes > len(OUTCOME_SCORES):
        raise ValueError(f"run_trial scores outcomes with the maze's {len(OUTCOME_SCORES)} "
                         f"outcome scores; the model has {model.num_outcomes} outcomes")
    memo = {} if memo is None else memo
    initial_state = env.state
    observations = [env.observe()]
    executed: list[int] = []
    epoch_records: list[EpochRecord] = []

    for epoch in range(1, model.horizon + 1):
        key = (tuple(executed), tuple(observations))
        records = memo.get(key)
        if records is None:
            parent = epoch_records[-1] if epoch_records else None
            records = memo[key] = _plan_epoch(model, config, *key, parent, trial)

        action = break_tie(tuple(records), rng) if epoch < model.horizon else None
        epoch_records.append(records[action])
        if action is not None:
            executed.append(action)
            observations.append(env.step(action))

    score_delta = sum(score_outcome(o) for o in observations)
    return TrialRecord(
        trial=trial,
        initial_state=initial_state,
        epochs=tuple(epoch_records),
        actions=tuple(executed),
        score_delta=score_delta,
        cumulative_score=cumulative_before + score_delta,
    )


@functools.lru_cache(maxsize=16)
def _shared_plans(reward_prob: float, zero_sign: float, agent: ObjectiveKind,
                  precision: float, tie_tolerance: float) -> tuple[GenerativeModel, dict]:
    """The built-in maze and the one history memo that its runs of a plan key share.

    A plan depends on these config fields alone, not on the seed or the trial
    count. zero_sign keeps reward_prob 0.0 and -0.0 apart: they compare equal,
    but the signs of the likelihood's zeros, and so the records, differ.
    """
    return build_tmaze_model(reward_prob), {}


def _plans(config: ExperimentConfig) -> tuple[GenerativeModel, dict]:
    """The config's model and the history memo its trials plan through.

    The built-in maze comes with the memo that its runs of a plan key share. A
    spec is loaded and gets a fresh memo, because the file can change between
    runs; the experiment driver's schedule and scoring need the maze's shape.
    """
    if config.model_path is None:
        return _shared_plans(config.reward_prob, math.copysign(1.0, config.reward_prob),
                             config.agent, config.precision, config.tie_tolerance)
    model = load_spec(config.model_path)
    shape = (model.num_states, model.num_outcomes, model.num_actions, model.horizon)
    if shape != (8, 7, 4, 3):
        raise ModelSpecError(
            f"the experiment driver needs a maze-shaped model "
            f"(8 states, 7 outcomes, 4 actions, horizon 3); got {shape}"
        )
    return model, {}


# Child k of SeedSequence(seed).spawn is SeedSequence(seed, spawn_key=(k,)),
# whose PCG64 state hashes the seed's 32-bit words, zero-padded to the pool's 4,
# then k's words. The hash up to k's words is the parent's pool, whose padding
# hashes the same zeros: numpy hashes that pool, and every key's words and the
# final state are hashed here in one pass of uint32 arrays, step for step.
_M32 = 0xFFFF_FFFF


def _hash_consts(init: int, mult: int, start: int, stop: int) -> np.ndarray:
    """init * mult**i modulo 2**32 for i in start..stop: a hash's running constants."""
    steps = np.full(stop - start + 1, mult, dtype=np.uint32)
    steps[0] = init * pow(mult, start, 1 << 32) & _M32
    return steps.cumprod(dtype=np.uint32)


def _hashed(value, const, next_const):
    """SeedSequence's hash step (hashmix, or one word of generate_state) of uint32 value(s)."""
    value = (value ^ const) * next_const & _M32
    return value ^ value >> 16


def _mixed(x, y):
    """SeedSequence's mix of uint32 value(s) x and y."""
    value = (0xCA01_F9DD * x - 0x4973_F715 * y) & _M32
    return value ^ value >> 16


def _spawned_states(seed: int, keys: Sequence[int]) -> np.ndarray:
    """SeedSequence(seed, spawn_key=(k,)).generate_state(4, np.uint64) for each key k, as rows."""
    pool = np.random.SeedSequence(seed).pool
    width = (max(max(keys).bit_length(), 1) + 31) // 32
    key_words = np.array([[k >> shift & _M32 for k in keys] for shift in range(0, 32 * width, 32)],
                         dtype=np.uint32)  # row j: each key's word j, 0 past its last word
    n = 4 * max(4, (seed.bit_length() + 31) // 32)  # hashmix calls in the parent's pool
    a = _hash_consts(0x43B0_D7E5, 0x931E_8875, n, n + 4 * width)
    for j, column in enumerate(key_words):
        mixed = _mixed(pool, _hashed(column[:, None], a[4 * j:4 * j + 4], a[4 * j + 1:4 * j + 5]))
        # a key mixes in its word j only if it has one: a later word is nonzero
        pool = np.where(key_words[j:].any(axis=0)[:, None], mixed, pool) if j else mixed
    b = _hash_consts(0x8B51_F9DD, 0x58F3_8DED, 0, 8)
    state = _hashed(np.tile(pool, 2), b[:-1], b[1:])  # the pool, cycled to 8 words
    return state.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache  # built on first use: importing numpy.random costs every process
def _ready_seed():
    """A seed sequence that hands PCG64 a state already generated."""
    from numpy.random.bit_generator import ISeedSequence

    class ReadySeed(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state  # PCG64 asks for 4 np.uint64 words

    return ReadySeed


_SEEDED_TRIALS = 1024  # trials per seeding pass: a long run never holds all its states


def _trial_rngs(
    seed: int, trials: Sequence[int]
) -> Iterator[tuple[np.random.Generator, np.random.Generator]]:
    """(environment, tie-break) generators of each 1-based trial, in order.

    They are children 2(trial-1) and 2(trial-1)+1 of the master seed, the
    same streams SeedSequence(seed).spawn makes. Their states come from one
    _spawned_states pass per _SEEDED_TRIALS trials; each pair is built as the
    caller takes it.
    """
    ready = _ready_seed()
    for start in range(0, len(trials), _SEEDED_TRIALS):
        block = trials[start:start + _SEEDED_TRIALS]
        states = _spawned_states(seed, [2 * (t - 1) + j for t in block for j in (0, 1)])
        rngs = (np.random.Generator(np.random.PCG64(ready(state))) for state in states)
        yield from zip(rngs, rngs)


def _scheduled_trial(
    model: GenerativeModel,
    env: ModelEnvironment,
    config: ExperimentConfig,
    trial: int,
    rngs: tuple[np.random.Generator, np.random.Generator],
    cumulative_before: int = 0,
    memo: dict | None = None,
) -> TrialRecord:
    """Trial `trial` of config's schedule: set its (environment, tie-break)
    generators rngs and its context, then run it."""
    env.rng, tie_rng = rngs
    env.reset(state_index(default_context(trial), CENTER))
    return run_trial(
        model, env, config, tie_rng, trial=trial, cumulative_before=cumulative_before, memo=memo
    )


def run_experiment(config: ExperimentConfig) -> ExperimentRecord:
    """Run the scheduled trials; fully deterministic for a given config.

    The trials plan through _plans' memo: runs of the built-in maze share one
    per plan key for the life of the process, so each history is planned once,
    and a spec run plans through its own.
    """
    start = time.perf_counter()
    model, memo = _plans(config)
    records: list[TrialRecord] = []
    cumulative = 0
    env = ModelEnvironment(model)  # each trial sets its generator
    trials = range(1, config.trials + 1)
    for trial, rngs in zip(trials, _trial_rngs(config.seed, trials)):
        record = _scheduled_trial(model, env, config, trial, rngs, cumulative, memo)
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
# timestamps). A table cell is a float, an int, a string or None; a table of
# record objects that memo hits share holds spans of them, which the writer
# derives and renders once per object. Each float is rounded once, to 12
# significant digits; the CSV and JSON renderers then spell the rounded value,
# and a missing value (None or NaN), each in their own way.
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


class _Rows:
    """A table's rows as spans (lead, source): lead + tail for each tail of
    derive(source), a record object that memo hits share across trials. No row
    is held flat: the writer derives and renders each source once."""

    def __init__(self, derive):
        self.derive = derive
        self.spans: list[tuple[list, object]] = []

    def add(self, lead: list, source) -> None:
        self.spans.append((lead, source))

    def __iter__(self):
        for lead, source in self.spans:
            for tail in self.derive(source):
                yield [*lead, *tail]


def _rendered_rows(rows, cell_texts, sep: str, rowsep: str) -> list[str]:
    """Runs of rows, each row sep.join(cell_texts(cells, index of the first
    cell)) and the rows of a run joined by rowsep; empty when rows are.

    The one place a `_Rows` source is derived and rendered: once per distinct
    source per write, in a dict keyed by id(source), which the spans keep alive.
    Never key by value: 0.0 == -0.0 and 1 == 1.0 hash alike but render apart.
    A source's tails are joined once, each cell after a sep, so a span's rows
    are its head joined before each tail in one join.
    """
    if not isinstance(rows, _Rows):
        return [sep.join(cell_texts(row, 0)) for row in rows]
    tails: dict[int, list[str]] = {}
    runs = []
    for lead, source in rows.spans:
        texts = tails.get(id(source))
        if texts is None:
            first = len(lead)
            texts = tails[id(source)] = [sep.join(["", *cell_texts(tail, first)])
                                         for tail in rows.derive(source)]
        if not texts:
            continue
        if lead:
            head = sep.join(cell_texts(lead, 0))
            runs.append(head + (rowsep + head).join(texts))
        else:  # a row of tail cells alone has no sep before its first
            runs.append(rowsep.join(text[len(sep):] for text in texts))
    return runs


def _csv_text(header: list[str], rows: list[list]) -> str:
    runs = _rendered_rows(rows, lambda cells, _: list(map(_csv_cell, cells)), ",", "\n")
    return "\n".join([",".join(header), *runs]) + "\n"


def _json_member(name: str, header: list[str], rows: list[list]) -> str:
    """A table as a member of the records document: a list of one object per row."""
    keys = [f"      {encode_basestring_ascii(column)}: " for column in header]

    def cell_texts(cells, first):
        return list(map(str.__add__, keys[first:], map(_json_cell, cells)))

    rowsep = "\n    },\n    {\n"
    runs = _rendered_rows(rows, cell_texts, ",\n", rowsep)
    body = "[\n    {\n" + rowsep.join(runs) + "\n    }\n  ]" if runs else "[]"
    return f"  {encode_basestring_ascii(name)}: {body}"


def _json_text(config_echo: dict, tables: dict[str, tuple[list[str], list[list]]]) -> str:
    """json.dumps({"config": config_echo, **tables as row objects}, indent=2) + newline."""
    head = json.dumps({"config": config_echo}, indent=2)[:-2]  # without the closing "\n}"
    members = [_json_member(name, header, rows) for name, (header, rows) in tables.items()]
    return ",\n".join([head, *members]) + "\n}\n"


def _config_echo(config: ExperimentConfig, fmt: str) -> dict:
    """The config's fields plus the format the records were written in."""
    return {**vars(config), "agent": config.agent.value, "output_format": fmt}


def _maze_layout(first: EpochRecord) -> bool:
    """Whether a record whose first epoch is `first` has the maze's 8 states and 4
    actions; its tables then name locations, contexts and actions, else indices."""
    return (len(first.bma_states[0]), len(first.action_marginal or ())) == (8, 4)


_MAZE_BELIEF_COLUMNS = (*(f"loc_{label}" for label in LOCATION_LABELS),
                        *(f"ctx_{label}" for label in CONTEXT_LABELS))


def _maze_marginals(bma: tuple[float, ...]) -> list[float]:
    """The location then the context marginals of a maze state belief."""
    probs = np.asarray(bma).reshape(2, 4)
    return [*probs.sum(axis=0).tolist(), *probs.sum(axis=1).tolist()]


def _breakdown_tails(breakdowns: tuple[EfeBreakdown | None, ...]) -> list[list]:
    """Per policy: its number, viable, and the summed components (empty if unplanned)."""
    return [[i, 0, None, None, None, None, None] if b is None else
            [i, 1, b.risk_states, b.ambiguity, b.intrinsic, b.extrinsic, b.total]
            for i, b in enumerate(breakdowns, start=1)]


def build_tables(record: ExperimentRecord) -> dict[str, tuple[list[str], list[list]]]:
    """Assemble the output tables as (header, rows) pairs keyed by table name."""
    first = record.trials[0].epochs[0]
    maze = _maze_layout(first)
    trials_rows = []
    beliefs_rows = _Rows(lambda bma: [_maze_marginals(bma) if maze else bma])
    breakdown_rows = _Rows(_breakdown_tails)
    for tr in record.trials:
        trials_rows.append([
            tr.trial,
            CONTEXT_LABELS[tr.true_context] if maze else tr.initial_state,
            *(ACTION_LABELS[a] if maze else a for a in tr.actions),
            tr.score_delta,
            tr.cumulative_score,
        ])
        for e in tr.epochs:
            lead = [tr.trial, e.epoch]
            beliefs_rows.add(lead, e.bma_states[e.epoch - 1])
            if e.action is not None:
                breakdown_rows.add(lead, e.breakdowns)

    action_cols = [f"action{k}" for k in range(1, len(record.trials[0].actions) + 1)]
    return {
        "trials": (
            ["trial", "context", *action_cols, "score", "cumulative"],
            trials_rows,
        ),
        "beliefs": (
            ["trial", "epoch", *(_MAZE_BELIEF_COLUMNS if maze else
                                 (f"state_{s}" for s in range(len(first.bma_states[0]))))],
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
    """Per trial, the policy posterior of its last planning epoch, the one before the last."""
    if len(record.trials[0].epochs) < 2:
        raise ValueError("the policies table needs a planning epoch; a horizon-1 trial has none")
    rows = _Rows(lambda posterior: [posterior])
    for tr in record.trials:
        rows.add([tr.trial], tr.epochs[-2].policy_posterior)
    header = ["trial", *(f"policy{i}" for i, _ in enumerate(tr.epochs[-2].policy_posterior, 1))]
    return header, rows


def _csv_texts(tables: dict[str, tuple[list[str], list[list]]]) -> dict[str, str]:
    """Each (header, rows) table as the text of its file <name>.csv."""
    return {f"{name}.csv": _csv_text(header, rows) for name, (header, rows) in tables.items()}


def _write_files(output_dir, texts: dict[str, str]) -> list[Path]:
    """Make output_dir, then write each file name's text in it. Every refusal
    comes before this, so a refused record leaves no directory behind."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / name).write_text(text)
    return [out / name for name in texts]


def write_records(record: ExperimentRecord, output_dir, fmt: str = "csv") -> list[Path]:
    """Emit the trials/beliefs/policies/breakdown tables plus a config echo."""
    tables = build_tables(record)
    echo = _config_echo(record.config, fmt)
    if fmt == "csv":
        texts = {**_csv_texts(tables), "config.json": json.dumps(echo, indent=2) + "\n"}
    elif fmt == "json":
        texts = {"records.json": _json_text(echo, tables)}
    else:
        raise ValueError(f"unknown output format: {fmt!r}")
    return _write_files(output_dir, texts)


def _black_bands(contexts: list[int]) -> list[tuple[int, int]]:
    bands, end = [], 0
    for context, run in itertools.groupby(contexts):
        start, end = end + 1, end + len(list(run))
        if context == 1:
            bands.append((start, end))
    return bands


def emit_plot_data(record: ExperimentRecord, output_dir) -> list[Path]:
    """Numeric tables for the first-trial belief matrices and the run series."""
    first = record.trials[0]
    horizon = len(first.epochs)
    if not _maze_layout(first.epochs[0]):
        raise ValueError("plot data emission expects the maze layout (8 states, 4 actions)")

    held_cols = [f"at_epoch{h}" for h in range(1, horizon + 1)]
    # marginals[about][held]: location then context marginals of the belief
    # about timestep about+1 held at epoch held+1
    marginals = [[_maze_marginals(e.bma_states[about]) for e in first.epochs]
                 for about in range(horizon)]
    position_rows = [[about + 1, LOCATION_LABELS[loc], *[m[loc] for m in held]]
                     for about, held in enumerate(marginals) for loc in range(4)]
    context_rows = [[about + 1, CONTEXT_LABELS[ctx], *[m[4 + ctx] for m in held]]
                    for about, held in enumerate(marginals) for ctx in range(2)]
    bands = _black_bands([tr.true_context for tr in record.trials])
    return _write_files(output_dir, _csv_texts({
        "fig2_position_trial1": (["epoch", "location", *held_cols], position_rows),
        "fig2_context_trial1": (["epoch", "context", *held_cols], context_rows),
        "fig3_policies": _policy_table(record),
        "fig3_score": (
            ["trial", "context", "cumulative"],
            [[tr.trial, CONTEXT_LABELS[tr.true_context], tr.cumulative_score]
             for tr in record.trials],
        ),
        "fig3_context_bands": (["start", "end"], [list(band) for band in bands]),
    }))
