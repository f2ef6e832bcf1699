"""Discrete POMDP generative models: definition, validation, file round-trip.

A model is the tuple (likelihood, transitions, preferences, state_prior,
policies, horizon). Likelihood columns are outcome distributions per state;
each transition matrix column is a next-state distribution per current state.
Preferences are raw utilities (unnormalized log-preferences over outcomes);
normalization happens at use-site in planning so the configured values are
preserved verbatim.
"""
from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import NORM_TOL, Categorical, log_sum_exp


class ModelSpecError(ValueError):
    """Raised when a model spec file is missing, malformed, or invalid."""


@dataclass(frozen=True)
class Policy:
    """A fixed sequence of action indices, one per transition of the horizon."""

    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))


@dataclass(frozen=True)
class PolicySet:
    """Ordered, duplicate-free collection of policies."""

    policies: tuple[Policy, ...]

    def __post_init__(self):
        object.__setattr__(self, "policies", tuple(self.policies))
        if len(self.policies) == 0:
            raise ValueError("policy set must be nonempty")
        if len({p.actions for p in self.policies}) != len(self.policies):
            raise ValueError("policy set contains duplicates")

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)

    def __getitem__(self, i: int) -> Policy:
        return self.policies[i]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GenerativeModel:
    """Immutable discrete POMDP. Invariants are checked by validate(), not here,
    so deliberately broken models can be constructed and reported on."""

    num_states: int
    num_outcomes: int
    num_actions: int
    horizon: int
    likelihood: np.ndarray            # num_outcomes x num_states, columns stochastic
    transitions: tuple[np.ndarray, ...]  # per action, num_states x num_states, columns stochastic
    preferences: np.ndarray           # raw utilities over outcomes, nats up to normalization
    state_prior: Categorical          # over states at the first epoch
    policies: PolicySet
    state_labels: tuple[str, ...] | None = None
    outcome_labels: tuple[str, ...] | None = None
    action_labels: tuple[str, ...] | None = None
    risk_state_prior: Categorical | None = None  # optional reference prior for risk-based objectives

    def __post_init__(self):
        object.__setattr__(self, "likelihood", _readonly(self.likelihood))
        object.__setattr__(self, "transitions", tuple(_readonly(b) for b in self.transitions))
        object.__setattr__(self, "preferences", _readonly(self.preferences))


def _check_finite(name: str, array: np.ndarray, violations: list[str]) -> bool:
    finite = np.isfinite(array)
    if finite.all():
        return True
    where = tuple(int(i) for i in np.argwhere(~finite)[0])
    violations.append(
        f"{name} entry {list(where)} is {float(array[where])!r}, expected a finite number"
    )
    return False


def _check_columns(name: str, matrix: np.ndarray, violations: list[str]) -> None:
    if not _check_finite(name, matrix, violations):
        return
    for col in range(matrix.shape[1]):
        column = matrix[:, col]
        if np.any(column < 0.0):
            violations.append(f"{name} column {col} has a negative entry")
        with np.errstate(over="ignore"):  # an overflowing sum is the inf reported below
            total = float(column.sum())
        if abs(total - 1.0) > NORM_TOL:
            violations.append(f"{name} column {col} sums to {total!r}, expected 1")


def validate(model: GenerativeModel) -> list[str]:
    """Return every invariant violation with its location; empty means valid."""
    v: list[str] = []
    if model.num_states < 1 or model.num_outcomes < 1 or model.num_actions < 1:
        v.append("num_states, num_outcomes, num_actions must all be positive")
        return v
    if model.horizon < 1:
        v.append(f"horizon must be positive, got {model.horizon}")

    if model.likelihood.shape != (model.num_outcomes, model.num_states):
        v.append(
            f"likelihood has shape {model.likelihood.shape}, "
            f"expected ({model.num_outcomes}, {model.num_states})"
        )
    else:
        _check_columns("likelihood", model.likelihood, v)

    if len(model.transitions) != model.num_actions:
        v.append(f"expected {model.num_actions} transition matrices, got {len(model.transitions)}")
    for u, b in enumerate(model.transitions):
        if b.shape != (model.num_states, model.num_states):
            v.append(
                f"transition[{u}] has shape {b.shape}, "
                f"expected ({model.num_states}, {model.num_states})"
            )
        else:
            _check_columns(f"transition[{u}]", b, v)

    if model.preferences.shape != (model.num_outcomes,):
        v.append(
            f"preferences has length {model.preferences.shape}, expected {model.num_outcomes}"
        )
    elif _check_finite("preferences", model.preferences, v):
        with np.errstate(over="ignore"):  # an overflow is the -inf reported here
            log_preferences = model.preferences - log_sum_exp(model.preferences)
        if _check_finite("normalised log-preferences", log_preferences, v):
            # G adds up to horizon - 1 expected utilities, each down to the lowest
            # entry; NORM_TOL covers rounding in the predicted outcome distributions
            worst = int(log_preferences.argmin())
            lowest = float(log_preferences[worst])
            if not math.isfinite((model.horizon - 1) * lowest * (1.0 + NORM_TOL)):
                v.append(f"normalised log-preferences entry [{worst}] is {lowest!r}, which "
                         f"overflows G summed over {model.horizon - 1} future epochs")
    if len(model.state_prior) != model.num_states:
        v.append(f"state prior has length {len(model.state_prior)}, expected {model.num_states}")
    if model.risk_state_prior is not None and len(model.risk_state_prior) != model.num_states:
        v.append(
            f"risk state prior has length {len(model.risk_state_prior)}, "
            f"expected {model.num_states}"
        )

    for i, policy in enumerate(model.policies):
        if len(policy.actions) != model.horizon - 1:
            v.append(
                f"policy {i} has length {len(policy.actions)}, expected {model.horizon - 1}"
            )
        for j, a in enumerate(policy.actions):
            if not 0 <= a < model.num_actions:
                v.append(f"policy {i} action {j} is {a}, outside 0..{model.num_actions - 1}")
    return v


def _cumulative_columns(matrix: np.ndarray) -> list[np.ndarray]:
    """Each column's cumulative sums, inf from its last entry with mass on."""
    rows = np.arange(len(matrix))[:, None]
    last = len(matrix) - 1 - (matrix[::-1] > 0.0).argmax(axis=0)
    return list(np.where(rows < last, np.cumsum(matrix, axis=0), np.inf).T.copy())


@dataclass(eq=False)
class ModelEnvironment:
    """The generative process of a validated model. step(action) moves the state by
    the action's transitions and then observes; observe samples an outcome in the
    current state; only reset sets the state.

    Stream convention: an outcome takes one uniform draw from rng, a move one
    more unless its transition column is one-hot. A draw is the searchsorted
    (side="right") index in the column's cumulative sums, inf from its last
    entry with mass on, so no draw passes that entry where the sums end below 1.
    """

    model: GenerativeModel
    rng: np.random.Generator | None = None
    state: int = field(init=False)

    def __post_init__(self):
        self._outcomes = _cumulative_columns(self.model.likelihood)
        # per action and state: the target of a one-hot column, else its cumulative sums
        self._moves = [[int(target) if count == 1 else cumulative for target, count, cumulative
                        in zip(b.argmax(axis=0), (b > 0.0).sum(axis=0), _cumulative_columns(b))]
                       for b in self.model.transitions]

    def reset(self, state: int) -> None:
        if not 0 <= state < self.model.num_states:
            raise ValueError(f"state {state} outside 0..{self.model.num_states - 1}")
        self.state = operator.index(state)  # a numpy integer becomes an int; 2.0 is refused

    def _draw(self, cumulative: np.ndarray) -> int:
        return int(cumulative.searchsorted(self.rng.random(), side="right"))

    def observe(self) -> int:
        return self._draw(self._outcomes[self.state])

    def step(self, action: int) -> int:
        if not 0 <= action < self.model.num_actions:
            raise ValueError(f"action {action} outside 0..{self.model.num_actions - 1}")
        move = self._moves[action][self.state]
        self.state = move if isinstance(move, int) else self._draw(move)
        return self.observe()


# ---------------------------------------------------------------------------
# Spec-file round trip. The on-disk format is a JSON key-value tree; floats
# are written with repr precision (>= 15 significant digits) so a save/load
# cycle is numerically exact.
# ---------------------------------------------------------------------------

_REQUIRED_KEYS = ("num_states", "num_outcomes", "num_actions", "horizon",
                  "A", "B", "C", "D", "policies")


_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer that float() rounds past the largest float


def _require_array(name: str, raw, shape: tuple[int, ...], nonnegative: bool) -> np.ndarray:
    """Check a JSON vector (shape (n,)) or matrix (shape (rows, cols)) of numbers
    and convert it. JSON numbers arrive as exact ints and floats, never bools."""
    vector = len(shape) == 1
    if not isinstance(raw, list) or len(raw) != shape[0]:
        raise ModelSpecError(f"{name} must be a list of {shape[0]} "
                             f"{'numbers' if vector else 'rows'}")
    rows = [raw] if vector else raw
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != shape[-1]:
            raise ModelSpecError(f"{name} row {i} must be a list of {shape[-1]} numbers")

    def where(i: int, j: int) -> str:
        return f"{name}[{j}]" if vector else f"{name}[{i}][{j}]"

    def first(bad) -> tuple[int, int]:
        return next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if bad(x))

    if not {type(x) for row in rows for x in row} <= {int, float}:
        i, j = first(lambda x: type(x) not in (int, float))
        raise ModelSpecError(f"{where(i, j)} is not a number: {rows[i][j]!r}")
    try:
        out = np.array(rows, dtype=np.float64)
    except OverflowError:
        i, j = first(lambda x: type(x) is int and abs(x) >= _FLOAT_OVERFLOW)
        raise ModelSpecError(f"{where(i, j)} is an integer too large for a float") from None
    if nonnegative and (out < 0.0).any():
        i, j = np.argwhere(out < 0.0)[0]
        raise ModelSpecError(f"{where(i, j)} = {rows[i][j]!r}: negative probability")
    return out.reshape(shape)


def _optional_labels(doc: dict, key: str, length: int) -> tuple[str, ...] | None:
    raw = doc.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list) or len(raw) != length or not all(isinstance(s, str) for s in raw):
        raise ModelSpecError(f"{key} must be a list of {length} strings")
    return tuple(raw)


def load_spec(path) -> GenerativeModel:
    """Read a model spec file, checking schema and invariants."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model spec file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelSpecError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelSpecError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelSpecError("model spec must be a key-value tree")

    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ModelSpecError(f"missing required key: {key}")
    dims = {}
    for key in ("num_states", "num_outcomes", "num_actions", "horizon"):
        value = doc[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ModelSpecError(f"{key} must be a positive integer, got {value!r}")
        dims[key] = value
    n_s, n_o, n_u, horizon = (dims[k] for k in
                              ("num_states", "num_outcomes", "num_actions", "horizon"))

    a = _require_array("A", doc["A"], (n_o, n_s), nonnegative=True)
    raw_b = doc["B"]
    if not isinstance(raw_b, list) or len(raw_b) != n_u:
        raise ModelSpecError(f"B must be a list of {n_u} matrices")
    b = tuple(_require_array(f"B[{u}]", raw_b[u], (n_s, n_s), nonnegative=True)
              for u in range(n_u))
    c = _require_array("C", doc["C"], (n_o,), nonnegative=False)
    d = _require_array("D", doc["D"], (n_s,), nonnegative=True)

    raw_policies = doc["policies"]
    if not isinstance(raw_policies, list) or not raw_policies:
        raise ModelSpecError("policies must be a nonempty list of integer lists")
    policies: dict[Policy, int] = {}  # policy -> its index, in file order
    for i, seq in enumerate(raw_policies):
        if not isinstance(seq, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in seq
        ):
            raise ModelSpecError(f"policies[{i}] must be a list of integers")
        policy = Policy(tuple(seq))
        if policy in policies:
            raise ModelSpecError(f"policies[{i}] = {seq} repeats policies[{policies[policy]}]")
        policies[policy] = i

    risk_prior = None
    if doc.get("risk_state_prior") is not None:
        raw_risk = _require_array("risk_state_prior", doc["risk_state_prior"], (n_s,),
                                  nonnegative=True)
        try:
            risk_prior = Categorical(raw_risk)
        except ValueError as exc:
            raise ModelSpecError(f"risk_state_prior is not a valid distribution: {exc}") from exc

    try:
        state_prior = Categorical(d)
    except ValueError as exc:
        raise ModelSpecError(f"D is not a valid distribution: {exc}") from exc

    model = GenerativeModel(
        num_states=n_s,
        num_outcomes=n_o,
        num_actions=n_u,
        horizon=horizon,
        likelihood=a,
        transitions=b,
        preferences=c,
        state_prior=state_prior,
        policies=PolicySet(tuple(policies)),
        state_labels=_optional_labels(doc, "state_labels", n_s),
        outcome_labels=_optional_labels(doc, "outcome_labels", n_o),
        action_labels=_optional_labels(doc, "action_labels", n_u),
        risk_state_prior=risk_prior,
    )
    violations = validate(model)
    if violations:
        raise ModelSpecError("invalid model: " + "; ".join(violations))
    return model


def save_spec(model: GenerativeModel, path) -> None:
    """Write a model spec file that load_spec reads back exactly."""
    doc: dict = {
        "num_states": model.num_states,
        "num_outcomes": model.num_outcomes,
        "num_actions": model.num_actions,
        "horizon": model.horizon,
        "A": model.likelihood.tolist(),
        "B": [b.tolist() for b in model.transitions],
        "C": model.preferences.tolist(),
        "D": model.state_prior.probs.tolist(),
        "policies": [list(p.actions) for p in model.policies],
    }
    for key in ("state_labels", "outcome_labels", "action_labels"):
        if getattr(model, key) is not None:
            doc[key] = list(getattr(model, key))
    if model.risk_state_prior is not None:
        doc["risk_state_prior"] = model.risk_state_prior.probs.tolist()
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")
