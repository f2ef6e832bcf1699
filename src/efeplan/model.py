"""Discrete POMDP generative models: definition, validation, file round-trip.

A model is the tuple (likelihood, transitions, preferences, state_prior,
policies, horizon). Likelihood columns are outcome distributions per state;
each transition matrix column is a next-state distribution per current state.
Preferences are raw utilities (unnormalized log-preferences over outcomes);
normalization happens at use-site in planning so the configured values are
preserved verbatim.
"""
from __future__ import annotations

import bisect
import functools
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .numerics import NORM_TOL, Categorical, _column_entropies, clamped_log, log_sum_exp


class ModelSpecError(ValueError):
    """Raised when a model spec file is missing, malformed, or invalid."""


@dataclass(frozen=True)
class Policy:
    """A fixed sequence of action indices, one per transition of the horizon."""

    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", _action_indices(self.actions))


def _action_indices(actions) -> tuple[int, ...]:
    """actions as ints; a value with no __index__, such as 1.7, is refused, not truncated."""
    try:
        return tuple(map(operator.index, actions))
    except TypeError:
        raise ValueError(f"actions must be integers, got {actions!r}") from None


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

    @functools.cached_property
    def actions(self) -> np.ndarray:
        """The actions as a read-only (policy x step) int array, in policy order.

        Policies of unequal length, which validate reports, have no such array."""
        lengths = {len(p.actions) for p in self.policies}
        if len(lengths) != 1:
            raise ValueError(f"policies differ in length: {sorted(lengths)}")
        actions = np.array([p.actions for p in self.policies], dtype=np.intp)
        actions.flags.writeable = False
        return actions

    def __len__(self) -> int:
        return len(self.policies)

    def __iter__(self):
        return iter(self.policies)

    def __getitem__(self, i: int) -> Policy:
        return self.policies[i]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _Built:
    """An array that load_spec built for one model alone: GenerativeModel keeps it
    rather than copying it, as it copies every array a caller passes in."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


def _readonly(a) -> np.ndarray:
    if isinstance(a, _Built):
        return _frozen(a.array)
    return _frozen(np.asarray(a, dtype=np.float64).copy())


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

    # The planner's per-model constants, computed on first use; the arrays they
    # derive from are read-only, so they never go stale.
    @functools.cached_property
    def column_entropies(self) -> np.ndarray:
        """Outcome entropy of each likelihood column, nats."""
        return _frozen(_column_entropies(self.likelihood))

    @functools.cached_property
    def log_preferences(self) -> np.ndarray:
        """The preferences normalised into log-probabilities over outcomes."""
        return _frozen(self.preferences - log_sum_exp(self.preferences))

    @functools.cached_property
    def log_risk_prior(self) -> np.ndarray | None:
        """clamped_log of risk_state_prior, None without one."""
        prior = self.risk_state_prior
        return None if prior is None else _frozen(clamped_log(prior.probs))

    @functools.cached_property
    def plan_frames(self) -> dict:
        """planning._plan_frame's frame of each executed-action prefix, filled as planned."""
        return {}


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
    negative = (matrix < 0.0).any(axis=0)
    # each column summed contiguously rounds as matrix[:, col].sum() does, which a
    # sum down axis 0 does not
    with np.errstate(over="ignore"):  # an overflowing sum is the inf reported below
        totals = np.ascontiguousarray(matrix.T).sum(axis=1)
    off = np.abs(totals - 1.0) > NORM_TOL
    for col in np.flatnonzero(negative | off).tolist():
        if negative[col]:
            violations.append(f"{name} column {col} has a negative entry")
        if off[col]:
            violations.append(f"{name} column {col} sums to {float(totals[col])!r}, expected 1")


_LONG = 10**20  # from here on an integer is printed by its ends and its digit count


def _int_text(n: int) -> str:
    """n in decimal, or from _LONG on its first and last six digits and its digit
    count, so that a message about it stays one short line."""
    if abs(n) < _LONG:
        return str(n)
    try:
        text = str(n)
    except ValueError:  # more digits than str() converts
        return f"an integer of {n.bit_length()} bits"
    return f"{text[:6]}...{text[-6:]} ({len(text.lstrip('-'))} digits)"


def validate(model: GenerativeModel) -> list[str]:
    """Return every invariant violation with its location; empty means valid."""
    v: list[str] = []
    if model.num_states < 1 or model.num_outcomes < 1 or model.num_actions < 1:
        v.append("num_states, num_outcomes, num_actions must all be positive")
        return v
    if model.horizon < 1:
        v.append(f"horizon must be positive, got {_int_text(model.horizon)}")
    future = _int_text(model.horizon - 1)  # the future epochs, and so each policy's length

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
            log_preferences = model.log_preferences
        if _check_finite("normalised log-preferences", log_preferences, v):
            # G adds up to horizon - 1 expected utilities, each down to the lowest
            # entry; NORM_TOL covers rounding in the predicted outcome distributions
            worst = int(log_preferences.argmin())
            lowest = float(log_preferences[worst])
            try:
                bound = (model.horizon - 1) * lowest * (1.0 + NORM_TOL)
            except OverflowError:  # a horizon past the largest float
                bound = math.inf
            if not math.isfinite(bound):
                v.append(f"normalised log-preferences entry [{worst}] is {lowest!r}, which "
                         f"overflows G summed over {future} future epochs")
    if len(model.state_prior) != model.num_states:
        v.append(f"state prior has length {len(model.state_prior)}, expected {model.num_states}")
    if model.risk_state_prior is not None and len(model.risk_state_prior) != model.num_states:
        v.append(
            f"risk state prior has length {len(model.risk_state_prior)}, "
            f"expected {model.num_states}"
        )

    each = abs(model.horizon) < _LONG  # else no policy is that long: one line says so for all
    if not each:
        lengths = sorted({len(p.actions) for p in model.policies})
        v.append(f"policies have lengths {lengths}, expected {future}")
    for i, policy in enumerate(model.policies):
        if each and len(policy.actions) != model.horizon - 1:
            v.append(f"policy {i} has length {len(policy.actions)}, expected {future}")
        for j, a in enumerate(policy.actions):
            if not 0 <= a < model.num_actions:
                v.append(f"policy {i} action {j} is {a}, outside 0..{model.num_actions - 1}")
    return v


def _cumulative_columns(matrix: np.ndarray) -> list[list[float]]:
    """Each column's cumulative sums, inf from its last entry with mass on."""
    rows = np.arange(len(matrix))[:, None]
    last = len(matrix) - 1 - (matrix[::-1] > 0.0).argmax(axis=0)
    return np.where(rows < last, np.cumsum(matrix, axis=0), np.inf).T.tolist()


@dataclass(eq=False)
class ModelEnvironment:
    """The generative process of a validated model. step(action) moves the state by
    the action's transitions and then observes; observe samples an outcome in the
    current state; only reset sets the state.

    Stream convention: an outcome takes one uniform draw from rng, a move one
    more unless its transition column is one-hot. A draw is the searchsorted
    (side="right") index in the column's cumulative sums, inf from its last
    entry with mass on, so no draw passes that entry where the sums end below 1.
    The sums are Python lists and bisect_right finds that index.
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

    def _draw(self, cumulative: list[float]) -> int:
        return bisect.bisect_right(cumulative, self.rng.random())

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

_DIMENSIONS = ("num_states", "num_outcomes", "num_actions", "horizon")
_REQUIRED_KEYS = (*_DIMENSIONS, "A", "B", "C", "D", "policies")


_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer that float() rounds past the largest float


def _plain(value):
    """value with each float64 array or number in it the value json.loads returns."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return [_plain(x) for x in value] if isinstance(value, list) else value


def _require_array(name: str, raw, shape: tuple[int, ...], nonnegative: bool) -> np.ndarray:
    """Check a JSON vector (shape (n,)) or matrix (shape (rows, cols)) of numbers
    and convert it. JSON numbers arrive as exact ints and floats, never bools. An
    array _SpecReader made of the shape asked for holds floats alone and is taken
    as it is, not copied; any other value is checked as json.loads gives it."""
    vector = len(shape) == 1

    def where(i: int, j: int) -> str:
        return f"{name}[{j}]" if vector else f"{name}[{i}][{j}]"

    def first(bad) -> tuple[int, int]:
        return next((i, j) for i, row in enumerate(rows) for j, x in enumerate(row) if bad(x))

    if isinstance(raw, np.ndarray) and raw.shape == shape:
        out, rows = raw, np.atleast_2d(raw)
    else:
        raw = _plain(raw)
        if not isinstance(raw, list) or len(raw) != shape[0]:
            raise ModelSpecError(f"{name} must be a list of {_int_text(shape[0])} "
                                 f"{'numbers' if vector else 'rows'}")
        rows = [raw] if vector else raw
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != shape[-1]:
                raise ModelSpecError(f"{name} row {i} must be a list of "
                                     f"{_int_text(shape[-1])} numbers")
        if not {type(x) for row in rows for x in row} <= {int, float}:
            i, j = first(lambda x: type(x) not in (int, float))
            raise ModelSpecError(f"{where(i, j)} is not a number: {rows[i][j]!r}")
        try:
            out = np.array(raw, dtype=np.float64)
        except OverflowError:
            i, j = first(lambda x: type(x) is int and abs(x) >= _FLOAT_OVERFLOW)
            raise ModelSpecError(f"{where(i, j)} is an integer too large for a float") from None
    if nonnegative and (out < 0.0).any():
        i, j = np.argwhere(np.atleast_2d(out) < 0.0)[0]
        raise ModelSpecError(f"{where(i, j)} = {_plain(rows[i][j])!r}: negative probability")
    return out


def _dimension(key: str, value) -> int:
    """value if it is a positive int, not a bool; the rule both load_spec and
    save_spec apply."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        shown = _int_text(value) if type(value) is int else repr(value)
        raise ModelSpecError(f"{key} must be a positive integer, got {shown}")
    return value


def _labels(key: str, raw, length: int) -> tuple[str, ...]:
    """raw as a tuple if it is a list or tuple of length strings; the rule both
    load_spec and save_spec apply."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != length
            or not all(isinstance(s, str) for s in raw)):
        raise ModelSpecError(f"{key} must be a list of {length} strings")
    return tuple(raw)


def _optional_labels(doc: dict, key: str, length: int) -> tuple[str, ...] | None:
    raw = doc.get(key)
    return None if raw is None else _labels(key, raw, length)


_WINDOW = 2**16  # characters of the spec file that _SpecReader reads at a time
_space = json.decoder.WHITESPACE.match
_scan = json.JSONDecoder().scan_once  # (value, end) of the JSON value at an offset


def _stacked(rows: list):
    """rows as one C-contiguous float64 matrix if all are float64 vectors of one
    length, which _require_array then takes whole; else rows."""
    if (all(type(row) is np.ndarray and row.ndim == 1 for row in rows)
            and len(set(map(len, rows))) == 1):
        return np.stack(rows)
    return rows


class _SpecReader:
    """Reads a spec's top-level object from a window of its file, walking down each
    array whose first entry is an array; json's scanner decodes every other value
    whole, and a nonempty array of floats alone becomes a float64 array. Rows that
    are such arrays of one length become one matrix (_stacked). So a load holds
    the model's arrays and a window, not the whole text and its parse tree."""

    def __init__(self, file):
        self.file, self.text, self.at = file, "", 0
        self.repeated = None  # the first top-level key that appears twice

    def _more(self) -> bool:
        """Append the next window to the text not yet read; False at the file's end."""
        chunk = self.file.read(_WINDOW)
        if chunk:
            self.text, self.at = self.text[self.at:] + chunk, 0
        return bool(chunk)

    def _peek(self, past: int = 0) -> str:
        """The first character that is not whitespace from self.at + past on, "" at
        the file's end; with past 0, self.at moves to it."""
        while (end := _space(self.text, self.at + past).end()) == len(self.text):
            if not self._more():
                break
        if not past:
            self.at = end
        return self.text[end:end + 1]

    def _take(self, marks: str) -> str:
        mark = self._peek()
        if not mark or mark not in marks:
            raise ValueError(f"expected one of {marks!r}")
        self.at += 1
        return mark

    def _decode(self):
        """The value at self.at, decoded again with more text until the mark after it
        is in the window: a number cut at the window's end decodes as a shorter one."""
        while True:
            try:
                value, end = _scan(self.text, self.at)
            except (ValueError, StopIteration):
                if not self._more():
                    raise
                continue
            after = _space(self.text, end).end()
            if self.text.startswith((",", ":", "]", "}"), after) or not self._more():
                self.at = end
                return value

    def _value(self):
        if self._peek() == "[":
            if self._peek(1) == "[":
                self.at += 1
                items = [self._value()]
                while self._take(",]") == ",":
                    items.append(self._value())
                return _stacked(items)
            while self.text.find("]", self.at) < 0 and self._more():
                pass  # so that most arrays decode at the first try
        value = self._decode()
        if type(value) is list and value and set(map(type, value)) == {float}:
            return np.array(value, dtype=np.float64)
        return value

    def document(self) -> dict:
        self._take("{")
        doc: dict = {}
        while self._peek() == '"':
            key = self._decode()
            self._take(":")
            if key in doc and self.repeated is None:
                self.repeated = key
            doc[key] = self._value()
            if self._take(",}") == "}":
                if self._peek():
                    break
                return doc
        raise ValueError("expected a key, or nothing after the object")


def _parse(path: Path):
    """json.loads of the whole text, each failure raised as a ModelSpecError."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ModelSpecError(f"{path} is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also an integer of too many digits
        raise ModelSpecError(f"{path} is not valid JSON: {exc}") from exc


def _read_spec(path: Path):
    """The document json.loads returns, each array of floats alone a float64 array,
    with a repeated top-level key refused. A document the reader fails on, json.loads
    reads whole, so that the failure keeps its message."""
    try:
        with open(path, encoding="utf-8") as file:
            reader = _SpecReader(file)
            doc = reader.document()
    except (ValueError, StopIteration, RecursionError):  # a UnicodeDecodeError is a ValueError
        return _parse(path)
    if reader.repeated is not None:
        raise ModelSpecError(f"spec key {json.dumps(reader.repeated)} appears twice")
    return doc


def load_spec(path) -> GenerativeModel:
    """Read a model spec file, checking schema and invariants."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model spec file not found: {path}")
    doc = _read_spec(path)
    if not isinstance(doc, dict):
        raise ModelSpecError("model spec must be a key-value tree")

    for key in _REQUIRED_KEYS:
        if key not in doc:
            raise ModelSpecError(f"missing required key: {key}")
    n_s, n_o, n_u, horizon = (_dimension(key, _plain(doc[key])) for key in _DIMENSIONS)

    a = _require_array("A", doc["A"], (n_o, n_s), nonnegative=True)
    raw_b = doc["B"]
    if not isinstance(raw_b, (list, np.ndarray)) or len(raw_b) != n_u:
        raise ModelSpecError(f"B must be a list of {n_u} matrices")
    b = tuple(_require_array(f"B[{u}]", raw_b[u], (n_s, n_s), nonnegative=True)
              for u in range(n_u))
    c = _require_array("C", doc["C"], (n_o,), nonnegative=False)
    d = _require_array("D", doc["D"], (n_s,), nonnegative=True)

    raw_policies = doc["policies"]
    if not isinstance(raw_policies, (list, np.ndarray)) or not len(raw_policies):
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
        likelihood=_Built(a),
        transitions=tuple(map(_Built, b)),
        preferences=_Built(c),
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
    """Write a model spec file that load_spec reads back exactly.

    Dimensions and labels that load_spec would refuse raise ModelSpecError
    before the file is opened, so every value left is one json encodes. The
    file holds the bytes json.dump(doc, f, indent=2) writes and a newline. The
    encoder meets each matrix as an array, which default hands it one row at a
    time: a save holds one row as Python values, not every matrix."""
    doc: dict = {
        **{key: _dimension(key, getattr(model, key)) for key in _DIMENSIONS},
        "A": model.likelihood,
        "B": model.transitions,
        "C": model.preferences,
        "D": model.state_prior.probs,
        "policies": [list(p.actions) for p in model.policies],
    }
    for key, length in (("state_labels", model.num_states),
                        ("outcome_labels", model.num_outcomes),
                        ("action_labels", model.num_actions)):
        if getattr(model, key) is not None:
            doc[key] = list(_labels(key, getattr(model, key), length))
    if model.risk_state_prior is not None:
        doc["risk_state_prior"] = model.risk_state_prior.probs
    with open(path, "w") as f:
        json.dump(doc, f, indent=2,
                  default=lambda a: list(a) if a.ndim > 1 else a.tolist())
        f.write("\n")
