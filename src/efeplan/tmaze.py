"""Four-location T-maze: ground-truth simulator and the matching model.

Frozen index tables, used in every output file:
  locations / actions: 0=center, 1=left, 2=right, 3=cue (lower);
    action u means "go to location u"
  states: context * 4 + location, context 0=white, 1=black
  outcomes: 0=center, 1=left-cheese, 2=left-null, 3=right-cheese,
    4=right-null, 5=cue-white, 6=cue-black

White context means the cheese is in the LEFT arm. The center emits the same
(ambiguous) outcome in both contexts; the cue location emits the context
deterministically; each arm yields its cheese outcome with the reward
probability when it holds the cheese, and with one minus it otherwise. Left
and right arms are absorbing; the context never changes within a trial.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import GenerativeModel, Policy, PolicySet
from .numerics import Categorical

NUM_LOCATIONS = 4
CENTER, LEFT, RIGHT, CUE = range(NUM_LOCATIONS)
WHITE, BLACK = 0, 1

LOCATION_LABELS = ("center", "left", "right", "cue")
CONTEXT_LABELS = ("white", "black")
OUTCOME_LABELS = (
    "center",
    "left-cheese",
    "left-null",
    "right-cheese",
    "right-null",
    "cue-white",
    "cue-black",
)
ACTION_LABELS = ("go-center", "go-left", "go-right", "go-cue")

# order matches the ten hand-picked plans: stay variants, direct arm visits,
# then the cue-first plans
TMAZE_POLICIES = (
    (0, 0), (0, 1), (0, 2), (0, 3),
    (1, 1), (2, 2),
    (3, 0), (3, 1), (3, 2), (3, 3),
)

OUTCOME_SCORES = (0, 6, -6, 6, -6, 0, 0)

PRIOR_COUNT = 128.0  # initial belief counts on the two center states
REWARD_PROB = 0.98   # default probability that the cheese arm yields cheese


def state_index(context: int, location: int) -> int:
    return context * NUM_LOCATIONS + location


def _likelihood(reward_prob: float) -> np.ndarray:
    a = np.zeros((len(OUTCOME_LABELS), 2 * NUM_LOCATIONS))
    p = reward_prob
    for ctx in (WHITE, BLACK):
        a[0, state_index(ctx, CENTER)] = 1.0
    cheese_left = {WHITE: True, BLACK: False}
    for ctx in (WHITE, BLACK):
        left_p = p if cheese_left[ctx] else 1.0 - p
        a[1, state_index(ctx, LEFT)] = left_p          # left-cheese
        a[2, state_index(ctx, LEFT)] = 1.0 - left_p    # left-null
        right_p = 1.0 - p if cheese_left[ctx] else p
        a[3, state_index(ctx, RIGHT)] = right_p        # right-cheese
        a[4, state_index(ctx, RIGHT)] = 1.0 - right_p  # right-null
    a[5, state_index(WHITE, CUE)] = 1.0
    a[6, state_index(BLACK, CUE)] = 1.0
    return a


def next_location(location: int, action: int) -> int:
    """Deterministic movement rule: arms absorb, elsewhere go where told."""
    return location if location in (LEFT, RIGHT) else action


def build_tmaze_model(reward_prob: float = REWARD_PROB) -> GenerativeModel:
    """The agent's model of the maze; matches the simulator exactly."""
    transitions = []
    for action in range(NUM_LOCATIONS):
        b = np.zeros((2 * NUM_LOCATIONS, 2 * NUM_LOCATIONS))
        for ctx in (WHITE, BLACK):
            for loc in range(NUM_LOCATIONS):
                b[state_index(ctx, next_location(loc, action)), state_index(ctx, loc)] = 1.0
        transitions.append(b)

    prior_counts = np.zeros(2 * NUM_LOCATIONS)
    prior_counts[state_index(WHITE, CENTER)] = PRIOR_COUNT
    prior_counts[state_index(BLACK, CENTER)] = PRIOR_COUNT

    return GenerativeModel(
        num_states=2 * NUM_LOCATIONS,
        num_outcomes=len(OUTCOME_LABELS),
        num_actions=NUM_LOCATIONS,
        horizon=3,
        likelihood=_likelihood(reward_prob),
        transitions=tuple(transitions),
        preferences=np.array(OUTCOME_SCORES, dtype=np.float64),
        state_prior=Categorical(prior_counts / prior_counts.sum()),
        policies=PolicySet(tuple(Policy(p) for p in TMAZE_POLICIES)),
        state_labels=tuple(
            f"{CONTEXT_LABELS[c]}/{LOCATION_LABELS[l]}"
            for c in (WHITE, BLACK) for l in range(NUM_LOCATIONS)
        ),
        outcome_labels=OUTCOME_LABELS,
        action_labels=ACTION_LABELS,
    )


def score_outcome(outcome: int) -> int:
    """+6 for a cheese outcome, -6 for a null arm outcome, 0 otherwise."""
    return OUTCOME_SCORES[outcome]


def default_context(trial: int) -> int:
    """Context of a 1-based trial: black on trials 10-12 and trial 30, white elsewhere."""
    return BLACK if 10 <= trial <= 12 or trial == 30 else WHITE


@dataclass
class TmazeEnv:
    """Ground-truth maze. Owns its generator; one uniform draw per outcome.
    Only reset sets a trial's context and location."""

    rng: np.random.Generator
    reward_prob: float = REWARD_PROB
    true_context: int = field(default=WHITE, init=False)
    current_location: int = field(default=CENTER, init=False)
    _cumulative_outcomes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 <= self.reward_prob <= 1.0:
            raise ValueError(f"reward_prob must lie in [0, 1], got {self.reward_prob}")
        # column s: cumulative outcome probabilities in state s
        self._cumulative_outcomes = np.cumsum(_likelihood(self.reward_prob), axis=0)

    def reset(self, context: int) -> None:
        if context not in (WHITE, BLACK):
            raise ValueError(f"context must be {WHITE} or {BLACK}, got {context}")
        self.true_context = context
        self.current_location = CENTER

    def observe(self) -> int:
        """Sample an outcome at the current location without moving."""
        state = state_index(self.true_context, self.current_location)
        draw = self.rng.random()
        return int(np.searchsorted(self._cumulative_outcomes[:, state], draw, side="right"))

    def step(self, action: int) -> int:
        """Move per the deterministic rule, then sample the outcome there."""
        if not 0 <= action < NUM_LOCATIONS:
            raise ValueError(f"action {action} outside 0..{NUM_LOCATIONS - 1}")
        self.current_location = next_location(self.current_location, action)
        return self.observe()
