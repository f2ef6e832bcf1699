"""Four-location T-maze: the generative model, its context schedule and scoring.

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

import numpy as np

from .model import GenerativeModel, ModelEnvironment, Policy, PolicySet
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


def build_tmaze_model(reward_prob: float = REWARD_PROB) -> GenerativeModel:
    """The maze; a ModelEnvironment of it is the ground truth the agent acts in."""
    if not 0.0 <= reward_prob <= 1.0:
        raise ValueError(f"reward_prob must lie in [0, 1], got {reward_prob!r}")
    num_states = 2 * NUM_LOCATIONS
    a = np.zeros((len(OUTCOME_LABELS), num_states))
    b = np.zeros((NUM_LOCATIONS, num_states, num_states))
    prior_counts = np.zeros(num_states)
    for ctx, cue_outcome in ((WHITE, 5), (BLACK, 6)):
        left_p = reward_prob if ctx == WHITE else 1.0 - reward_prob
        right_p = 1.0 - reward_prob if ctx == WHITE else reward_prob
        a[0, state_index(ctx, CENTER)] = 1.0
        a[1, state_index(ctx, LEFT)] = left_p          # left-cheese
        a[2, state_index(ctx, LEFT)] = 1.0 - left_p    # left-null
        a[3, state_index(ctx, RIGHT)] = right_p        # right-cheese
        a[4, state_index(ctx, RIGHT)] = 1.0 - right_p  # right-null
        a[cue_outcome, state_index(ctx, CUE)] = 1.0
        for action in range(NUM_LOCATIONS):
            for loc in range(NUM_LOCATIONS):
                target = loc if loc in (LEFT, RIGHT) else action  # arms absorb
                b[action, state_index(ctx, target), state_index(ctx, loc)] = 1.0
        prior_counts[state_index(ctx, CENTER)] = PRIOR_COUNT

    return GenerativeModel(
        num_states=num_states,
        num_outcomes=len(OUTCOME_LABELS),
        num_actions=NUM_LOCATIONS,
        horizon=3,
        likelihood=a,
        transitions=tuple(b),
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


TmazeEnv = ModelEnvironment  # the name benches/tracer.py wraps until the benchmark is retargeted
