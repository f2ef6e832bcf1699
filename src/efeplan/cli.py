"""Command-line interface.

Subcommands: run (full experiment), trial (one trial, verbose), decompose
(score-component table for a model and belief), validate (model spec check).
Exit codes: 0 success, 1 usage error, 2 model/validation error, 3 I/O error.
"""
from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .harness import (
    ExperimentConfig,
    _plans,
    _scheduled_trials,
    emit_plot_data,
    run_experiment,
    write_records,
)
from .model import ModelSpecError, load_spec
from .numerics import normalize
from .planning import ConfigurationError, ObjectiveKind, PlanContext, score_policies
from .tmaze import ACTION_LABELS, CONTEXT_LABELS, OUTCOME_LABELS, build_tmaze_model

AGENT_NAMES = tuple(kind.value for kind in ObjectiveKind)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); the contract is 1
        raise UsageError(message)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--agent", choices=AGENT_NAMES, default=ExperimentConfig.agent.value,
                   help="planning objective (default: %(default)s)")
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed,
                   help="master seed (default: %(default)s)")
    p.add_argument("--precision", type=float, default=ExperimentConfig.precision,
                   help="softmax inverse temperature over policy scores (default: %(default)s)")
    p.add_argument("--tie-tolerance", type=float, default=ExperimentConfig.tie_tolerance,
                   help="action probabilities within this of the maximum tie "
                        "(default: %(default)s)")
    p.add_argument("--reward-prob", type=float, default=ExperimentConfig.reward_prob,
                   help="arm reward probability for the built-in maze (default: %(default)s)")
    p.add_argument("--model", help="model spec file (default: built-in maze)")


@functools.cache  # once per process: parsing leaves the parser unchanged
def _parser() -> _Parser:
    parser = _Parser(prog="efeplan", description="Expected-free-energy planning in a T-maze")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full multi-trial experiment")
    _add_common_flags(run_p)
    run_p.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                       help="number of trials (default: %(default)s)")
    run_p.add_argument("--out", help="directory for result tables")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="table format (default: csv)")

    trial_p = sub.add_parser("trial", help="run one trial and print the planning detail")
    _add_common_flags(trial_p)
    trial_p.add_argument("--trial", type=int, default=1,
                         help="scheduled trial index to run (default: 1)")

    dec_p = sub.add_parser("decompose", help="print per-policy score components")
    dec_p.add_argument("--model", help="model spec file (default: built-in maze)")
    dec_p.add_argument("--agent", choices=AGENT_NAMES, default=ExperimentConfig.agent.value)
    dec_p.add_argument("--beliefs",
                       help="comma-separated state weights (default: the model's state prior)")
    dec_p.add_argument("--executed", default="",
                       help="comma-separated executed actions; the next epoch is planned")

    val_p = sub.add_parser("validate", help="check a model spec file")
    val_p.add_argument("--model", required=True, help="model spec file")
    return parser


def parse_cli(argv) -> argparse.Namespace:
    return _parser().parse_args(argv)


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    try:
        return ExperimentConfig(
            agent=args.agent,
            trials=getattr(args, "trials", ExperimentConfig.trials),
            seed=args.seed,
            precision=args.precision,
            tie_tolerance=args.tie_tolerance,
            reward_prob=args.reward_prob,
            model_path=args.model,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_run(args) -> int:
    config = config_from_args(args)
    record = run_experiment(config)
    print(f"agent={config.agent.value} trials={config.trials} seed={config.seed} "
          f"final-score={record.final_score} duration={record.duration_seconds:.3f}s")
    if args.out is not None:
        written = write_records(record, args.out, args.format)
        written += emit_plot_data(record, args.out)
        for path in written:
            print(f"wrote {path}")
    return 0


def _column(x: float, width: int) -> str:
    """x to 4 decimals in `width` characters; in exponent form where those overflow."""
    text = f"{x:{width}.4f}"
    return text if len(text) <= width else f"{x:{width}.{width - 8}e}"  # "-d.ddde+308"


def _breakdown_lines(model, breakdowns) -> list[str]:
    lines = ["policy            G        risk   ambiguity   intrinsic   extrinsic"]
    for policy, b in zip(model.policies, breakdowns):
        name = "(" + ",".join(str(a) for a in policy.actions) + ")"
        if b is None:
            lines.append(f"{name:<12} {'-':>10}")
            continue
        lines.append(
            f"{name:<12} {_column(b.total, 10)} {_column(b.risk_states, 10)} "
            f"{_column(b.ambiguity, 11)} {_column(b.intrinsic, 11)} {_column(b.extrinsic, 11)}"
        )
    return lines


def _cmd_trial(args) -> int:
    config = config_from_args(args)
    if args.trial < 1:
        raise UsageError(f"--trial must be >= 1, got {args.trial}")
    model, memo = _plans(config)  # the memo run_experiment plans through
    [record] = _scheduled_trials(model, memo, config, [args.trial])

    print(f"trial {record.trial}: context={CONTEXT_LABELS[record.true_context]} "
          f"agent={config.agent.value}")
    for e in record.epochs:
        print(f"epoch {e.epoch}: observed {OUTCOME_LABELS[e.observation]}")
        if e.action is not None:
            print("\n".join(_breakdown_lines(model, e.breakdowns)))
            marg = " ".join(
                f"{ACTION_LABELS[a]}={p:.4f}" for a, p in enumerate(e.action_marginal)
            )
            print(f"  action marginal: {marg}")
            print(f"  selected: {ACTION_LABELS[e.action]}")
    print(f"score: {record.score_delta}")
    return 0


def _cmd_decompose(args) -> int:
    model = build_tmaze_model() if args.model is None else load_spec(args.model)
    if model.horizon < 2:
        raise ModelSpecError(
            f"decompose needs a model with a planning epoch; horizon {model.horizon} has none"
        )
    try:
        executed = tuple(int(x) for x in args.executed.split(",")) if args.executed else ()
    except ValueError as exc:
        raise UsageError(f"--executed: {exc}") from exc
    if len(executed) >= model.horizon - 1:
        raise UsageError(f"--executed leaves no planning epoch of horizon {model.horizon}")
    ctx = PlanContext(current_epoch=len(executed) + 1, executed_actions=executed)
    if args.beliefs is None:
        q_now = model.state_prior
    else:
        try:
            q_now = normalize(np.array([float(x) for x in args.beliefs.split(",")]))
        except ValueError as exc:
            raise UsageError(f"--beliefs: {exc}") from exc
        if len(q_now) != model.num_states:
            raise UsageError(f"--beliefs needs {model.num_states} entries, got {len(q_now)}")
    viable = [model.policies[i] for i in ctx.viable(model.policies)]
    if not viable:
        raise UsageError(f"no policy starts with the executed actions {executed}")
    scores = dict(zip(viable, score_policies(model, q_now, viable, ctx, args.agent)))
    sums = [scores[p].summed if p in scores else None for p in model.policies]
    print("\n".join(_breakdown_lines(model, sums)))
    return 0


def _cmd_validate(args) -> int:
    model = load_spec(args.model)  # raises on schema or invariant problems
    print(f"{args.model}: valid "
          f"({model.num_states} states, {model.num_outcomes} outcomes, "
          f"{model.num_actions} actions, horizon {model.horizon}, "
          f"{len(model.policies)} policies)")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parse_cli(argv)
        command = {"run": _cmd_run, "trial": _cmd_trial, "decompose": _cmd_decompose,
                   "validate": _cmd_validate}[args.command]
        return command(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ModelSpecError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
