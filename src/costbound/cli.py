"""Command-line interface: train, evaluate, gradcheck, oracle, normalize."""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from .checkpoint import CheckpointError
from .config import load_config
from .trainer import Trainer, load_metrics, normalized_metrics

GRADCHECK_TOLERANCE = 1e-4


def _cmd_train(args) -> int:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = load_config(args.config, overrides=overrides)
    out_dir = Path(args.out) if args.out else Path("runs") / f"{Path(args.config).stem}_seed{cfg.seed}"
    if args.resume:
        trainer = Trainer.restore(args.resume, out_dir)
    else:
        trainer = Trainer(cfg, out_dir)
    final = trainer.run()
    print(f"metrics: {trainer.metrics_path}")
    print(f"checkpoint: {final}")
    return 0


def _cmd_evaluate(args) -> int:
    with tempfile.TemporaryDirectory() as scratch:
        trainer = Trainer.restore(args.checkpoint, scratch)
        reward_mean, cost_mean = trainer.evaluate(episodes=args.episodes)
    print(f"reward_mean={reward_mean!r}")
    print(f"cost_mean={cost_mean!r}")
    return 0


def _cmd_gradcheck(args) -> int:
    from .verify import run_gradient_suite

    errors = run_gradient_suite(seed=args.seed)
    elapsed = errors.pop("elapsed_seconds")
    ok = True
    for name, err in errors.items():
        passed = err <= GRADCHECK_TOLERANCE
        ok = ok and passed
        print(f"{name:>16}: rel err {err:.3e}  [{'PASS' if passed else 'FAIL'}]")
    print(f"elapsed: {elapsed:.2f}s (tolerance {GRADCHECK_TOLERANCE:g})")
    return 0 if ok else 1


def _cmd_oracle(args) -> int:
    from .verify import run_tabular_suite

    results = run_tabular_suite(seed=args.seed)
    ok = True
    for name, (value, reference, passed) in results.items():
        ok = ok and passed
        print(f"{name:>28}: {value:.6f} vs {reference:.6f}  [{'PASS' if passed else 'FAIL'}]")
    return 0 if ok else 1


def _cmd_normalize(args) -> int:
    run_rows = load_metrics(args.run)
    ref_rows = load_metrics(args.reference)
    result = normalized_metrics(run_rows, ref_rows, window=args.window)
    print(json.dumps(result, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="costbound")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a config file")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.set_defaults(func=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint's deterministic policy")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=10)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of every loss")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_oracle = sub.add_parser("oracle", help="tabular value-iteration cross-checks")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_norm = sub.add_parser("normalize", help="normalize a run against a reference run")
    p_norm.add_argument("--run", required=True)
    p_norm.add_argument("--reference", required=True)
    p_norm.add_argument("--window", type=int, default=5)
    p_norm.set_defaults(func=_cmd_normalize)
    return parser


def main(argv=None) -> int:
    """Run one command. A bad config, checkpoint, metrics file or option
    value prints one ``costbound: error:`` line and returns 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, ValueError, ZeroDivisionError) as err:
        print(f"costbound: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
