"""Command-line front end.

Subcommands: train, eval, gradcheck, profile, arch-check. Exit codes:
0 success, 1 usage or configuration problem, 2 data problem, 3 numeric
failure (NaN loss or a gradient-check tolerance breach). The STOP_SEED
environment variable overrides the config file's seed; an explicit
--seed flag overrides both.
"""
from __future__ import annotations

import argparse
import os
import sys
import tracemalloc
from dataclasses import fields

from .ablation import run_ablation
from .checks import run_all
from .config import TrainConfig, read_json
from .errors import ConfigError, DataError, NumericError, ParseError, StopSnnError
from .learning import COMPLEXITY_RULES, LossKind, SynergyMode, complexity_estimate, learn_sample
from .topology import parse_architecture

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# the TrainConfig fields stopsnn train overrides by flag (--batch-size for batch_size)
TRAIN_FLAGS = (
    "arch", "mode", "loss", "epochs", "batch_size", "time_steps", "seed",
    "eta_w", "eta_theta", "eta_alpha", "weight_decay", "momentum",
    "checkpoint_path", "metrics_path", "resume",
)


def _int_list(text: str) -> tuple[int, ...]:
    """argparse type for a comma-separated list of integers, e.g. 1,28,28."""
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stopsnn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="run a training job from a config file")
    train_p.add_argument("--config", required=True, help="path to a JSON config")
    annotations = {f.name: f.type for f in fields(TrainConfig)}
    for name in TRAIN_FLAGS:
        flag = "--" + name.replace("_", "-")
        if annotations[name] is bool:
            train_p.add_argument(flag, dest=name, action="store_const", const=True, default=None)
        else:
            train_p.add_argument(flag, dest=name, type=annotations[name])
    # argparse converts a string default like a command-line value, so STOP_SEED takes --seed's type
    train_p.set_defaults(seed=os.environ.get("STOP_SEED"))

    eval_p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    eval_p.add_argument("--checkpoint", required=True)
    eval_p.add_argument("--data", help="JSON file with a dataset description; defaults to the checkpoint's")

    grad_p = sub.add_parser("gradcheck", help="run the oracle comparison battery")
    grad_p.add_argument("--trials", type=int, default=None, help="trials per suite, >= 0 (0 for an empty report)")
    grad_p.add_argument("--seed", type=int, default=0)

    prof_p = sub.add_parser("profile", help="cost model plus measured retained buffers")
    prof_p.add_argument("--layers", type=int, required=True)
    prof_p.add_argument("--width", type=int, required=True)
    prof_p.add_argument("--timesteps", type=int, required=True)

    arch_p = sub.add_parser("arch-check", help="parse an architecture string and print its layers")
    arch_p.add_argument("--arch", required=True)
    arch_p.add_argument("--input-shape", type=_int_list, default="1,28,28",
                        help="comma-separated, e.g. 3,32,32 or 784")
    arch_p.add_argument("--classes", type=int, default=10)

    abl_p = sub.add_parser("ablation", help="compare synergy modes and the unrolled baseline")
    abl_p.add_argument("--config", required=True)
    abl_p.add_argument("--seeds", type=_int_list, default="0,1,2")
    return parser


def _cmd_train(args) -> int:
    config = TrainConfig.load(args.config, {name: getattr(args, name) for name in TRAIN_FLAGS})
    from .trainer import train

    result = train(config, log=print)
    if result.metrics:
        last = result.metrics[-1]
        print(
            f"done: {len(result.metrics)} epochs, final train acc {last['train_acc']:.3f}, "
            f"test acc {last['test_acc']:.3f}"
        )
    else:
        print("done: no epochs requested, parameters untouched")
    return EXIT_OK


def _cmd_eval(args) -> int:
    from .trainer import build_network, checkpoint_load, evaluate, load_dataset

    params, _, epoch, config_dict = checkpoint_load(args.checkpoint)
    config = TrainConfig.from_dict(config_dict)
    if args.data:
        config = config.with_overrides(dataset=read_json(args.data, "dataset"))
    spec = build_network(config)
    _, test_set = load_dataset(config)
    accuracy, mean_loss = evaluate(spec, params, test_set, LossKind(config.loss))
    print(f"checkpoint epoch {epoch}: accuracy {accuracy:.4f}, mean loss {mean_loss:.4f} on {len(test_set)} samples")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    results = run_all(trials=args.trials, seed=args.seed)
    if not results:
        print("no trials requested; empty report")
        return EXIT_OK
    for result in results:
        print(result.line())
        if not result.ok:
            print(f"    worst case: {result.worst_case}")
    if not all(r.ok for r in results):
        raise NumericError("gradient check tolerance breach")
    return EXIT_OK


def _learn_peak_bytes(spec, params, frames, target) -> int:
    """Traced peak of the bytes one WTL learn_sample call allocates above what existed before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        learn_sample(spec, params, frames, target, mode=SynergyMode.WTL)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _cmd_profile(args) -> int:
    l, n, t = args.layers, args.width, args.timesteps
    costs = {rule: complexity_estimate(l, n, t, rule) for rule in COMPLEXITY_RULES}
    print(f"analytic cost model for depth {l}, width {n}, window {t}:")
    print(f"  {'rule':<10} {'memory units':>14} {'multiplies':>16}")
    for rule, (mem, mul) in costs.items():
        print(f"  {rule:<10} {mem:>14} {mul:>16}")
    print(f"  memory ratio STBP / STOP-W = {costs['STBP'][0] / costs['STOP-W'][0]:.2f} (= 2T/3)")

    import numpy as np

    from .oracle import record_tape
    from .topology import init_params

    probe_width = min(n, 16)
    arch = "-".join([str(probe_width)] * max(l - 1, 1) + [str(2)])
    spec = parse_architecture(arch, (probe_width,), 2, time_steps=t)
    params = init_params(spec, seed=0)
    rng = np.random.default_rng(0)
    frames = [rng.uniform(size=(probe_width,)) for _ in range(t)]
    target = np.zeros(2)
    target[0] = 1.0
    audits = {}
    for mode in (SynergyMode.W, SynergyMode.WTL):
        audit: dict = {}
        learn_sample(spec, params, frames, target, mode=mode, audit=audit)
        audits[mode.value] = audit["retained_time_indexed_tensors"]
    peaks = {len(window): _learn_peak_bytes(spec, params, window, target) for window in (frames, frames * 4)}
    tape = record_tape(spec, params, frames)
    print(f"measured on a {arch} probe network:")
    print(f"  streaming retained step-carried tensors: W={audits['W']}, WTL={audits['WTL']} (constant in T)")
    print("  WTL learn_sample tracemalloc peak: " + ", ".join(f"T={k}: {v} bytes" for k, v in peaks.items()))
    print(f"  unrolled tape length: {tape.length} (equals T); recorded tensors: {tape.retained_tensor_count()}")
    return EXIT_OK


def _cmd_arch_check(args) -> int:
    spec = parse_architecture(args.arch, args.input_shape, args.classes)
    print(f"{args.arch!r} on input {args.input_shape} -> {args.classes} classes:")
    for i, layer in enumerate(spec.layers):
        detail = ""
        if layer.kernel:
            detail = f" kernel {layer.kernel} stride {layer.stride} pad {layer.padding}"
        if layer.window:
            detail = f" window {layer.window}"
        print(f"  {i}: {layer.kind.value:<8} {layer.in_shape} -> {layer.out_shape}{detail}")
    return EXIT_OK


def _cmd_ablation(args) -> int:
    config = TrainConfig.load(args.config)
    outcome = run_ablation(config, seeds=args.seeds)
    print(outcome.summary())
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradcheck": _cmd_gradcheck,
    "profile": _cmd_profile,
    "arch-check": _cmd_arch_check,
    "ablation": _cmd_ablation,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StopSnnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
