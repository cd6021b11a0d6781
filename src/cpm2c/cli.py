"""Command line entry points: train, eval, gradcheck, dump-features,
make-synth.

Run settings merge in precedence order: command line flag, then
``--config`` file (flat ``key = value`` lines), then the ``CPM2C_SEED``
environment variable (seed only), then built-in defaults. Exit codes:
0 success, 1 usage or configuration problem, 2 data problem (including
an input or output path that cannot be read or written), 3 numerical
problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from . import data, runner
from .errors import (ConfigError, DataError, DomainError, GraphError,
                     NumericalError, ShapeError)
from .runner import RunConfig

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_RUN_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors exit 1 instead of argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _coerce(name: str, raw) -> object:
    """Turn a string setting into the type its RunConfig field declares."""
    if not isinstance(raw, str):
        return raw
    ftype = _RUN_FIELDS[name].type
    text = raw.strip()
    try:
        if ftype == "int":
            return int(text)
        if ftype == "float":
            return float(text)
    except ValueError:
        raise ConfigError(f"setting {name}: cannot parse {raw!r} "
                          f"as {ftype}") from None
    return text


def parse_config_file(path: str) -> dict:
    """Flat key = value settings, one per line; # starts a comment."""
    settings = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key not in _RUN_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        settings[key] = value
    return settings


def _env_seed():
    """The ``CPM2C_SEED`` environment variable as an int, None if unset."""
    env = os.environ.get("CPM2C_SEED")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"CPM2C_SEED must be an integer, "
                          f"got {env!r}") from None


def build_run_config(args) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    if "seed" not in values and getattr(args, "seed", None) is None:
        seed = _env_seed()
        if seed is not None:
            values["seed"] = seed
    for name in _RUN_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            values[name] = flag
    return RunConfig(**{k: _coerce(k, v) for k, v in values.items()})


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE",
                        help="flat key = value settings file")
    for name in _RUN_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name,
                            default=None, metavar="V",
                            help=f"override {name}")


def _cmd_train(args) -> int:
    cfg = build_run_config(args)
    manifest = data.load_manifest(args.manifest)
    result = runner.train(manifest, cfg, out_dir=args.out)
    print(f"trained {cfg.steps} steps in {result.wall_time:.1f}s")
    if result.checkpoint_path:
        print(f"checkpoint: {result.checkpoint_path}")
        print(f"metrics: {result.metrics_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    cfg = build_run_config(args)
    manifest = data.load_manifest(args.manifest)
    mdl = runner.build_model(manifest, cfg)
    if args.checkpoint:
        runner.restore_model(mdl, args.checkpoint)
    bank = manifest.prompt_bank("train") \
        if cfg.eval_split == "train" and args.losses else None
    res = runner.evaluate(manifest, mdl, cfg, compute_losses=args.losses,
                          bank=bank)
    print(f"episodes: {res.episodes}  queries: {res.total_queries}")
    print(f"accuracy: {res.accuracy:.4f} +/- {res.half_width:.4f}")
    if res.parts_mean:
        parts = "  ".join(f"{k}: {v:.4f}"
                          for k, v in sorted(res.parts_mean.items()))
        print(f"mean losses: {parts}")
    print(f"wall: {res.wall_time:.1f}s")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    cfg = build_run_config(args)
    manifest = data.load_manifest(args.manifest)
    report = runner.gradcheck(manifest, cfg,
                              coords_per_param=args.coords,
                              tol=args.tolerance,
                              episode_index=args.episode_index)
    print(report.summary())
    print(f"wall: {report.wall_time:.1f}s")
    return EXIT_OK if report.ok else EXIT_NUMERICAL


def _cmd_dump_features(args) -> int:
    manifest = data.load_manifest(args.manifest)
    index = runner.dump_features(manifest, args.out, split=args.split)
    print(f"wrote {index}")
    return EXIT_OK


def _cmd_make_synth(args) -> int:
    try:
        fractions = tuple(float(x) for x in args.fractions.split(","))
    except ValueError:
        raise ConfigError(f"fractions must be comma-separated numbers, "
                          f"got {args.fractions!r}") from None
    if len(fractions) != 3:
        raise ConfigError(f"fractions needs 3 entries, got {len(fractions)}")
    seed = args.seed if args.seed is not None else _env_seed() or 0
    cfg = data.SyntheticConfig(num_classes=args.classes, dim=args.dim,
                               frames=args.frames, scale=args.scale,
                               sigma=args.sigma, mode=args.mode,
                               seed=seed,
                               common_ratio=args.common_ratio)
    manifest = data.build_synthetic_manifest(cfg, args.videos_per_class,
                                             fractions)
    index = runner.dump_features(manifest, args.out)
    print(f"wrote {len(manifest.records)} videos to {index}")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cpm2c", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="episodic training over a manifest")
    p.add_argument("--manifest", required=True, metavar="INDEX")
    p.add_argument("--out", default=None, metavar="DIR",
                   help="write checkpoint.bin and metrics.jsonl here")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a model over evaluation episodes")
    p.add_argument("--manifest", required=True, metavar="INDEX")
    p.add_argument("--checkpoint", default=None, metavar="FILE")
    p.add_argument("--losses", action="store_true",
                   help="also report mean loss terms")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of every parameter")
    p.add_argument("--manifest", required=True, metavar="INDEX")
    p.add_argument("--coords", type=int, default=20,
                   help="coordinates probed per parameter tensor")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.add_argument("--episode-index", type=int, default=0)
    _add_run_flags(p)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("dump-features",
                       help="re-serialize a manifest's features and prompts")
    p.add_argument("--manifest", required=True, metavar="INDEX")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--split", default=None, choices=sorted(data.SPLITS))
    p.set_defaults(func=_cmd_dump_features)

    p = sub.add_parser("make-synth",
                       help="generate a synthetic manifest on disk")
    p.add_argument("--out", required=True, metavar="DIR")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.3)
    p.add_argument("--mode", default="static",
                   choices=("static", "permuted"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--common-ratio", type=float, default=8.0)
    p.add_argument("--videos-per-class", type=int, default=10)
    p.add_argument("--fractions", default="0.5,0.25,0.25",
                   help="train,val,test class fractions")
    p.set_defaults(func=_cmd_make_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ShapeError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericalError, GraphError, DomainError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
