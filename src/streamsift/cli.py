"""Command-line entry point.

Subcommands:
  run    execute a configured experiment; writes results JSON/CSV/SVG
  demo   render the two-bells prioritisation heatmaps (5 CSVs + 5 SVGs)
  score  fit a model on a store CSV and rank candidate examples

Exit codes: 0 success (also when the reader of stdout closes it early, as
``streamsift score ... | head -n 1`` does), 2 configuration/input error, 3
runtime failure of every seed. The STREAMSIFT_SEED environment variable
supplies a last-resort seed default when neither flags nor config give one.
"""

import argparse
import os
import sys

from .acquisition import OBJECTIVES, TARGET_OBJECTIVES, TargetSet, score_pool
from .config import (TRAINING_DEFAULTS, _as_dir, _as_num, _int, default_seed, load_config,
                     read_file, read_json, validate_model_spec)
from .demo import run_demo
from .errors import ConfigError, DataFormatError, StreamsiftError
from .harness import (
    ExperimentConfig,
    build_model,
    run_experiment,
    write_results,
)
from .rng import derive_seed
from .streams import load_csv, load_features_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _flag(kind, rule):
    """An argparse ``type``: the flag's text as a ``kind``, checked by the
    config schema's ``rule``; either failure makes argparse exit 2."""
    def parse(text):
        try:
            return rule(kind(text), "value")
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    parse.__name__ = kind.__name__  # argparse's "invalid int value: 'x'"
    return parse


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="streamsift",
        description="Information-theoretic subsampling from labelled data streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.add_argument(
        "--override", action="append", default=[], metavar="PATH=VALUE",
        help="dotted-path config override, e.g. store.m=250 or seeds=[1,2]",
    )

    p_demo = sub.add_parser("demo", help="render the two-bells heatmaps")
    p_demo.add_argument("--resolution", type=_flag(int, _int(1)), default=64)
    p_demo.add_argument("--targets", type=_flag(int, _int(1)), default=256,
                        help="number of target-input samples")
    p_demo.add_argument("--hypotheses", type=_flag(int, _int(1)), default=256)
    p_demo.add_argument("--seed", type=_flag(int, _int(0)), default=None)
    p_demo.add_argument("--output-dir", type=_flag(str, _as_dir), default="demo_output")

    p_score = sub.add_parser("score", help="rank candidates for one store")
    p_score.add_argument("--model", required=True,
                         help="model spec as inline JSON or @path/to/spec.json")
    p_score.add_argument("--store", required=True, help="labelled store CSV")
    p_score.add_argument("--candidates", required=True, help="labelled candidates CSV")
    p_score.add_argument("--targets", default=None, help="feature CSV of target inputs")
    p_score.add_argument("--objective", required=True,  # rho_loss needs run's holdout model
                         choices=[o for o in OBJECTIVES if o != "rho_loss"])
    p_score.add_argument("--eta", type=_flag(float, _as_num), default=1.0)
    p_score.add_argument("--label-column", type=int, default=-1)
    p_score.add_argument("--header", action="store_true",
                         help="store/candidate CSVs carry a header row")
    p_score.add_argument("--seed", type=_flag(int, _int(0)), default=None)
    p_score.add_argument("--sample-count", type=_flag(int, _int(1)), default=20,
                         help="posterior samples K for sample-based models")
    return parser


def cmd_run(args):
    config_dict = load_config(args.config, overrides=args.override)
    config = ExperimentConfig(**config_dict)
    result = run_experiment(config)
    paths = write_results(result, config.output["dir"])
    ok = result.summary["seeds_ok"]
    failed = result.summary["seeds_failed"]
    for seed in failed:
        run = next(r for r in result.per_seed if r.seed == seed)
        print(f"seed {seed} failed: {run.error}", file=sys.stderr)
    print(
        f"wrote {paths['json']}, {paths['csv']}, {paths['svg']} "
        f"({len(ok)} ok / {len(failed)} failed seeds)"
    )
    if not ok:
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_demo(args):
    seed = args.seed if args.seed is not None else default_seed()
    out = run_demo(
        resolution=args.resolution, num_targets=args.targets,
        num_hypotheses=args.hypotheses, seed=seed, outdir=args.output_dir,
    )
    print(f"wrote {len(out['files'])} files to {args.output_dir}")
    return EXIT_OK


def cmd_score(args):
    seed = args.seed if args.seed is not None else default_seed()
    path, text = (args.model[1:], None) if args.model.startswith("@") else (None, args.model)
    spec = validate_model_spec(read_json("model spec", path=path, text=text))
    store = read_file("--store", load_csv, args.store, args.label_column, header=args.header)
    candidates = read_file("--candidates", load_csv, args.candidates, args.label_column,
                           header=args.header)

    targets, inputs = None, []
    if args.objective in TARGET_OBJECTIVES:
        if args.targets is None:
            raise ConfigError(f"objective {args.objective!r} needs --targets")
        targets = TargetSet(read_file("--targets", load_features_csv, args.targets))
        inputs = [(args.targets, targets.inputs)]

    model = build_model(spec, args.sample_count, TRAINING_DEFAULTS, derive_seed(seed, 1),
                        {args.store: store, args.candidates: candidates}, inputs)
    model.fit(store)
    ranked = score_pool(args.objective, model, candidates, targets=targets,
                        seed=derive_seed(seed, 2), eta=args.eta)
    print("index,score,rank")
    for rank, item in enumerate(ranked, start=1):
        print(f"{item.candidate_index},{item.value!r},{rank}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"run": cmd_run, "demo": cmd_demo, "score": cmd_score}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has all it wants; stdout goes to devnull so that the
        # interpreter's own flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ConfigError, DataFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamsiftError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
