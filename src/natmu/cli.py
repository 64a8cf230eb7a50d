"""Command-line entry points.

Exit codes: 0 success, 1 validation error (bad inputs or config),
2 runtime failure, 3 acceptance-check failure.
"""

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, builder, data, masks, metrics
from .errors import NatmuError, ValidationError, check_least
from .methods import METHODS, natmu_finetune_set, natmu_hybrids
from .runner import SynthSpec, load_config, prepare_seed, run_experiment, write_report_csv

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="natmu", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ds = sub.add_parser("dataset", help="synthesize or inspect UDS datasets")
    ds_sub = ds.add_subparsers(dest="dataset_command", required=True)
    synth = ds_sub.add_parser("synth")
    synth.add_argument("--out", required=True)
    for flag in ("k", "per_class", "height", "width", "channels", "spread"):
        synth.add_argument("--" + flag.replace("_", "-"), type=type(getattr(SynthSpec, flag)),
                           default=getattr(SynthSpec, flag))
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--split", choices=("train", "test"), default="train")
    inspect = ds_sub.add_parser("inspect")
    inspect.add_argument("path")

    mask = sub.add_parser("mask", help="weighting mask utilities")
    mask_sub = mask.add_subparsers(dest="mask_command", required=True)
    dump = mask_sub.add_parser("dump")
    dump.add_argument("--family", choices=masks.MASK_FAMILIES, default=masks.GRADUAL)
    dump.add_argument("--h", "--height", dest="height", type=int, default=32)
    dump.add_argument("--w", "--width", dest="width", type=int, default=32)
    dump.add_argument("--delta", type=float, default=0.0)
    dump.add_argument("--edge-len", type=int, default=None)
    dump.add_argument("--out", required=True)

    # the stage commands rebuild one root seed's pipeline from these two
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--config", required=True)
    seeded.add_argument("--seed", type=int, default=1)

    pre = sub.add_parser("pretrain", parents=[seeded], help="train the original model")
    pre.add_argument("--out", required=True)
    pre.add_argument("--trace", default=None,
                     help="also write the trace record (per-sample correct-epoch "
                          "counts) to this path")

    build = sub.add_parser("build", parents=[seeded], help="construct natmu's fine-tuning set")
    build.add_argument("--model", required=True)
    build.add_argument("--variant", choices=builder.VARIANTS)
    build.add_argument("--n", type=int)
    build.add_argument("--delta", type=float)
    build.add_argument("--mask-family", choices=masks.MASK_FAMILIES)
    build.add_argument("--out", required=True)
    build.add_argument("--provenance", default=None, help="JSON-lines sidecar path")

    un = sub.add_parser("unlearn", parents=[seeded], help="run one unlearning method")
    un.add_argument("--method", choices=tuple(METHODS), required=True)
    un.add_argument("--model", default=None,
                    help="original model checkpoint (for retrain, optional: only "
                         "its trace record is read; without it, a retrain in "
                         "difficult mode takes the split from a matching trace "
                         "record in --out's directory, else pretrains)")
    un.add_argument("--out", required=True)

    ev = sub.add_parser("evaluate", parents=[seeded],
                        help="metrics report against a retrain reference")
    ev.add_argument("--model", required=True)
    ev.add_argument("--retrain", required=True)
    ev.add_argument("--method", choices=tuple(METHODS), default=None,
                    help="method that produced the model; enables the KL column")
    ev.add_argument("--out", required=True)
    ev.add_argument("--hist-prefix", default=None,
                    help="also export entropy histograms to PREFIX_forget/test.csv")
    ev.add_argument("--hist-bins", type=int, default=40)

    run = sub.add_parser("run", help="full experiment over seeds and methods")
    run.add_argument("--config", required=True)
    run.add_argument("--out-dir", default=None)

    chk = sub.add_parser("check", help="run the acceptance property suite")
    chk.add_argument("--skip-slow", action="store_true",
                     help="skip the desk-scale pipeline checks")
    chk.add_argument("--workdir", default=None)
    return parser


def _cmd_dataset(args) -> int:
    if args.dataset_command == "synth":
        # synth's rules, then the header rule `save_raw` keeps, before any data is made
        data.check_synth(args.k, args.height, args.width, args.channels, args.spread,
                         per_class=args.per_class)
        data.check_header(args.height, args.width, args.channels, args.k)
        ds = data.synth_blobs(args.k, args.per_class, args.height, args.width,
                              args.channels, spread=args.spread, seed=args.seed,
                              split=args.split)
        data.save_raw(ds, args.out)
        print(f"wrote {len(ds)} instances to {args.out}")
        return EXIT_OK
    ds = data.load_raw(args.path)
    ds.validate()
    print(f"{args.path}: N={len(ds)} H={ds.height} W={ds.width} "
          f"C={ds.channels} K={ds.k}")
    hist = np.bincount(ds.labels, minlength=ds.k)
    for label, count in enumerate(hist):
        print(f"  class {label}: {count}")
    return EXIT_OK


def _cmd_mask(args) -> int:
    mask_set = masks.build_mask_set(args.family, args.height, args.width,
                                    args.delta, args.edge_len)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for path in masks.dump_csv(mask_set, stem):
        print(f"wrote {path}")
    return EXIT_OK


def _wrote(what: str, path: str, records=()) -> None:
    print(f"wrote {what} to {path}")
    for record in records:
        print(f"wrote trace record to {record}")


def _cmd_pretrain(args) -> int:
    prep = prepare_seed(load_config(args.config), args.seed,
                        with_trace=args.trace is not None, original=True)
    records = prep.save(prep.original, args.out)
    if args.trace is not None:
        prep.write_trace_record(args.trace)
        records.append(args.trace)
    _wrote("model", args.out, records)
    return EXIT_OK


def _cmd_build(args) -> int:
    config = load_config(args.config)
    overrides = {key: getattr(args, key) for key in ("variant", "n", "delta", "mask_family")
                 if getattr(args, key) is not None}
    config.method_params["natmu"] = dataclasses.replace(config.params_for("natmu"),
                                                        **overrides)
    config.validate()
    prep = prepare_seed(config, args.seed, checkpoints=[args.model])  # --model is the original
    request = prep.request("natmu", prep.load(args.model))
    hybrids = natmu_hybrids(request)
    finetune = natmu_finetune_set(request)
    data.save_raw(finetune, args.out)
    print(f"wrote {len(finetune)} instances ({len(hybrids)} unlearning) to {args.out}")
    if args.provenance is not None:
        with open(args.provenance, "w", encoding="ascii") as fh:
            for fid, rid, category, mask in zip(
                    hybrids.forget_ids.tolist(), hybrids.remaining_ids.tolist(),
                    hybrids.data.labels.tolist(), hybrids.mask_index.tolist()):
                fh.write(json.dumps({"forget_index": fid, "remaining_index": rid,
                                     "category": category, "mask_index": mask}) + "\n")
        print(f"wrote provenance to {args.provenance}")
    return EXIT_OK


def _cmd_unlearn(args) -> int:
    if args.method != "retrain" and args.model is None:
        raise ValidationError("--model is required for unlearning methods")
    config = load_config(args.config)
    # retrain reads its split from --model when given, else from a matching
    # record beside --out, but starts from no model
    checkpoints = [] if args.model is None else [args.model]
    source = None if args.method == "retrain" else args.model
    prep = prepare_seed(config, args.seed, checkpoints=checkpoints,
                        record_dir=Path(args.out).parent)
    request = None if source is None else prep.request(args.method, prep.load(source))
    model, _ = prep.unlearn(args.method, request)
    _wrote(f"{args.method} model", args.out, prep.save(model, args.out, source))
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    check_least("", {"--hist-bins": (args.hist_bins, 1)})
    config = load_config(args.config)
    # the report's KL set reads the original if the method's sets read a model
    record = METHODS.get(args.method)
    original = record is not None and record.reads_model
    prep = prepare_seed(config, args.seed, checkpoints=[args.model, args.retrain],
                        original=original)
    model, model_r = prep.load(args.model), prep.load(args.retrain)
    if original:
        prep.original  # made before the reports, so they hold no full training set
    reference, _ = prep.report(model_r, model_r, "retrain")
    write_report_csv(Path(args.out), *prep.report(model, model_r, args.method), reference)
    print(f"wrote report to {args.out}")
    if args.hist_prefix is not None:
        for name, subset in (("forget", prep.d_f), ("test", prep.test)):
            counts, edges = metrics.entropy_histogram(model, subset, args.hist_bins)
            path = f"{args.hist_prefix}_{name}.csv"
            with open(path, "w", encoding="ascii") as fh:
                fh.write("bin_left,count\n")
                for left, count in zip(edges[:-1], counts):
                    fh.write(f"{left:.6f},{int(count)}\n")
            print(f"wrote histogram to {path}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = run_experiment(config, out_dir=args.out_dir)
    print(f"run complete: config {manifest['config_hash'][:12]}, "
          f"{len(manifest['files'])} files")
    return EXIT_OK


def _cmd_check(args) -> int:
    from .properties import run_all
    results = run_all(workdir=args.workdir, skip_slow=args.skip_slow)
    failed = False
    for result in results:
        print(result.line())
        failed = failed or (not result.passed and not result.skipped)
    return EXIT_ACCEPTANCE if failed else EXIT_OK


_COMMANDS = {
    "dataset": _cmd_dataset,
    "mask": _cmd_mask,
    "pretrain": _cmd_pretrain,
    "build": _cmd_build,
    "unlearn": _cmd_unlearn,
    "evaluate": _cmd_evaluate,
    "run": _cmd_run,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # every file a command writes must go into an existing directory, checked
        # before any work, so that a bad path wastes none and leaves no output
        for flag in ("out", "trace", "provenance", "hist_prefix"):
            path = getattr(args, flag, None)
            if path is not None and not Path(path).parent.is_dir():
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NatmuError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
