"""Command-line front end.

Subcommands: ``featurize`` (molecules -> sparse features + vocabulary),
``train`` (features -> model file), ``evaluate`` (features -> per-trial
metrics + summary), ``gram`` (features -> kernel matrix file), ``ttest``
(two metrics files -> significance verdict) and ``report`` (model +
features -> ROC curve).

Options may come from a JSON config file (``--config``); explicit flags win
over the file, which wins over built-in defaults.  Exit codes: 0 success,
2 bad configuration (a model trained on another vocabulary included), 3
input parse failure, 4 training failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Sequence

from .errors import ConfigError, TrainingError
from .evaluate import roc_points, welch_t
from .features import (
    DatasetMatrix,
    build_matrix,
    height_features,
    load_sparse,
    load_vocab,
    pair_features,
    save_sparse,
    save_vocab,
)
from .forest import ForestConfig
from .graph import ParseError, parse_sdf, parse_smiles
from .ingest import IngestError, Resolver, featurize_pairs, label_records, load_pairs
from .kernels import KernelError, gram_matrix, save_gram
from .neural import NetConfig
from .persist import load_model, save_model
from .protocol import (
    ALGORITHMS,
    KERNELS,
    PipelineSpec,
    Protocol,
    fit,
    read_metrics_csv,
    run_protocol,
    write_metrics_csv,
    write_roc_csv,
    write_summary_json,
)
from .svm import SvmConfig

# Not called here; the benchmark's tracer (bench/spans.py) patches these names.
from .forest import train_forest  # noqa: F401
from .kernels import kernel_feature_rows  # noqa: F401
from .neural import train_mlp, train_partitioned_net  # noqa: F401
from .svm import train_svm  # noqa: F401


def _subparser(sub, name: str, help_text: str):
    p = sub.add_parser(name, help=help_text)
    # Also accepted before the subcommand; SUPPRESS keeps the subparser from
    # clobbering a value parsed at the top level.
    p.add_argument("--config", default=argparse.SUPPRESS,
                   help="JSON file of option defaults; explicit flags win")
    return p


def parse_range_set(text: str | int) -> list[int]:
    """Parse ``a-b`` inclusive ranges and comma lists, e.g. ``0-2,4``."""
    text = str(text)
    values: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        lo, sep, hi = part.partition("-")
        try:
            if sep:
                start, stop = int(lo), int(hi)
                if stop < start:
                    raise ValueError
                values.update(range(start, stop + 1))
            else:
                values.add(int(part))
        except ValueError:
            raise ConfigError(f"cannot parse range {text!r}; want forms like 0-3") from None
    if not values:
        raise ConfigError(f"range {text!r} is empty")
    if min(values) < 0:
        raise ConfigError("range values must be nonnegative")
    return sorted(values)


def max_features(text: str) -> str | int:
    """``--max-features``: sqrt, all or a positive integer."""
    if text in ("sqrt", "all"):
        return text
    value = int(text)
    if value < 1:
        raise ValueError(f"{text!r} is not positive")
    return value


def non_negative_int(text: str) -> int:
    """``--seed``: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise ValueError(f"{text!r} is negative")
    return value


def _add_featurize(sub) -> None:
    p = _subparser(sub, "featurize", "extract subgraph-count features")
    p.add_argument("--input", required=True, help="input file")
    p.add_argument("--format", dest="input_format", required=True,
                   choices=("smiles", "sdf", "pairs"))
    p.add_argument("--mode", default="height", choices=("height", "pair"))
    p.add_argument("--heights", default="1", help="heights, e.g. 0-3 or 1,2")
    p.add_argument("--distances", default="0", help="root distances, e.g. 0-5")
    p.add_argument("--label-key", default=None,
                   help="SDF data item holding the class label")
    p.add_argument("--positive-value", default=None,
                   help="label value mapped to +1; others map to -1")
    p.add_argument("--cache-dir", default=None,
                   help="structure cache directory for pair inputs")
    p.add_argument("--out-features", required=True)
    p.add_argument("--out-vocab", required=True)


def _add_algo_flags(p) -> None:
    p.add_argument("--algo", default="rf", choices=tuple(ALGORITHMS))
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--kernel", default="none", choices=KERNELS)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--trees", type=int, default=100)
    p.add_argument("--criterion", default="gini", choices=("gini", "entropy"))
    p.add_argument("--max-features", type=max_features, default="sqrt",
                   help="columns tried per split: sqrt, all or a positive integer")
    p.add_argument("--learning-rate", type=float, default=0.5)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--voted", action="store_true")
    p.add_argument("--svm-kernel", default="linear", choices=("linear", "rbf"))
    p.add_argument("--cost", type=float, default=1.0)
    p.add_argument("--pos-cost-factor", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)


def _add_train(sub) -> None:
    p = _subparser(sub, "train", "train a model on a feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    _add_algo_flags(p)
    p.add_argument("--model-out", required=True)


def _add_evaluate(sub) -> None:
    p = _subparser(sub, "evaluate", "run a train/validate protocol")
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    _add_algo_flags(p)
    p.add_argument("--protocol", default="kfold:10",
                   help="kfold:K or shuffle:N[:train-fraction]")
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--out-summary", required=True)


def _add_gram(sub) -> None:
    p = _subparser(sub, "gram", "write a kernel matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--kernel", default="cosine", choices=("cosine", "nspdk"))
    p.add_argument("--out", required=True)


def _add_ttest(sub) -> None:
    p = _subparser(sub, "ttest", "compare two metrics files")
    p.add_argument("--a", dest="file_a", required=True)
    p.add_argument("--b", dest="file_b", required=True)
    p.add_argument("--metric", default="auroc")


def _add_report(sub) -> None:
    p = _subparser(sub, "report", "score features with a model, write ROC")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="submol")
    parser.add_argument("--config", default=None,
                        help="JSON file of option defaults for the subcommand")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_featurize(sub)
    _add_train(sub)
    _add_evaluate(sub)
    _add_gram(sub)
    _add_ttest(sub)
    _add_report(sub)
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse flags, then fill unset options from the JSON config file."""
    args = build_parser().parse_args(argv)
    if args.config is None:
        return args
    try:
        with open(args.config, encoding="utf-8") as handle:
            overrides = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    valid = set(vars(args)) - {"config", "command"}
    cleaned: dict[str, Any] = {}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in valid:
            raise ConfigError(f"unknown config key {key!r} for {args.command}")
        cleaned[dest] = value
    # Re-parse with the file's values as defaults so explicit flags still win.
    parser = build_parser()
    for sub_action in parser._subparsers._group_actions:  # noqa: SLF001
        for name, sub_parser in sub_action.choices.items():
            if name != args.command:
                continue
            for action in sub_parser._actions:  # noqa: SLF001
                dest = action.dest
                if dest not in cleaned:
                    continue
                # A value must be one the flag accepts: a switch takes true
                # or false, a typed option reads the value as its flag's text.
                value = cleaned[dest]
                try:
                    if action.nargs == 0 and not isinstance(value, bool):
                        raise ValueError
                    if action.type is not None:
                        cleaned[dest] = action.type(str(value))
                except ValueError:
                    raise ConfigError(f"bad value {value!r} for config key {dest!r}") from None
                # argparse checks choices only for values given on the command line
                if action.choices is not None and cleaned[dest] not in action.choices:
                    raise ConfigError(
                        f"bad value {cleaned[dest]!r} for config key {dest!r}; "
                        f"choose from {', '.join(action.choices)}"
                    )
            sub_parser.set_defaults(**cleaned)
    return parser.parse_args(argv)


def _pipeline(args) -> PipelineSpec:
    """The classifier, kernel and thread count that the algorithm flags ask for."""
    if args.algo == "rf":
        cfg = ForestConfig(trees=args.trees, criterion=args.criterion,
                           max_features=args.max_features)
    elif args.algo in ("mlp", "pnet"):
        cfg = NetConfig(
            learning_rate=args.learning_rate,
            momentum=args.momentum,
            validation_fraction=args.val_fraction,
            max_epochs=args.epochs,
            voted=args.voted,
        )
    else:
        cfg = SvmConfig(
            kernel=args.svm_kernel,
            C=args.cost,
            pos_cost_factor=args.pos_cost_factor,
            gamma=args.gamma,
        )
    return PipelineSpec(args.algo, cfg, kernel=args.kernel, threads=args.threads)


def _read_heights_distances(args) -> tuple[list[int], list[int]]:
    heights = parse_range_set(args.heights)
    distances = parse_range_set(args.distances)
    if args.mode == "height" and distances != [0]:
        raise ConfigError(
            "height mode takes no root distances; pass --mode pair for "
            f"--distances {args.distances}"
        )
    return heights, distances


def _featurize_molecules(args, heights, distances):
    vectors, labels, skipped = [], [], 0
    memo = {}  # one memo for every molecule of the command
    featurize = (
        (lambda g: height_features(g, heights, memo=memo))
        if args.mode == "height"
        else (lambda g: pair_features(g, heights, distances, memo=memo))
    )
    if args.input_format == "smiles":
        with open(args.input, encoding="utf-8") as handle:
            lines = handle.readlines()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            smiles = fields[0]
            label = 1
            if len(fields) > 1:
                if fields[1] not in ("1", "+1", "-1"):
                    print(f"skipping {smiles}: bad label {fields[1]!r}", file=sys.stderr)
                    skipped += 1
                    continue
                label = 1 if fields[1] in ("1", "+1") else -1
            try:
                vectors.append(featurize(parse_smiles(smiles)))
                labels.append(label)
            except ParseError as exc:
                print(f"skipping {smiles}: {exc}", file=sys.stderr)
                skipped += 1
    else:  # sdf
        with open(args.input, encoding="utf-8", errors="replace") as handle:
            labeled = label_records(
                parse_sdf(handle), args.label_key, args.positive_value or ""
            )
        for index, reason in labeled.skipped:
            print(f"skipping record {index}: {reason}", file=sys.stderr)
        skipped += len(labeled.skipped)
        vectors.extend(featurize(graph) for graph in labeled.graphs)
        labels.extend(labeled.labels)
    if not vectors:
        raise ParseError("no usable molecules in the input")
    return vectors, labels, skipped


def cmd_featurize(args) -> int:
    heights, distances = _read_heights_distances(args)
    if args.input_format == "pairs":
        resolver = Resolver(args.cache_dir) if args.cache_dir else None
        with open(args.input, encoding="utf-8", newline="") as handle:
            dataset = load_pairs(handle, resolver)
        for row_no, reason in dataset.dropped:
            print(f"dropping pair row {row_no}: {reason}", file=sys.stderr)
        if not dataset.pairs:
            raise IngestError("no usable pairs in the input")
        vectors, labels = featurize_pairs(
            dataset, heights, distances if args.mode == "pair" else None
        )
        skipped = len(dataset.dropped)
    else:
        vectors, labels, skipped = _featurize_molecules(args, heights, distances)
    data = build_matrix(vectors, labels)
    with open(args.out_features, "w", encoding="utf-8") as handle:
        save_sparse(handle, data)
    with open(args.out_vocab, "w", encoding="utf-8") as handle:
        save_vocab(handle, data.vocab)
    print(f"molecules: {len(data)}")
    print(f"features: {len(data.vocab)}")
    print(f"skipped: {skipped}")
    return 0


def _load_features(features_path: str, vocab_path: str) -> DatasetMatrix:
    with open(vocab_path, encoding="utf-8") as handle:
        vocab = load_vocab(handle)
    with open(features_path, encoding="utf-8") as handle:
        return load_sparse(handle, vocab)


def cmd_train(args) -> int:
    pipeline = _pipeline(args)
    data = _load_features(args.features, args.vocab)
    model, _ = fit(data, pipeline, args.seed, pipeline.threads)
    with open(args.model_out, "w", encoding="utf-8") as handle:
        save_model(handle, (model, data.vocab.sha256()))
    print(f"trained {args.algo} on {len(data)} rows, {data.X.shape[1]} features")
    print(f"model: {args.model_out}")
    return 0


def cmd_evaluate(args) -> int:
    pipeline = _pipeline(args)
    protocol = Protocol.parse(args.protocol)
    data = _load_features(args.features, args.vocab)
    result = run_protocol(data, pipeline, protocol, seed=args.seed)
    with open(args.out_metrics, "w", encoding="utf-8") as handle:
        write_metrics_csv(handle, result)
    with open(args.out_summary, "w", encoding="utf-8") as handle:
        write_summary_json(
            handle,
            result,
            protocol=protocol.describe(),
            algorithm=args.algo,
            kernel=args.kernel,
            seed=args.seed,
        )
    for name in ("auroc", "train_acc", "val_acc"):
        sample = result.samples[name]
        print(f"{name}: mean={sample.mean:.5f} stdev={sample.stdev:.5f} "
              f"trials={sample.trials}")
    return 0


def cmd_gram(args) -> int:
    data = _load_features(args.features, args.vocab)
    gram = gram_matrix(data, args.kernel)
    with open(args.out, "w", encoding="utf-8") as handle:
        save_gram(handle, gram)
    print(f"gram: {args.out} ({len(gram)} x {len(gram)})")
    return 0


def cmd_ttest(args) -> int:
    with open(args.file_a, encoding="utf-8") as handle:
        samples_a = read_metrics_csv(handle)
    with open(args.file_b, encoding="utf-8") as handle:
        samples_b = read_metrics_csv(handle)
    if args.metric not in samples_a or args.metric not in samples_b:
        raise ConfigError(f"metric {args.metric!r} is not in both files")
    result = welch_t(samples_a[args.metric], samples_b[args.metric])
    verdict = "yes" if result.significant else "no"
    print(f"t={result.t:.6g} df={result.df:.6g} p={result.p:.6g} "
          f"alpha=0.05 significant={verdict}")
    return 0


def cmd_report(args) -> int:
    data = _load_features(args.features, args.vocab)
    with open(args.model, encoding="utf-8") as handle:
        model, trained_on = load_model(handle)
    if trained_on != data.vocab.sha256():
        raise ConfigError(
            f"the model was trained on vocabulary sha256 {trained_on}, "
            f"but --vocab has sha256 {data.vocab.sha256()}"
        )
    scores = model.score_rows(data.X)
    points = roc_points(scores, data.y)
    with open(args.out, "w", encoding="utf-8") as handle:
        write_roc_csv(handle, points)
    print(f"roc: {args.out} ({len(points)} points)")
    return 0


_COMMANDS = {
    "featurize": cmd_featurize,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "gram": cmd_gram,
    "ttest": cmd_ttest,
    "report": cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parse_cli(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse reports its own errors on stderr
        return int(exc.code or 0)
    except (ConfigError, KernelError) as exc:  # ValueErrors, so caught first
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # ParseError and IngestError too
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())
