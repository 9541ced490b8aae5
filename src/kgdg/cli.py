"""Command-line entry point: synth, grade, train, fuse, eval, metrics, report.

Exit codes: 0 success, 2 usage/config error, 3 data error, 4 internal
invariant violation. Diagnostics (including the resolved config
fingerprint every subcommand prints) go to stderr and honor --quiet;
machine output goes to --out files, or stdout with ``--out -``.

Seed precedence: --seed flag, then the KGDG_SEED environment variable,
then the config-file or built-in default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from .errors import ConfigError, DataError, InvalidConfig, KgdgError
from .fusion import FusionStrategy, fuse_arrays, require_same_images
from .fusion import batch_fuse  # noqa: F401  unused here; the benchmark's tracer patches it by this module's name
from .harness import (
    SplitFractions,
    checked_weights,
    load_config_section,
    load_experiment_config,
    run_experiment,
    split_dataset,
)
from .io import (
    canonical_json,
    content_digest,
    join_rows,
    load_manifest,
    read_detections,
    read_feature_table,
    read_prediction_table,
    read_probability_table,
    save_model,
)
from .io import load_detections, load_feature_table, load_probability_table  # noqa: F401  unused here; the benchmark's tracer patches them by this module's name
from .learn import TrainConfig, fit_model, resolve_schema
from .metrics import evaluate_predictions, match_detections
from .report import (
    compare_to_reference,
    emit_report,
    get_reference,
    load_report_json,
    reference_ids,
    render_report,
)
from .rules import RULE_LADDER, RuleConfig, detection_counts, fire_rules
from .rules import grade_by_rules, grade_detections  # noqa: F401  unused here; the benchmark's tracer patches them by this module's name
from .synth import shift_profile, write_dataset


def _diag(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _print_fingerprint(args: argparse.Namespace, resolved: dict) -> None:
    _diag(args, f"config fingerprint: {content_digest(canonical_json(resolved))[:16]}")


def _resolve_seed(args: argparse.Namespace, default: int = 0) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("KGDG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InvalidConfig(f"KGDG_SEED={env!r} is not an integer") from None
    return default


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text, encoding="utf-8")


# --- subcommands ---------------------------------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args)
    cfg = shift_profile(args.profile, seed=seed, n_samples=args.samples)
    _print_fingerprint(args, {"command": "synth", "profile": args.profile, "seed": seed,
                              "samples": args.samples})
    manifest_path = write_dataset(cfg, args.out)
    _diag(args, f"wrote {manifest_path}")
    return 0


def _cmd_grade(args: argparse.Namespace) -> int:
    rules = load_config_section(args.config, "rules", RuleConfig)
    if args.min_score is not None:
        rules = replace(rules, min_score=args.min_score)
    _print_fingerprint(args, {"command": "grade", "rules": asdict(rules),
                              "features": bool(args.features), "detections": bool(args.detections)})
    if args.features:
        table = read_feature_table(args.features)
        ids, counts, order = table.ids, table.counts, range(len(table))
    elif args.detections:
        detections = read_detections(args.detections)
        ids, counts = detections.ids, detection_counts(detections, rules.min_score)
        order = sorted(range(len(ids)), key=ids.__getitem__)
    else:
        raise InvalidConfig("grade needs --features or --detections")
    labels = [f"{int(grade)},{name}" for name, grade, _ in RULE_LADDER]
    fired = fire_rules(counts, rules).tolist()
    lines = ["image_id,grade,fired_rules"] + [f"{ids[n]},{labels[fired[n]]}" for n in order]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = load_config_section(args.config, "symbolic", TrainConfig)
    seed = _resolve_seed(args, default=cfg.seed)
    cfg = replace(cfg, model_kind=args.model, seed=seed)
    if args.feature_set:
        cfg = replace(cfg, feature_set=args.feature_set)
    _print_fingerprint(args, {"command": "train", "config": cfg.as_dict()})
    table = read_feature_table(args.features)
    train, valid, test = split_dataset(table, SplitFractions(), seed)
    schema = resolve_schema(cfg, table)
    x, y = table.matrix(schema), table.y
    model = fit_model(x[train], y[train], x[valid], y[valid], schema, cfg)
    if test.size:
        preds = model.predict_proba_matrix(x[test]).argmax(axis=1)
        held_out = evaluate_predictions(y[test], preds)
        _diag(args, f"held-out accuracy {held_out.accuracy:.4f}, macro F1 {held_out.macro_f1:.4f}")
    save_model(model.to_artifact(), args.out)
    _diag(args, f"wrote {args.out}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    strategy = FusionStrategy(args.strategy)
    weights = None
    if strategy is FusionStrategy.WEIGHTED:
        if args.alpha_dl is None or args.alpha_kl is None:
            raise InvalidConfig("weighted fusion needs --alpha-dl and --alpha-kl")
        weights = checked_weights(args.alpha_dl, args.alpha_kl)
    _print_fingerprint(args, {"command": "fuse", "strategy": args.strategy,
                              "alpha_dl": args.alpha_dl, "alpha_kl": args.alpha_kl})
    dl_ids, p_dl = read_probability_table(args.dl)
    kd_ids, p_kd = read_probability_table(args.kd)
    require_same_images(dl_ids, kd_ids)
    fused = fuse_arrays(strategy, p_dl, p_kd[join_rows(dl_ids, kd_ids, KeyError)], weights)
    grades, sources, scores = fused.grades.tolist(), fused.sources.tolist(), fused.scores.tolist()
    lines = ["image_id,grade,source,winning_score"] + [
        f"{dl_ids[n]},{grades[n]},{sources[n]},{scores[n]:.6f}"
        for n in sorted(range(len(dl_ids)), key=dl_ids.__getitem__)
    ]
    _write_output(args, "\n".join(lines) + "\n")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg, manifest_path = load_experiment_config(args.config)
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    elif os.environ.get("KGDG_SEED"):
        cfg = replace(cfg, seeds=(_resolve_seed(args),))
    _print_fingerprint(args, {"command": "eval", "config": cfg.as_dict()})
    manifest = load_manifest(manifest_path)
    report = run_experiment(cfg, manifest)
    if args.out is None or args.out == "-":
        sys.stdout.write(render_report(report, args.format))
    else:
        emit_report(report, args.format, args.out)
        _diag(args, f"wrote {args.out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    _print_fingerprint(args, {"command": "metrics",
                              "mode": "detection" if args.pred_detections else "classification"})
    if args.pred_detections or args.truth_detections:
        if not (args.pred_detections and args.truth_detections):
            raise InvalidConfig("detection metrics need --pred-detections and --truth-detections")
        pred = read_detections(args.pred_detections)
        match = match_detections(pred, read_detections(args.truth_detections), args.iou_threshold)
        _write_output(args, json.dumps(asdict(match), indent=1, sort_keys=True) + "\n")
        return 0
    if not (args.truth and args.pred):
        raise InvalidConfig("classification metrics need --truth and --pred")
    truth = read_feature_table(args.truth)
    pred_ids, grades, probs = read_prediction_table(args.pred)
    rows = join_rows(truth.ids, pred_ids, lambda i: DataError(f"prediction table has no row for image {i!r}"))
    rep = evaluate_predictions(truth.y, grades[rows], None if probs is None else probs[rows])
    _write_output(args, json.dumps(asdict(rep), indent=1, sort_keys=True) + "\n")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    if args.list:
        _write_output(args, "\n".join(reference_ids()) + "\n")
        return 0
    if not args.reference_id:
        raise InvalidConfig("report needs --reference-id (or --list)")
    _print_fingerprint(args, {"command": "report", "reference_id": args.reference_id,
                              "input": bool(args.input)})
    if args.input:
        subject = load_report_json(args.input)
    else:
        subject = get_reference(args.reference_id)
    comparison = compare_to_reference(subject, args.reference_id)
    _write_output(args, comparison.render() + "\n")
    return 0


# --- parser ---------------------------------------------------------------------


@functools.cache  # one parser per process: building it costs about 2 ms
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgdg",
        description="Neuro-symbolic DR grading: synthetic data, rule grading, "
        "symbolic training, confidence fusion, and domain-generalization evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool = False) -> None:
        p.add_argument("--seed", type=int, default=None,
                       help="seed override (falls back to KGDG_SEED, then config)")
        p.add_argument("--config", default=None, help="experiment config JSON")
        p.add_argument("--out", default=None, required=out_required,
                       help="output path ('-' for stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress diagnostics")

    p = sub.add_parser("synth", help="generate a synthetic multi-domain dataset")
    p.add_argument("--profile", required=True, choices=("mild", "severe", "vein_hostile"))
    p.add_argument("--samples", type=int, default=2000, help="examples per domain")
    common(p, out_required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("grade", help="apply the clinical rule ladder")
    p.add_argument("--features", default=None, help="features.csv to grade")
    p.add_argument("--detections", default=None, help="detections.json to aggregate and grade")
    p.add_argument("--min-score", type=float, default=None, dest="min_score")
    common(p)
    p.set_defaults(func=_cmd_grade)

    p = sub.add_parser("train", help="fit a symbolic learner on a feature table")
    p.add_argument("--features", required=True)
    p.add_argument("--model", default="gbm", choices=("gbm", "logistic", "forest", "knn"))
    p.add_argument("--feature-set", default=None, dest="feature_set",
                   choices=("auto", "lesions_only", "lesions_vein"))
    common(p, out_required=True)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("fuse", help="fuse two probability tables")
    p.add_argument("--strategy", required=True, choices=[s.value for s in FusionStrategy])
    p.add_argument("--dl", required=True, help="deep-branch probs.csv")
    p.add_argument("--kd", required=True, help="knowledge-branch probs.csv")
    p.add_argument("--alpha-dl", type=float, default=None, dest="alpha_dl")
    p.add_argument("--alpha-kl", type=float, default=None, dest="alpha_kl")
    common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("eval", help="run an SDG or MDG experiment")
    p.add_argument("--mode", default=None, choices=("sdg", "mdg"))
    p.add_argument("--format", default="markdown", choices=("markdown", "csv", "json"))
    common(p)
    p.set_defaults(func=_cmd_eval)
    # eval requires a config file
    p.set_defaults(_needs_config=True)

    p = sub.add_parser("metrics", help="score predictions or detection matches")
    p.add_argument("--truth", default=None, help="features.csv with true grades")
    p.add_argument("--pred", default=None, help="prediction csv (image_id,grade[,p0..p4])")
    p.add_argument("--pred-detections", default=None, dest="pred_detections")
    p.add_argument("--truth-detections", default=None, dest="truth_detections")
    p.add_argument("--iou-threshold", type=float, default=0.5, dest="iou_threshold")
    common(p)
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("report", help="inspect or diff embedded reference tables")
    p.add_argument("--reference-id", default=None, dest="reference_id")
    p.add_argument("--input", default=None, help="report JSON produced by eval --format json")
    p.add_argument("--list", action="store_true", help="list reference table ids")
    common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "_needs_config", False) and not args.config:
        parser.error("eval requires --config")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 3
    except KgdgError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[IO_ERROR]: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error[INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
