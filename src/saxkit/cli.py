"""Command-line front end.

Subcommands: ``gen``, ``fit``, ``encode``, ``tlb-rmse``, ``detect``, ``roc``,
``info-loss``.  Every subcommand accepts ``--seed``, ``--out`` (default:
stdout) and ``--config <json>`` whose top-level keys pre-fill any option of
the same name; explicit flags win over the config file.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .anomaly import DetectorConfig, block_means, run_csax_detector
from .codec import (
    EncoderSpec,
    EncodingMethod,
    NormalizationMode,
    encode,
    encoder_from_json,
    encoder_to_json,
    fit,
)
from .errors import InvalidParamsError, ParseError, SaxkitError
from .harness import (
    ExperimentGrid,
    LabeledStream,
    generate_synthetic,
    load_labeled_csv,
    load_series_csv,
    pivot_records,
    roc_from_events,
    run_fixed_detector,
    run_tlb_rmse_experiment,
    write_events_csv,
    write_labeled_csv,
    write_records_csv,
    write_roc_csv,
    write_series_csv,
)
from .metrics import info_loss_to_std_gaussian

__all__ = ["main"]


def _csv_ints(text: str) -> tuple:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _out_stream(path):
    return sys.stdout if path is None else path


def _write_text(path, text: str) -> None:
    """One line of text to the ``--out`` path, or to stdout."""
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _sniff_columns(path) -> int:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            text = line.strip()
            if text:
                return len(text.split(","))
    return 0


def _load_stream(path):
    """Values plus labels when the file has them; plain series otherwise."""
    if _sniff_columns(path) >= 2:
        stream = load_labeled_csv(path)
        return stream.values, stream.labels
    return load_series_csv(path).values, None


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(window=args.window, alpha=args.alpha, kappa=args.kappa)


def _split_pretraining(values, labels, fraction: float):
    if not 0.0 <= fraction < 1.0:
        raise InvalidParamsError(f"pretrain fraction must be in [0, 1), got {fraction}")
    cut = int(fraction * values.size)
    rest_labels = None if labels is None else labels[cut:]
    return values[:cut], values[cut:], rest_labels


def _run_configured_detector(args):
    values, labels = _load_stream(args.input)
    config = _detector_config(args)
    if args.detector == "csax":
        pre, stream, labels = _split_pretraining(values, labels, args.pretrain_fraction)
        result = run_csax_detector(stream, config, pretraining=pre, paa_ratio=args.paa_ratio)
        return result.events, labels, config
    if args.pretrain_fraction:
        raise InvalidParamsError("pretraining only applies to the adaptive detector")
    method = EncodingMethod(args.detector.upper())
    events, _ = run_fixed_detector(
        values, method, config, seed=args.seed, paa_ratio=args.paa_ratio
    )
    return events, labels, config


def _events_payload(events) -> list[dict]:
    return [
        {
            "index": ev.index,
            "flag": int(ev.anomalous),
            "min_statistic": ev.min_statistic,
            "threshold": ev.threshold,
            "components_count": ev.components,
            "rebuild_flag": int(ev.rebuild),
        }
        for ev in events
    ]


def _cmd_gen(args) -> int:
    params = {}
    for name in ("phi", "mu1", "mu2", "weight", "sigma", "rate", "segment", "shift"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    out = generate_synthetic(args.kind, args.length, seed=args.seed, **params)
    if isinstance(out, LabeledStream):
        write_labeled_csv(_out_stream(args.out), out)
    else:
        write_series_csv(_out_stream(args.out), out.values)
    return 0


def _cmd_fit(args) -> int:
    pool = load_series_csv(args.input)
    normalization = None if args.normalization is None else NormalizationMode(args.normalization)
    spec = EncoderSpec(
        EncodingMethod(args.method.upper()),
        segments=args.segments,
        kappa=args.kappa,
        normalization=normalization,
        seed=args.seed,
    )
    _write_text(args.out, encoder_to_json(fit(spec, [pool])))
    return 0


def _cmd_encode(args) -> int:
    with open(args.encoder, "r", encoding="utf-8") as fh:
        encoder = encoder_from_json(fh.read())
    _write_text(args.out, encode(encoder, load_series_csv(args.input)).to_json())
    return 0


def _cmd_tlb_rmse(args) -> int:
    corpus = load_series_csv(args.input)
    grid = ExperimentGrid(
        lengths=args.lengths,
        byte_budgets=args.bytes,
        kappas=args.kappas,
        trials=args.trials,
        seed=args.seed,
    )
    methods = tuple(EncodingMethod(m.strip().upper()) for m in args.methods.split(","))
    records = run_tlb_rmse_experiment(corpus, grid, methods)
    if args.pivot is not None:
        if len(grid.kappas) != 1:
            raise InvalidParamsError("--pivot needs a single-kappa grid")
        records = pivot_records(records, f"{args.pivot}_mean", grid.kappas[0])
        write_records_csv(_out_stream(args.out), records)
        return 0
    fields = [
        "length",
        "bytes",
        "kappa",
        "segments",
        "method",
        "alphabet",
        "trials",
        "tlb_mean",
        "rmse_mean",
    ]
    write_records_csv(_out_stream(args.out), records, fields)
    return 0


def _cmd_detect(args) -> int:
    events, _, _ = _run_configured_detector(args)
    if args.out is not None and str(args.out).endswith(".json"):
        _write_text(args.out, json.dumps(_events_payload(events)))
    else:
        write_events_csv(_out_stream(args.out), events)
    return 0


def _cmd_roc(args) -> int:
    events, labels, config = _run_configured_detector(args)
    if labels is None:
        raise ParseError("ROC needs a labeled input (value,label rows)")
    _, block = block_means((), args.paa_ratio)
    curve = roc_from_events(events, labels, config.window, block=block)
    write_roc_csv(_out_stream(args.out), curve)
    print(f"auc={curve.auc!r}", file=sys.stderr)
    return 0


def _cmd_info_loss(args) -> int:
    series = load_series_csv(args.input)
    values = series.values
    if args.normalize:
        values = (values - values.mean()) / values.std()
    value = info_loss_to_std_gaussian(values, bits=args.bits)
    unit = "bits" if args.bits else "nats"
    if args.out is None:
        print(repr(value))
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(f"info_loss_{unit}\n{value!r}\n")
    return 0


def _add_detector_options(sub):
    sub.add_argument(
        "--detector",
        choices=["sax", "asax", "psax", "csax"],
        default="csax",
        help="fixed-codebook variants or the adaptive detector",
    )
    sub.add_argument("--window", type=int, default=50, help="rolling window length in symbols")
    sub.add_argument("--alpha", type=float, default=0.05, help="significance level")
    sub.add_argument("--kappa", type=int, default=10, help="alphabet size (fixed detectors)")
    sub.add_argument(
        "--paa-ratio",
        type=float,
        default=1.0,
        help="symbols per raw sample; 1/m averages blocks of m",
    )
    sub.add_argument(
        "--pretrain-fraction",
        type=float,
        default=0.0,
        help="leading fraction of the stream used to pre-train the adaptive detector",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saxkit",
        description="Symbolic time-series encoding, distances and anomaly detection.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed")
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    common.add_argument("--config", default=None, help="JSON file pre-filling options")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", parents=[common], help="write a synthetic stream as CSV")
    gen.add_argument(
        "--kind",
        required=True,
        choices=["gaussian_iid", "ar1", "bimodal_mixture", "level_shift_anomalies"],
    )
    gen.add_argument("--length", type=int, required=True)
    for name in ("phi", "mu1", "mu2", "weight", "sigma", "rate", "shift"):
        gen.add_argument(f"--{name}", type=float, default=None)
    gen.add_argument("--segment", type=int, default=None)
    gen.set_defaults(func=_cmd_gen)

    fit_p = subs.add_parser("fit", parents=[common], help="fit an encoder on a sample pool")
    fit_p.add_argument("--input", required=True, help="CSV of training values, one per line")
    fit_p.add_argument("--method", required=True, choices=["sax", "asax", "psax", "csax"])
    fit_p.add_argument("--segments", type=int, required=True)
    fit_p.add_argument("--kappa", type=int, default=10)
    fit_p.add_argument(
        "--normalization",
        default=None,
        choices=[m.value for m in NormalizationMode],
        help="override the method's default normalization",
    )
    fit_p.set_defaults(func=_cmd_fit)

    enc = subs.add_parser("encode", parents=[common], help="encode a series with a fitted encoder")
    enc.add_argument("--encoder", required=True, help="encoder JSON from the fit subcommand")
    enc.add_argument("--input", required=True, help="series CSV")
    enc.set_defaults(func=_cmd_encode)

    grid = subs.add_parser("tlb-rmse", parents=[common], help="pair-trial grid experiment")
    grid.add_argument("--input", required=True, help="corpus CSV")
    grid.add_argument("--lengths", type=_csv_ints, default=(480,))
    grid.add_argument("--bytes", type=_csv_ints, default=(16,))
    grid.add_argument("--kappas", type=_csv_ints, default=(16, 256))
    grid.add_argument("--trials", type=int, default=100)
    grid.add_argument("--methods", default="SAX,ASAX,PSAX")
    grid.add_argument(
        "--pivot",
        choices=["tlb", "rmse"],
        default=None,
        help="emit one metric as rows by length, columns method x bytes",
    )
    grid.set_defaults(func=_cmd_tlb_rmse)

    det = subs.add_parser("detect", parents=[common], help="run a detector, emit the event log")
    det.add_argument("--input", required=True, help="stream CSV (value or value,label rows)")
    _add_detector_options(det)
    det.set_defaults(func=_cmd_detect)

    roc = subs.add_parser("roc", parents=[common], help="ROC of a detector on a labeled stream")
    roc.add_argument("--input", required=True, help="labeled CSV (value,label rows)")
    _add_detector_options(roc)
    roc.set_defaults(func=_cmd_roc)

    loss = subs.add_parser(
        "info-loss", parents=[common], help="divergence of a sample from a standard normal"
    )
    loss.add_argument("--input", required=True, help="series CSV of normalized samples")
    loss.add_argument("--bits", action="store_true", help="report bits instead of nats")
    loss.add_argument(
        "--normalize", action="store_true", help="Z-normalize the input before estimating"
    )
    loss.set_defaults(func=_cmd_info_loss)
    return parser


def _apply_config(parser, argv):
    """Let a --config JSON pre-fill option defaults, then re-parse."""
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            overrides = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.config}: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError(f"{args.config}: top level must be a JSON object")
    for action in parser._subparsers._group_actions[0].choices.values():
        known = {a.dest for a in action._actions}
        action.set_defaults(**{k: v for k, v in overrides.items() if k in known})
    return parser.parse_args(argv)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = _apply_config(parser, sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (SaxkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
