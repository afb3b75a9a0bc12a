"""Command-line front end.

Subcommands: ``gen``, ``fit``, ``encode``, ``tlb-rmse``, ``detect``, ``roc``,
``info-loss``.  Every subcommand accepts ``--seed``, ``--out`` (default:
stdout) and ``--config <json>`` whose top-level keys fill the subcommand's
options of the same name; explicit flags win over the config file.
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
from .errors import InvalidParamsError, ParseError, SaxkitError, parse_json
from .harness import (
    GENERATOR_PARAMS,
    METHOD_ORDER,
    RECORD_FIELDS,
    ExperimentGrid,
    LabeledStream,
    _open_write,
    event_record,
    generate_synthetic,
    load_series_csv,
    load_stream_csv,
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


def _write_text(path, text: str) -> None:
    """One line of text to the ``--out`` path, or to stdout."""
    with _open_write(path) as fh:
        fh.write(text + "\n")


def _split_pretraining(values, labels, fraction: float):
    if not 0.0 <= fraction < 1.0:
        raise InvalidParamsError(f"pretrain fraction must be in [0, 1), got {fraction}")
    cut = int(fraction * values.size)
    rest_labels = None if labels is None else labels[cut:]
    return values[:cut], values[cut:], rest_labels


def _run_configured_detector(args):
    data = load_stream_csv(args.input)
    values, labels = data.values, getattr(data, "labels", None)
    config = DetectorConfig(window=args.window, alpha=args.alpha, kappa=args.kappa)
    if args.detector == "csax":
        pre, stream, labels = _split_pretraining(values, labels, args.pretrain_fraction)
        result = run_csax_detector(stream, config, pretraining=pre, paa_ratio=args.paa_ratio)
        return result.events, labels, config
    if args.pretrain_fraction:
        raise InvalidParamsError("pretraining only applies to the adaptive detector")
    events, _ = run_fixed_detector(
        values, args.detector.upper(), config, seed=args.seed, paa_ratio=args.paa_ratio
    )
    return events, labels, config


def _cmd_gen(args) -> int:
    # every parameter given, of any kind, so that another kind's is an error
    given = {name: getattr(args, name) for params in GENERATOR_PARAMS.values() for name in params}
    params = {name: value for name, value in given.items() if value is not None}
    out = generate_synthetic(args.kind, args.length, seed=args.seed, **params)
    if isinstance(out, LabeledStream):
        write_labeled_csv(args.out, out)
    else:
        write_series_csv(args.out, out.values)
    return 0


def _cmd_fit(args) -> int:
    pool = load_series_csv(args.input)
    spec = EncoderSpec(
        args.method.upper(),
        segments=args.segments,
        kappa=args.kappa,
        normalization=args.normalization,
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
    methods = [m.strip().upper() for m in args.methods.split(",")]
    records, fields = run_tlb_rmse_experiment(corpus, grid, methods), RECORD_FIELDS
    if args.pivot is not None:
        if len(grid.kappas) != 1:
            raise InvalidParamsError("--pivot needs a single-kappa grid")
        records, fields = pivot_records(records, f"{args.pivot}_mean", grid.kappas[0]), None
    write_records_csv(args.out, records, fields)
    return 0


def _cmd_detect(args) -> int:
    events, _, _ = _run_configured_detector(args)
    if args.out is not None and str(args.out).endswith(".json"):
        _write_text(args.out, json.dumps([event_record(ev) for ev in events]))
    else:
        write_events_csv(args.out, events)
    return 0


def _cmd_roc(args) -> int:
    events, labels, config = _run_configured_detector(args)
    if labels is None:
        raise ParseError("ROC needs a labeled input (value,label rows)")
    _, block = block_means((), args.paa_ratio)
    curve = roc_from_events(events, labels, config.window, block=block)
    write_roc_csv(args.out, curve)
    print(f"auc={curve.auc!r}", file=sys.stderr)
    return 0


def _cmd_info_loss(args) -> int:
    values = load_series_csv(args.input).values
    if args.normalize:
        values = (values - values.mean()) / values.std()
    value = info_loss_to_std_gaussian(values, bits=args.bits)
    write_series_csv(args.out, [value], "info_loss_bits" if args.bits else "info_loss_nats")
    return 0


_METHODS = [m.value.lower() for m in METHOD_ORDER]


def _add_detector_options(sub):
    sub.add_argument(
        "--detector",
        choices=_METHODS,
        default="csax",
        help="fixed-codebook variants or the adaptive detector",
    )
    sub.add_argument(
        "--window", type=int, default=DetectorConfig.window, help="rolling window length in symbols"
    )
    sub.add_argument("--alpha", type=float, default=DetectorConfig.alpha, help="significance level")
    sub.add_argument(
        "--kappa", type=int, default=DetectorConfig.kappa, help="alphabet size (fixed detectors)"
    )
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
    gen.add_argument("--kind", required=True, choices=list(GENERATOR_PARAMS))
    gen.add_argument("--length", type=int, required=True)
    for kind, params in GENERATOR_PARAMS.items():
        for name, default in params.items():
            gen.add_argument(f"--{name}", type=type(default), help=f"{kind} (default {default})")
    gen.set_defaults(func=_cmd_gen)

    fit_p = subs.add_parser("fit", parents=[common], help="fit an encoder on a sample pool")
    fit_p.add_argument("--input", required=True, help="CSV of training values, one per line")
    fit_p.add_argument("--method", required=True, choices=_METHODS)
    fit_p.add_argument("--segments", type=int, required=True)
    fit_p.add_argument("--kappa", type=int, default=EncoderSpec.kappa)
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
    grid.add_argument("--kappas", type=_csv_ints, default=ExperimentGrid.kappas)
    grid.add_argument("--trials", type=int, default=ExperimentGrid.trials)
    fixed = [m.value for m in METHOD_ORDER if m is not EncodingMethod.CSAX]
    grid.add_argument("--methods", default=",".join(fixed))
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


def _config_tokens(sub, path) -> list[str]:
    """The flags of subcommand parser ``sub`` that the --config JSON object at
    ``path`` stands for.

    Each key names an option by its destination (``paa_ratio`` for
    ``--paa-ratio``).  A switch takes ``true`` (set) or ``false``; any other
    value becomes the text its flag would take, lists joined with commas, so
    argparse checks it as it checks the flag.  ``null`` leaves the option out.
    """
    with open(path, "r", encoding="utf-8") as fh:
        overrides = parse_json(fh.read(), path)
    if not isinstance(overrides, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    options = {a.dest: a for a in sub._actions if a.option_strings}
    del options["help"], options["config"]
    tokens = []
    for key, value in overrides.items():
        if key not in options:
            raise ParseError(f"{path}: {key!r} names no option of {sub.prog}")
        flag = options[key].option_strings[0]
        if options[key].nargs == 0:
            if not (value is None or isinstance(value, bool)):
                raise ParseError(f"{path}: switch {key!r} takes true, false or null, got {value!r}")
            if value:
                tokens.append(flag)
        elif value is not None:
            text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
            tokens.append(f"{flag}={text}")
    return tokens


def _apply_config(parser, argv):
    """Parse ``argv`` with the flags of its --config file, if any, placed
    right after the subcommand name, so explicit flags later in ``argv`` win
    and argparse checks the config's values, choices and required options as
    it checks the command line's."""
    subs = parser._subparsers._group_actions[0].choices
    if not argv or argv[0] not in subs:
        return parser.parse_args(argv)
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        path = pre.parse_known_args(argv[1:])[0].config
    except argparse.ArgumentError:  # the full parse reports it
        path = None
    if path is None:
        return parser.parse_args(argv)
    return parser.parse_args([argv[0], *_config_tokens(subs[argv[0]], path), *argv[1:]])


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
