"""Command-line interface.

Subcommands: fit, order-scan, psd, detect, eval, simulate.  Every
module-level ValueError becomes an ``error:`` message on stderr and a
nonzero exit; output files are written in one shot only after the whole
computation succeeded.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import RunConfig
from .core import Recording, default_montage
from .detection import channel_psds, detect_recording, fit_channel, score_channels
from .io_csv import (
    read_annotations,
    read_burst_specs,
    read_prediction_csv,
    read_recording_csv,
    read_report_errors,
    write_annotations,
    write_detection_report_csv,
    write_psd_csv,
    write_recording_csv,
)
from .order_selection import CRITERIA, order_scan
from .preprocess import demean, difference
from .simulate import simulate_recording

METHOD_FLAGS = {"yw": "yule_walker", "burg": "burg", "mle": "mle"}
METHOD_TITLES = {"mle": "MLE", "yule_walker": "Yule-Walker", "burg": "Burg"}
DEFAULTS = RunConfig()
DEFAULT_METHOD_FLAG = {method: flag for flag, method in METHOD_FLAGS.items()}[DEFAULTS.method]


def _add_pipeline_flags(parser: argparse.ArgumentParser, with_method: bool = True,
                        with_order: bool = True, with_screen: bool = True) -> None:
    """The run configuration's flags that a subcommand reads; ``--k``,
    ``--rho`` and ``--correction`` only for one that screens.  Their
    defaults are :class:`arpsd.config.RunConfig`'s."""
    if with_method:
        parser.add_argument(
            "--method", choices=sorted(METHOD_FLAGS), default=DEFAULT_METHOD_FLAG,
            help="estimation method (default %(default)s)",
        )
    if with_order:
        parser.add_argument(
            "--order", default=str(DEFAULTS.order),
            help='model order, or "auto" to select by --criterion (default %(default)s)',
        )
    parser.add_argument(
        "--criterion", choices=CRITERIA, default=DEFAULTS.criterion,
        help="order-selection criterion (default %(default)s)",
    )
    parser.add_argument("--p-max", type=int, help="highest order scanned (default %(default)s)")
    parser.add_argument("-d", "--diff", type=int, help="differencing passes (default %(default)s)")
    parser.add_argument("--grid-size", type=int, help="frequency grid points (default %(default)s)")
    parser.set_defaults(p_max=DEFAULTS.p_max, diff=DEFAULTS.diff_order, grid_size=DEFAULTS.grid_size)
    parser.add_argument(
        "--fs", type=float, default=128.0,
        help="sample rate in Hz when the file carries none (default 128)",
    )
    if with_screen:
        parser.add_argument("--k", type=float, default=DEFAULTS.k,
                            help="PSD threshold multiplier (default %(default)s)")
        parser.add_argument("--rho", type=float, default=DEFAULTS.rho,
                            help="low-band dominance threshold (default %(default)s)")
        parser.add_argument(
            "--correction", action="store_true",
            help="divide the PSD by the differencing response before banding",
        )


def _parse_order(text: str):
    if text == "auto":
        return "auto"
    try:
        order = int(text)
    except ValueError:
        raise ValueError(f'order must be a positive integer or "auto", got {text!r}') from None
    return order


def _config_from_args(args, method: str | None = None) -> RunConfig:
    """The run configuration of the flags ``args`` holds; a field whose
    flag the subcommand does not take keeps its default."""
    fields = {
        "method": method or METHOD_FLAGS[args.method],
        "criterion": args.criterion,
        "p_max": args.p_max,
        "diff_order": args.diff,
        "grid_size": args.grid_size,
    }
    if "order" in args:
        fields["order"] = _parse_order(args.order)
    if "k" in args:
        fields.update(k=args.k, rho=args.rho, undifference_correction=args.correction)
    return RunConfig(**fields)


def _channel(recording: Recording, name: str):
    if name not in recording.channels:
        raise ValueError(f"unknown channel: {name}")
    return recording[name]


def _cells(values, i: int, width: int, spec: str) -> str:
    """Entry i of each column, or "-" where a column is shorter."""
    return "".join(f"{v[i]:>{width}{spec}}" if i < len(v) else "-".rjust(width) for v in values)


def _cmd_fit(args) -> int:
    methods = ["mle", "yule_walker", "burg"] if args.method == "all" else [METHOD_FLAGS[args.method]]
    config = _config_from_args(args, method=methods[0])
    recording = read_recording_csv(args.recording, default_sample_rate_hz=args.fs)
    channel = _channel(recording, args.channel)
    # Under --order auto each method is shown at the order it selected.
    fits = [fit_channel(channel, replace(config, method=method)) for method in methods]
    print(f"channel {args.channel}  n={len(channel) - config.diff_order}  d={config.diff_order}")
    width = max(12, *(len(METHOD_TITLES[m]) + 2 for m in methods))
    head = "parameter".ljust(10) + "".join(METHOD_TITLES[m].rjust(width) for m in methods)
    print(head)
    print("p".ljust(10) + "".join(f"{fit.model.order_p:>{width}d}" for fit in fits))
    order = max(fit.model.order_p for fit in fits)
    coeffs = [fit.model.coeffs for fit in fits]
    for i in range(order):
        print(f"a({i + 1})".ljust(10) + _cells(coeffs, i, width, ".3f"))
    print("sigma2e".ljust(10) + "".join(f"{fit.model.sigma2:>{width}.4g}" for fit in fits))
    ks = [fit.reflection_coeffs for fit in fits]
    for i in range(order):
        print(f"k({i + 1})".ljust(10) + _cells(ks, i, width, ".3f"))
    return 0


def _cmd_order_scan(args) -> int:
    config = _config_from_args(args)
    recording = read_recording_csv(args.recording, default_sample_rate_hz=args.fs)
    prepared = demean(difference(_channel(recording, args.channel), config.diff_order))
    scan = order_scan(prepared, config.p_max, config.method, config.criterion, config.grid_size)
    print(f"channel {args.channel}  n={len(prepared)}  method={config.method}")
    print(f"{'p':>4}  {'sigma2':>12}  {'AIC':>12}  {'AICc':>12}  {'BIC':>12}")
    for score in scan.per_order:
        print(
            f"{score.p:>4}  {score.sigma2:>12.6g}  {score.aic:>12.6f}  "
            f"{score.aicc:>12.6f}  {score.bic:>12.6f}"
        )
    print(f"selected p = {scan.selected_p} ({scan.criterion_used})")
    return 0


def _cmd_psd(args) -> int:
    if bool(args.channel) == bool(args.all):
        raise ValueError("exactly one of --channel or --all is required")
    config = _config_from_args(args)
    recording = read_recording_csv(args.recording, default_sample_rate_hz=args.fs)
    if not args.all:
        recording = Recording({args.channel: _channel(recording, args.channel)})
    out_dir = Path(args.out)
    targets: dict[Path, str] = {}
    for name in recording.names:
        target = out_dir / (name.replace("/", "_") + ".csv")
        if target in targets:
            raise ValueError(f"channels {targets[target]!r} and {name!r} would both write {target}")
        targets[target] = name
    # Every spectrum first, in one block pass, so that a failing channel
    # leaves no file behind; the first failing channel's error is raised.
    spectra = channel_psds(recording, config)
    for spectrum in spectra:
        if isinstance(spectrum, Exception):
            raise spectrum
    out_dir.mkdir(parents=True, exist_ok=True)
    parameters = {**config.summary(), "fs": recording.sample_rate_hz}
    for (target, name), spectrum in zip(targets.items(), spectra):
        write_psd_csv(target, spectrum, {"channel": name, **parameters})
        print(f"wrote {target}")
    return 0


def _cmd_detect(args) -> int:
    config = _config_from_args(args)
    recording = read_recording_csv(args.recording, default_sample_rate_hz=args.fs)
    report = detect_recording(recording, config)
    write_detection_report_csv(args.out, report)
    flagged = report.flagged_names()
    print(f"wrote {args.out}")
    print(f"flagged {len(flagged)}/{len(recording)} channels" + (": " + ", ".join(flagged) if flagged else ""))
    for name, message in report.errors.items():
        print(f"error on channel {name}: {message}", file=sys.stderr)
    return 0


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{100.0 * value:.2f}%"


def _cmd_eval(args) -> int:
    metrics = score_channels(
        read_prediction_csv(args.pred),
        list(read_report_errors(args.pred)),
        read_annotations(args.truth),
        wording=("channel sets do not match", "predictions", "truth"),
    )
    counts = metrics.counts
    print(f"tp={counts.tp} fp={counts.fp} tn={counts.tn} fn={counts.fn}")
    for note in metrics.notes:
        print(note)
    print(f"sensitivity: {_pct(metrics.sensitivity)}")
    print(f"specificity: {_pct(metrics.specificity)}")
    print(f"accuracy: {_pct(metrics.accuracy)}")
    return 0


def _cmd_simulate(args) -> int:
    bursts = read_burst_specs(args.spec) if args.spec else []
    recording, annotations = simulate_recording(
        montage=default_montage(),
        n=args.n,
        sample_rate_hz=args.fs,
        noise_sigma=args.noise_sigma,
        bursts=bursts,
        snr=args.snr,
        seed=args.seed,
    )
    parameters = {
        "seed": args.seed, "n": args.n, "fs": args.fs,
        "noise_sigma": args.noise_sigma, "snr": args.snr,
        "bursts": ";".join(b.channel for b in bursts) or "none",
    }
    comments = [" ".join(f"{k}={v}" for k, v in parameters.items())]
    write_recording_csv(args.out, recording, extra_comments=comments)
    print(f"wrote {args.out}")
    if args.truth:
        write_annotations(args.truth, annotations, parameters)
        print(f"wrote {args.truth}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arpsd",
        description="AR spectral estimation and low-frequency rhythm screening",
    )
    parser.add_argument("--version", action="version", version=f"arpsd {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit AR models to one channel and print them")
    p_fit.add_argument("recording", help="recording CSV")
    p_fit.add_argument("--channel", required=True, help="derivation name")
    p_fit.add_argument(
        "--method", choices=sorted(METHOD_FLAGS) + ["all"], default=DEFAULT_METHOD_FLAG,
        help="estimation method, or all for a three-column table",
    )
    _add_pipeline_flags(p_fit, with_method=False, with_screen=False)
    p_fit.set_defaults(func=_cmd_fit)

    p_scan = sub.add_parser("order-scan", help="tabulate criteria over orders 1..p_max")
    p_scan.add_argument("recording")
    p_scan.add_argument("--channel", required=True)
    _add_pipeline_flags(p_scan, with_order=False, with_screen=False)
    p_scan.set_defaults(func=_cmd_order_scan)

    p_psd = sub.add_parser("psd", help="write PSD and masked PSD per channel")
    p_psd.add_argument("recording")
    p_psd.add_argument("--channel", help="single derivation")
    p_psd.add_argument("--all", action="store_true", help="every channel")
    p_psd.add_argument("--out", required=True, help="output directory")
    _add_pipeline_flags(p_psd)
    p_psd.set_defaults(func=_cmd_psd)

    p_detect = sub.add_parser("detect", help="flag channels with low-band rhythm dominance")
    p_detect.add_argument("recording")
    p_detect.add_argument("--out", required=True, help="report CSV path")
    _add_pipeline_flags(p_detect)
    p_detect.set_defaults(func=_cmd_detect)

    p_eval = sub.add_parser(
        "eval",
        help="score a detection report against annotations; channels the report "
        "lists as errors are left out of the counts and named",
    )
    p_eval.add_argument("--pred", required=True, help="detection report CSV")
    p_eval.add_argument("--truth", required=True, help="annotation CSV")
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", help="generate a synthetic recording")
    p_sim.add_argument("--spec", help="burst spec CSV (channel,center_hz,pole_radius[,gain])")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="recording CSV path")
    p_sim.add_argument("--truth", help="annotation CSV path")
    p_sim.add_argument("--n", type=int, default=2560, help="samples per channel (default 2560)")
    p_sim.add_argument("--fs", type=float, default=128.0)
    p_sim.add_argument("--noise-sigma", type=float, default=1.0)
    p_sim.add_argument("--snr", type=float, default=10.0)
    p_sim.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
