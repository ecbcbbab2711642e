"""Command-line interface.

Exit codes: 0 success, 1 usage or configuration error, 2 verification
failure, 3 hypothesis/budget failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .embedding import EmbeddedGraph, HypothesisNotWitnessed, SlabParameters, select_scales, verify_isomorphism
from .engine import mc_event_probability
from .harness import load_config, run_pipeline
from .sequences import ProbabilitySequence
from .thresholds import SETTING_READERS, CalibrationTable, LatticeFamily, ThresholdSettings, estimate_pc
from .windows import ConfigError, lattice_window, long_range_crossing_window, long_range_radial_window


# Options of ``trunclab estimate`` and ``trunclab pc`` that only some families
# read: the families, and the default the others must leave the option at.
_FAMILY_OPTIONS = {"N": (("z2",), 1), "d": (("zd", "slab"), 3), "K": (("slab",), 1)}

# The `trunclab pc` flag and help text of each ThresholdSettings field.
_SETTING_FLAGS = {
    "l_schedule": ("--L-schedule", None),
    "bracket_tol": ("--tol", "widest top-side median interval with which a slab may be certified"),
    "trials_per_probe": ("--trials", "trials on every side but the first of several"),
    "coarse_trials": ("--coarse-trials", "trials on the first of several sides"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="trunclab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pipe = sub.add_parser("pipeline", help="run the full truncation pipeline")
    pipe.add_argument("--config", required=True)
    pipe.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="one crossing or reach estimate, as a CSV row")
    est.add_argument("--family", choices=["z2", "zd", "slab"], required=True)
    est.add_argument("--p", type=float, required=True)
    est.add_argument("--L", type=int, required=True)
    est.add_argument("--N", type=int, default=_FAMILY_OPTIONS["N"][1], help="truncation level, z2 family only")
    est.add_argument("--d", type=int, default=_FAMILY_OPTIONS["d"][1], help="dimension for zd/slab families")
    est.add_argument("--K", type=int, default=_FAMILY_OPTIONS["K"][1], help="thickness for the slab family")
    est.add_argument("--trials", type=int, default=10_000)
    est.add_argument("--seed", type=int, default=1)
    est.add_argument("--event", choices=["crossing", "theta"], default="crossing")

    # The threshold options' destinations are the ThresholdSettings fields
    # they set; their defaults are that class's and their types its readers.
    settings = ThresholdSettings()
    pc = sub.add_parser("pc", help="(re)compute a critical-threshold calibration row")
    pc.add_argument("--family", choices=["z2", "zd", "slab"], required=True)
    pc.add_argument("--d", type=int, default=_FAMILY_OPTIONS["d"][1], help="dimension for zd/slab families")
    pc.add_argument("--K", type=int, default=_FAMILY_OPTIONS["K"][1], help="thickness for the slab family")
    for name, read in SETTING_READERS.items():
        flag, help_text = _SETTING_FLAGS[name]
        pc.add_argument(flag, dest=name, type=read, default=getattr(settings, name), help=help_text)
    pc.add_argument("--seed", type=int, default=1)
    pc.add_argument("--calib", default=None, help="calibration CSV to update")

    ver = sub.add_parser("verify-embedding", help="exhaustive check of the slab embedding")
    ver.add_argument("--config", required=True)
    ver.add_argument("--json", action="store_true", dest="as_json")

    sc = sub.add_parser("scales", help="print the selected scales and truncation level")
    sc.add_argument("--config", required=True)
    return parser


def _check_family_options(args, names: tuple[str, ...]) -> None:
    """Refuse any of ``names`` that the family does not read but is set off its default."""
    for name in names:
        families, default = _FAMILY_OPTIONS[name]
        if args.family not in families and getattr(args, name) != default:
            scope = " and ".join(families) + (" family" if len(families) == 1 else " families")
            raise ValueError(f"--{name} applies to the {scope} only, not {args.family}")


def _estimate_command(args) -> int:
    _check_family_options(args, ("N", "d", "K"))
    event = "crossing" if args.event == "crossing" else "origin_boundary"
    if args.family == "z2":
        build = long_range_crossing_window if event == "crossing" else long_range_radial_window
        window = build(ProbabilitySequence.constant(args.p).truncate(args.N), args.L)
    else:
        window = lattice_window(args.d, args.p, args.L, event, args.K if args.family == "slab" else None)
    estimate = mc_event_probability(window, event, args.trials, args.seed)
    params = f"p={args.p};L={args.L};N={args.N}"
    if args.family != "z2":
        params += f";d={args.d}"
    if args.family == "slab":
        params += f";K={args.K}"
    print(
        f"{args.family},{params},{args.event},{estimate.value!r},{estimate.half_width!r},"
        f"{estimate.trials},{estimate.seed}"
    )
    return 0


def _pc_settings(args) -> ThresholdSettings:
    return ThresholdSettings(**{name: getattr(args, name) for name in SETTING_READERS})


def _pc_command(args) -> int:
    _check_family_options(args, ("d", "K"))
    family = LatticeFamily(args.family, 2 if args.family == "z2" else args.d, args.K)
    table = CalibrationTable(args.calib)
    estimate = estimate_pc(family, _pc_settings(args), args.seed)
    table.put(estimate)
    print(json.dumps(estimate.to_dict(), sort_keys=True))
    return 0


def _embedding_inputs(config):
    if config.embedding_dimension is None or config.embedding_thickness is None:
        raise ConfigError("this command needs an [embedding] section with dimension and thickness")
    params = SlabParameters(config.embedding_dimension, config.embedding_thickness)
    scales = select_scales(
        config.sequence, config.certificate.epsilon, params, config.scale_search_limit
    )
    return params, scales


def _verify_command(args) -> int:
    config = load_config(args.config)
    params, scales = _embedding_inputs(config)
    graph = EmbeddedGraph(params, scales)
    report = verify_isomorphism(
        graph,
        config.verify_coarse,
        config.verify_vertical,
        seq=config.sequence,
        epsilon=config.certificate.epsilon,
    )
    if args.as_json:
        print(json.dumps(asdict(report), indent=2, sort_keys=True))
    else:
        print(f"scales: {list(scales.scales)}  truncation: {scales.top}")
        for name, ok in report.checks.items():
            print(f"  {name}: {'pass' if ok else 'FAIL'}")
        if report.counterexample:
            print(f"  counterexample: {report.counterexample}")
        print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 2


def _scales_command(args) -> int:
    _, scales = _embedding_inputs(load_config(args.config))
    for index, value in enumerate(scales.scales, start=1):
        print(f"n_{index} = {value}")
    print(f"N = {scales.top}")
    return 0


def _pipeline_command(args) -> int:
    config = load_config(args.config)
    report = run_pipeline(config, args.out)
    status = "PASS" if report.passed else f"FAIL ({report.failure_stage})"
    print(f"pipeline: {status}")
    if report.scales:
        print(f"  scales: {report.scales}  truncation: {report.truncation}")
    if report.slab and "dimension" in report.slab:
        print(f"  slab: dimension={report.slab['dimension']} thickness={report.slab['thickness']}")
    for row in report.theta:
        print(
            f"  reach r={row['radius']}: embedded {row['embedded']['value']:.4f} "
            f"full {row['full']['value']:.4f}"
        )
    if report.error:
        print(f"  error: {report.error}")
    print(f"  report: {args.out}/report.json")
    return report.exit_code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pipeline":
            return _pipeline_command(args)
        if args.command == "estimate":
            return _estimate_command(args)
        if args.command == "pc":
            return _pc_command(args)
        if args.command == "verify-embedding":
            return _verify_command(args)
        if args.command == "scales":
            return _scales_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except HypothesisNotWitnessed as exc:
        print(f"scale selection failed: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
