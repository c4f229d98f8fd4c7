"""Command-line front end: swap, chain, threshold, sweep and validate.

Results go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 1 validation-suite failure, 2 usage or config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .closedform import UNBOUNDED, eta_threshold, max_entangled_swaps, subset_sum_normalization
from .errors import ConfigError, EntswapError
from .states import BdsParams, WernerParams, pauli_decompose
from .sweep import (
    SweepConfig,
    check_engine,
    evaluate_chain,
    input_concurrences,
    round_floats,
    run_sweep,
    sample_state,
    write_csv,
    write_summary_json,
)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"{flag} received no values")
    return values


def _parse_triples(text: str) -> list[BdsParams]:
    triples = []
    for group in text.split(";"):
        group = group.strip()
        if not (group.startswith("(") and group.endswith(")")):
            raise ConfigError(f"--t expects groups like (t1,t2,t3), got {group!r}")
        values = _parse_floats(group[1:-1], "--t")
        if len(values) != 3:
            raise ConfigError(f"--t expects exactly three numbers per group, got {group!r}")
        triples.append(BdsParams(*values))
    return triples


def _parse_links(args) -> list:
    """Per-family link parameters, in chain order; argparse admits only werner and bds."""
    if args.family == "werner":
        if args.p is None:
            raise ConfigError("--family werner requires --p")
        return [WernerParams(p) for p in _parse_floats(args.p, "--p")]
    if args.t is None:
        raise ConfigError("--family bds requires --t")
    return _parse_triples(args.t)


def _bloch_json(state) -> dict:
    bloch = pauli_decompose(state)
    return {"r": bloch.r.tolist(), "s": bloch.s.tolist(), "T": bloch.T.tolist()}


def _emit(payload: dict) -> None:
    print(json.dumps(round_floats(payload), indent=2))


def _chain_report(args, params, etas, engine: str) -> int:
    c_out, f_out, final = evaluate_chain(args.family, engine, args.mode, params, etas)
    _emit(
        {
            "c_in": input_concurrences(args.family, params),
            "c_out": c_out,
            "f_out": f_out,
            "final_state_bloch": _bloch_json(final),
        }
    )
    return 0


def _cmd_swap(args) -> int:
    params = _parse_links(args)
    if len(params) != 2:
        raise ConfigError(f"swap takes exactly two links, got {len(params)}")
    return _chain_report(args, params, [args.eta], "oracle")


def _cmd_chain(args) -> int:
    params = _parse_links(args)
    etas = _parse_floats(args.etas, "--etas")
    engine = args.engine or ("closedform" if args.mode == "paper" else "oracle")
    check_engine(args.family, engine, args.mode)
    return _chain_report(args, params, etas, engine)


def _cmd_threshold(args) -> int:
    if args.eta_star:
        _emit({"eta_star": eta_threshold()})
        return 0
    n_max = max_entangled_swaps(args.max_swaps, args.p)
    _emit(
        {
            "eta": args.max_swaps,
            "p": args.p,
            "n_max": "unbounded" if n_max == UNBOUNDED else int(n_max),
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {args.config} must be a JSON object")
    config = SweepConfig.from_dict(data)
    records, summary = run_sweep(config)
    write_csv(records, args.out)
    write_summary_json(summary, args.summary)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _werner_draws(rng, count: int):
    """(visibilities, etas) of entangled Werner chains with 1..5 repeaters."""
    for _ in range(count):
        n = int(rng.integers(1, 6))
        ps = 1.0 / 3.0 + (2.0 / 3.0) * rng.uniform(0.0, 1.0, size=n + 1)
        yield [WernerParams(float(p)) for p in ps], rng.uniform(0.0, 1.0, size=n)


def _bds_draws(rng, count: int):
    """(triples, etas) of Bell-diagonal chains with 1..4 repeaters, drawn as the sweep draws them."""
    for _ in range(count):
        n = int(rng.integers(1, 5))
        ts = [sample_state("bds", rng, dense=False)[0] for _ in range(n + 1)]
        yield ts, rng.uniform(0.0, 1.0, size=n)


def _closedform_deviation(family: str, draws) -> float:
    """Largest gap in C, F or an end-state entry between the closedform and oracle engines."""
    worst = 0.0
    for params, etas in draws:
        c_closed, f_closed, final_closed = evaluate_chain(family, "closedform", "paper", params, etas)
        c_oracle, f_oracle, final_oracle = evaluate_chain(family, "oracle", "paper", params, etas)
        gap = np.abs(final_closed - final_oracle).max()
        worst = max(worst, abs(c_closed - c_oracle), abs(f_closed - f_oracle), gap)
    return float(worst)


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if not 0.0 <= args.tol < math.inf:
        raise ConfigError(f"--tol must be a finite number >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    werner_dev = _closedform_deviation("werner", _werner_draws(rng, args.samples))
    bds_dev = _closedform_deviation("bds", _bds_draws(rng, max(1, args.samples // 10)))

    norm_dev = 0.0
    for _ in range(args.samples):
        n = int(rng.integers(1, 9))
        etas = rng.uniform(0.0, 1.0, size=n)
        direct = math.prod(4.0 - 3.0 * eta for eta in etas)
        diff = abs(direct - subset_sum_normalization(etas)) / max(1.0, abs(direct))
        norm_dev = max(norm_dev, diff)

    norm_dev = float(norm_dev)
    passed = max(werner_dev, bds_dev, norm_dev) <= args.tol
    _emit(
        {
            "samples": args.samples,
            "seed": args.seed,
            "tol": args.tol,
            "werner_max_deviation": werner_dev,
            "bds_max_deviation": bds_dev,
            "normalization_max_deviation": norm_dev,
            "passed": passed,
        }
    )
    return 0 if passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Entanglement and teleportation quality of swap-based repeater chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    links = argparse.ArgumentParser(add_help=False)
    links.add_argument("--family", required=True, choices=["werner", "bds"])
    links.add_argument("--p", help="comma-separated link visibilities (werner)")
    links.add_argument("--t", help="semicolon-separated correlation triples (bds), e.g. '(1,-1,1);(1,-1,1)'")
    links.add_argument("--mode", choices=["paper", "povm"], default="paper")

    swap = sub.add_parser("swap", parents=[links], help="single swap of two links")
    swap.add_argument("--eta", type=float, default=1.0, help="measurement success probability")
    swap.set_defaults(func=_cmd_swap)

    chain = sub.add_parser("chain", parents=[links], help="sequential swaps along a chain of links")
    chain.add_argument("--etas", required=True, help="comma-separated per-node success probabilities")
    chain.add_argument("--engine", choices=["closedform", "oracle"], default=None)
    chain.set_defaults(func=_cmd_chain)

    threshold = sub.add_parser("threshold", help="noise thresholds and swap-count limits")
    group = threshold.add_mutually_exclusive_group(required=True)
    group.add_argument("--eta-star", action="store_true", help="print the single-swap eta threshold")
    group.add_argument("--max-swaps", type=float, metavar="ETA", help="largest entangling swap count at this eta")
    threshold.add_argument("--p", type=float, default=1.0, help="link visibility for --max-swaps")
    threshold.set_defaults(func=_cmd_threshold)

    sweep = sub.add_parser("sweep", help="run a configured sweep and write CSV + summary JSON")
    sweep.add_argument("--config", required=True, help="sweep config JSON file")
    sweep.add_argument("--out", required=True, help="output CSV path")
    sweep.add_argument("--summary", required=True, help="output summary JSON path")
    sweep.set_defaults(func=_cmd_sweep)

    validate = sub.add_parser(
        "validate", help="cross-check closed forms (C, F and end state) against the density-matrix engine"
    )
    validate.add_argument("--samples", type=int, required=True)
    validate.add_argument("--seed", type=int, default=0)
    validate.add_argument("--tol", type=float, default=1e-9)
    validate.set_defaults(func=_cmd_validate)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except EntswapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
