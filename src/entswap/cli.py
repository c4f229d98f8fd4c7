"""Command-line front end: swap, chain, threshold, sweep and validate.

Results go to standard output as JSON; diagnostics go to standard error.
Exit codes: 0 success, 1 validation-suite failure, 2 usage or config
error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .closedform import (
    UNBOUNDED,
    BdsChainQuery,
    WernerChainQuery,
    bds_chain_concurrence,
    bds_chain_fidelity,
    bds_final_correlations,
    eta_threshold,
    max_entangled_swaps,
    subset_sum_normalization,
    werner_chain_concurrence,
    werner_chain_fidelity,
)
from .errors import ConfigError, EntswapError
from .measures import concurrence, concurrence_bds, concurrence_werner, teleportation_fidelity
from .states import BdsParams, make_bell_diagonal, make_werner, pauli_decompose
from .swap import ChainSpec, NoiseModel, chain_swap, swap_once, swap_once_povm
from .sweep import SweepConfig, round_floats, run_sweep, write_csv, write_summary_json

# Per family: chain query type, link builder, closed-form C and F.
_CLOSED_FORMS = {
    "werner": (WernerChainQuery, make_werner, werner_chain_concurrence, werner_chain_fidelity),
    "bds": (BdsChainQuery, make_bell_diagonal, bds_chain_concurrence, bds_chain_fidelity),
}


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
        triples.append(BdsParams(*_parse_floats(group[1:-1], "--t")))
    if not triples:
        raise ConfigError("--t received no triples")
    return triples


def _parse_links(args) -> tuple[list, list]:
    """Per-family link parameters and constructed states, in chain order."""
    if args.family == "werner":
        if args.p is None:
            raise ConfigError("--family werner requires --p")
        params = _parse_floats(args.p, "--p")
        return params, [make_werner(p) for p in params]
    if args.family == "bds":
        if args.t is None:
            raise ConfigError("--family bds requires --t")
        params = _parse_triples(args.t)
        return params, [make_bell_diagonal(t) for t in params]
    raise ConfigError(f"unsupported family {args.family!r}; use werner or bds")


def _input_concurrences(family: str, params) -> list[float]:
    if family == "werner":
        return [concurrence_werner(p) for p in params]
    return [concurrence_bds(t) for t in params]


def _bloch_json(state) -> dict:
    bloch = pauli_decompose(state)
    return {"r": bloch.r.tolist(), "s": bloch.s.tolist(), "T": bloch.T.tolist()}


def _emit(payload: dict) -> None:
    print(json.dumps(round_floats(payload), indent=2))


def _cmd_swap(args) -> int:
    params, links = _parse_links(args)
    if len(links) != 2:
        raise ConfigError(f"swap takes exactly two links, got {len(links)}")
    swap = swap_once if args.mode == "paper" else swap_once_povm
    final = swap(links[0], links[1], args.eta)
    _emit(
        {
            "c_in": _input_concurrences(args.family, params),
            "c_out": concurrence(final),
            "f_out": teleportation_fidelity(final),
            "final_state_bloch": _bloch_json(final),
        }
    )
    return 0


def _as_bds_query(family: str, params, etas) -> BdsChainQuery:
    # a visibility-p link is the Bell-diagonal point (-p, -p, -p)
    if family == "werner":
        ts = tuple(BdsParams(-p, -p, -p) for p in params)
    else:
        ts = tuple(params)
    return BdsChainQuery(ts, NoiseModel(etas))


def _cmd_chain(args) -> int:
    params, links = _parse_links(args)
    if len(links) < 2:
        raise ConfigError("chain needs at least two links")
    etas = _parse_floats(args.etas, "--etas")
    if len(etas) != len(links) - 1:
        raise ConfigError(f"{len(links)} links require {len(links) - 1} eta values, got {len(etas)}")
    engine = args.engine or ("closedform" if args.mode == "paper" else "oracle")
    if engine == "closedform":
        if args.mode != "paper":
            raise ConfigError("the closedform engine implements paper mode only; use --engine oracle")
        query_type, _, chain_concurrence, chain_fidelity = _CLOSED_FORMS[args.family]
        query = query_type(tuple(params), NoiseModel(etas))
        c_out, f_out = chain_concurrence(query), chain_fidelity(query)
        final = make_bell_diagonal(bds_final_correlations(_as_bds_query(args.family, params, etas)))
    else:
        final = chain_swap(ChainSpec(tuple(links), NoiseModel(etas)), mode=args.mode)
        c_out, f_out = concurrence(final), teleportation_fidelity(final)
    _emit(
        {
            "c_in": _input_concurrences(args.family, params),
            "c_out": c_out,
            "f_out": f_out,
            "final_state_bloch": _bloch_json(final),
        }
    )
    return 0


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
        yield ps, rng.uniform(0.0, 1.0, size=n)


def _bds_draws(rng, count: int):
    """(triples, etas) of Bell-diagonal chains with 1..4 repeaters; cube rejection."""
    for _ in range(count):
        n = int(rng.integers(1, 5))
        ts = []
        while len(ts) < n + 1:
            t = rng.uniform(-1.0, 1.0, size=3)
            try:
                ts.append(BdsParams(*t))
            except EntswapError:
                continue
        yield ts, rng.uniform(0.0, 1.0, size=n)


def _closedform_deviation(family: str, draws) -> float:
    """Largest gap in C or F between the closed forms and chain_swap over the draws."""
    query_type, make_link, chain_concurrence, chain_fidelity = _CLOSED_FORMS[family]
    worst = 0.0
    for params, etas in draws:
        noise = NoiseModel(tuple(etas))
        query = query_type(tuple(params), noise)
        final = chain_swap(ChainSpec(tuple(make_link(p) for p in params), noise))
        worst = max(
            worst,
            abs(chain_concurrence(query) - concurrence(final)),
            abs(chain_fidelity(query) - teleportation_fidelity(final)),
        )
    return float(worst)


def _cmd_validate(args) -> int:
    if args.samples < 1:
        raise ConfigError(f"--samples must be >= 1, got {args.samples}")
    rng = np.random.default_rng(args.seed)
    werner_dev = _closedform_deviation("werner", _werner_draws(rng, args.samples))
    bds_dev = _closedform_deviation("bds", _bds_draws(rng, max(1, args.samples // 10)))

    norm_dev = 0.0
    for _ in range(args.samples):
        n = int(rng.integers(1, 9))
        etas = rng.uniform(0.0, 1.0, size=n)
        direct = 1.0
        for eta in etas:
            direct *= 4.0 - 3.0 * eta
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

    swap = sub.add_parser("swap", help="single swap of two links")
    swap.add_argument("--family", required=True, choices=["werner", "bds"])
    swap.add_argument("--p", help="comma-separated link visibilities (werner)")
    swap.add_argument("--t", help="semicolon-separated correlation triples (bds), e.g. '(1,-1,1);(1,-1,1)'")
    swap.add_argument("--eta", type=float, default=1.0, help="measurement success probability")
    swap.add_argument("--mode", choices=["paper", "povm"], default="paper")
    swap.set_defaults(func=_cmd_swap)

    chain = sub.add_parser("chain", help="sequential swaps along a chain of links")
    chain.add_argument("--family", required=True, choices=["werner", "bds"])
    chain.add_argument("--p", help="comma-separated link visibilities (werner)")
    chain.add_argument("--t", help="semicolon-separated correlation triples (bds)")
    chain.add_argument("--etas", required=True, help="comma-separated per-node success probabilities")
    chain.add_argument("--mode", choices=["paper", "povm"], default="paper")
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

    validate = sub.add_parser("validate", help="cross-check closed forms against the density-matrix engine")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
