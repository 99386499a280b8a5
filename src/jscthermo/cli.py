"""Command-line front end: analyze, sweep, simulate, wiretap, mac.

All commands read a JSON system description, run deterministically for a
given (spec, flags, seed), and emit JSON or CSV with stable field order and
17-significant-digit floats, so reruns are byte-identical.

Exit codes: 0 success, 2 malformed spec, 3 enumeration budget exceeded,
4 numerical failure (phase/root/feasibility preconditions).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from .applications import (
    equivocation_bound,
    gamma,
    mac_mi_user,
    mac_oracle,
    mac_phi_conditional_at,
    max_main_rate,
    secrecy_capacity,
    tap_capacity,
)
from .errors import (
    BoundarySolution,
    DegenerateFunction,
    EdgeDerivative,
    ImpossibleOutput,
    IncompatibleSupport,
    InfeasibleRate,
    InvalidTemperature,
    NotAboveCapacity,
    OutOfRange,
    PhaseMismatch,
    SpecError,
    TooLarge,
)
from .models import SystemSpec, channel_phi_at, zeta_prime_neg
from .oracle import (
    DEFAULT_ENUM_BUDGET,
    draw_code,
    ensemble_stats,
    exact_mi,
    mc_mi,
)
from .phases import analyze, mutual_information_rate
from .spec_json import (
    eavesdropper_from_dict,
    load_spec,
    mac_from_dict,
    system_from_dict,
    wiretap_from_dict,
)
from .tabulated import DEFAULT_GRID_SIZE

_NUMERIC_ERRORS = (BoundarySolution, DegenerateFunction, EdgeDerivative,
                   ImpossibleOutput, IncompatibleSupport, InfeasibleRate,
                   InvalidTemperature, NotAboveCapacity, OutOfRange,
                   PhaseMismatch)

_LN2 = math.log(2.0)

# nats per bit of each report field --bits converts: information rates take
# ln 2, and the across-seed variance of a rate takes ln 2 squared
_NATS_PER_BIT = dict.fromkeys((
    "mi_rate", "source_entropy", "sigma_at_eps0", "h_s", "h_s_given_y",
    "mi_per_symbol", "stderr", "theorem1_mi", "gap", "mi_mean",
    "h_s_given_y_mean", "c_s", "gamma", "gamma_zero", "max_main_rate",
    "tap_capacity", "equivocation", "mi_user_s", "phi_conditional",
    "phi_joint", "mi_s", "mi_t_given_s", "mi_joint", "rate"), _LN2)
_NATS_PER_BIT["mi_var"] = _LN2 ** 2


def _fmt(value) -> str:
    """Deterministic scalar rendering for CSV cells."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return format(value, ".17g")
    return str(value)


def _json_text(obj, indent: int = 0) -> str:
    """JSON with sorted keys and .17g floats; non-finite floats become null."""
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append(f"{pad}  {json.dumps(key)}: {_json_text(obj[key], indent + 2)}")
        body = ",\n".join(items)
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_text(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, (int, str)) or obj is None:
        return json.dumps(obj)
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _to_bits(payload, name: Optional[str] = None):
    """payload with every float under a field of _NATS_PER_BIT in bits."""
    if isinstance(payload, dict):
        return {k: _to_bits(v, k) for k, v in payload.items()}
    if isinstance(payload, list):
        return [_to_bits(v) for v in payload]
    if isinstance(payload, float) and name in _NATS_PER_BIT:
        return payload / _NATS_PER_BIT[name]
    return payload


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _report_dict(report) -> dict:
    return {
        "phase": report.phase.value,
        "epsilon0": report.epsilon0,
        "epsilon_star": report.epsilon_star,
        "channel_share": report.channel_share,
        "mi_rate": report.mi_rate,
        "source_entropy": report.source_entropy,
        "sigma_at_eps0": report.sigma_at_eps0,
    }

_REPORT_COLUMNS = ["phase", "epsilon0", "epsilon_star", "channel_share",
                   "mi_rate", "source_entropy", "sigma_at_eps0"]


def _emit(args, payload: dict, csv_header, csv_rows):
    if args.bits:
        payload = _to_bits(payload)
        csv_rows = [[_to_bits(v, name) for name, v in zip(csv_header, row)]
                    for row in csv_rows]
    payload["units"] = "bits" if args.bits else "nats"
    if args.format == "json":
        _write(args.out, _json_text(payload) + "\n")
    else:
        _write(args.out, _csv_text(csv_header, csv_rows))


def _cmd_analyze(args) -> int:
    system = system_from_dict(load_spec(args.spec))
    report = analyze(system, grid_size=args.grid)
    payload = {"command": "analyze", "report": _report_dict(report)}
    row = [_report_dict(report)[c] for c in _REPORT_COLUMNS]
    _emit(args, payload, _REPORT_COLUMNS, [row])
    return 0


def _set_axis(spec: dict, axis: str, value: float) -> dict:
    parts = axis.split(".")
    out = copy.deepcopy(spec)
    node = out
    for key in parts[:-1]:
        if not isinstance(node, dict) or key not in node:
            raise SpecError(axis, "sweep axis not present in the spec")
        node = node[key]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node \
            or isinstance(node[leaf], bool) or not isinstance(node[leaf], (int, float)):
        raise SpecError(axis, "sweep axis must name a numeric spec field")
    node[leaf] = value
    return out


def _cmd_sweep(args) -> int:
    if args.axis is None or args.start is None or args.stop is None or args.steps is None:
        raise SpecError("axis", "sweep needs --axis, --from, --to and --steps")
    if args.steps < 1:
        raise SpecError("steps", "need at least one step")
    spec = load_spec(args.spec)
    values = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for value in values:
        system = system_from_dict(_set_axis(spec, args.axis, float(value)))
        report = analyze(system, grid_size=args.grid)
        rows.append([float(value)] + [_report_dict(report)[c] for c in _REPORT_COLUMNS])
    header = ["axis_value"] + _REPORT_COLUMNS
    payload = {
        "command": "sweep",
        "axis": args.axis,
        "rows": [dict(zip(header, row)) for row in rows],
    }
    _emit(args, payload, header, rows)
    return 0


def _check_block_length(system: SystemSpec, n: int) -> None:
    """SpecError on 'n' unless lambda*n is a whole number of channel letters."""
    try:
        system.block_length(n)
    except ValueError as exc:
        raise SpecError("n", str(exc)) from None


def _cmd_simulate(args) -> int:
    if args.n < 1:
        raise SpecError("n", "need a block length of at least 1")
    if args.trials and args.trials < 100:
        raise SpecError("trials", "need at least 100 Monte Carlo trials")
    if args.seeds < 1:
        raise SpecError("seeds", "need at least one codebook seed")
    if args.seeds > 1 and args.trials:
        raise SpecError("trials", "cannot be combined with --seeds, whose aggregate "
                        "enumerates every codebook exactly")
    system = system_from_dict(load_spec(args.spec))
    _check_block_length(system, args.n)
    budget = args.budget
    formula_mi = mutual_information_rate(system)
    if args.seeds > 1:
        stats = ensemble_stats(system, args.n, args.seeds, args.seed, budget)
        gap = abs(stats.mi_mean - formula_mi)
        payload = {
            "command": "simulate", "mode": "exact-ensemble", "N": args.n,
            "seed": args.seed, "num_seeds": stats.num_seeds,
            "mi_mean": stats.mi_mean, "mi_var": stats.mi_var,
            "h_s_given_y_mean": stats.h_s_given_y_mean,
            "energy_split_source_mean": stats.energy_split_source_mean,
            "energy_split_channel_mean": stats.energy_split_channel_mean,
            "z_c_fraction_mean": stats.z_c_fraction_mean,
            "theorem1_mi": formula_mi, "gap": gap,
        }
        header = ["N", "num_seeds", "mi_mean", "mi_var", "theorem1_mi", "gap"]
        rows = [[args.n, stats.num_seeds, stats.mi_mean, stats.mi_var, formula_mi, gap]]
        _emit(args, payload, header, rows)
        return 0
    if args.trials:
        report = mc_mi(draw_code(system, args.n, args.seed, budget), args.trials, args.seed)
        mode = "mc"
    else:
        try:
            report = exact_mi(draw_code(system, args.n, args.seed, budget), budget)
        except TooLarge as exc:
            raise TooLarge(f"{exc}; rerun with --trials INT for Monte Carlo") from exc
        mode = "exact"
    gap = abs(report.mi_per_symbol - formula_mi)
    payload = {
        "command": "simulate", "mode": mode, "N": args.n, "seed": args.seed,
        "report": {
            "h_s": report.h_s, "h_s_given_y": report.h_s_given_y,
            "mi_per_symbol": report.mi_per_symbol, "stderr": report.stderr,
            "energy_split_source": report.energy_split_source,
            "energy_split_channel": report.energy_split_channel,
            "z_c_fraction": report.z_c_fraction,
        },
        "theorem1_mi": formula_mi, "gap": gap,
    }
    header = ["N", "seed", "mode", "h_s", "h_s_given_y", "mi_per_symbol",
              "stderr", "theorem1_mi", "gap"]
    rows = [[args.n, args.seed, mode, report.h_s, report.h_s_given_y,
             report.mi_per_symbol, report.stderr, formula_mi, gap]]
    _emit(args, payload, header, rows)
    return 0


def _cmd_wiretap(args) -> int:
    if args.resolution < 1:
        raise SpecError("resolution", "need at least 1 simplex step")
    if args.steps < 2:
        raise SpecError("steps", "the Gamma table needs at least 2 rates")
    spec = load_spec(args.spec)
    wt = wiretap_from_dict(spec)
    eaves = eavesdropper_from_dict(spec, wt)
    if wt.main_channel.in_size > 3:
        raise SpecError("wiretap.main", "capacities use the exhaustive simplex grid, "
                        "which covers at most 3 input letters")
    resolution = args.resolution
    c_s = secrecy_capacity(wt, resolution)
    g0 = gamma(wt, 0.0, resolution)
    cap = tap_capacity(wt, resolution)
    r_max = max_main_rate(wt, resolution)
    table = []
    for rate in np.linspace(0.0, r_max, args.steps):
        table.append({"rate": float(rate), "gamma": gamma(wt, float(rate), resolution).value})
    payload = {
        "command": "wiretap", "c_s": c_s, "gamma_zero": g0.value,
        "max_main_rate": r_max, "tap_capacity": cap,
        "gamma_table": table,
    }
    if eaves is not None:
        payload["equivocation"] = equivocation_bound(wt, eaves, resolution=resolution)
    header = ["rate", "gamma", "c_s"]
    rows = [[entry["rate"], entry["gamma"], c_s] for entry in table]
    _emit(args, payload, header, rows)
    return 0


def _cmd_mac(args) -> int:
    if args.n < 0:
        raise SpecError("n", "block length must be nonnegative")
    mac = mac_from_dict(load_spec(args.spec))
    combined = mac.combined_system()
    _check_block_length(combined, args.n)
    eps_c = zeta_prime_neg(combined)
    payload = {
        "command": "mac",
        "mi_user_s": mac_mi_user(mac),
        "eps_channel": eps_c,
        "phi_conditional": mac_phi_conditional_at(mac, eps_c).value,
        "phi_joint": channel_phi_at(combined, eps_c).value,
    }
    if args.n:
        report = mac_oracle(mac, args.n, args.seed, args.budget)
        payload["oracle"] = {
            "N": args.n, "seed": args.seed,
            "mi_s": report.mi_s, "mi_t_given_s": report.mi_t_given_s,
            "mi_joint": report.mi_joint,
        }
    header = ["mi_user_s", "eps_channel", "phi_conditional", "phi_joint"]
    rows = [[payload["mi_user_s"], eps_c, payload["phi_conditional"], payload["phi_joint"]]]
    _emit(args, payload, header, rows)
    return 0


def _budget(flag: Optional[int]) -> int:
    """--budget if given, else $JSC_BUDGET, else the default; never negative."""
    text = os.environ.get("JSC_BUDGET")
    try:
        budget = flag if flag is not None else int(text) if text else DEFAULT_ENUM_BUDGET
    except ValueError:
        raise SpecError("budget", f"JSC_BUDGET={text!r} is not an integer") from None
    if budget < 0:
        raise SpecError("budget", f"{budget} is negative")
    return budget


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jscthermo",
        description="Thermodynamic analysis of random joint source-channel codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, grid: bool = False):
        p.add_argument("--spec", required=True, help="JSON system description")
        p.add_argument("--out", default="-", help="output file, '-' for stdout")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--budget", type=int,
                       help="enumeration budget in (message, output) pairs")
        p.add_argument("--bits", action="store_true",
                       help="report information quantities in bits")
        if grid:   # only analyze reports depend on the tabulation
            p.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE,
                           help="grid size of the tabulated combined entropy; sets only the "
                                "resolution of epsilon0 and sigma_at_eps0")

    p = sub.add_parser("analyze", help="single-point phase and rate report")
    common(p, grid=True)

    p = sub.add_parser("sweep", help="one analyze row per axis value")
    common(p, grid=True)
    p.add_argument("--axis", help="dotted path of a numeric spec field, e.g. bsc.p")
    p.add_argument("--from", dest="start", type=float)
    p.add_argument("--to", dest="stop", type=float)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("simulate", help="finite-size oracle vs the rate formula")
    common(p)
    p.add_argument("--n", type=int, required=True, help="source block length N")
    p.add_argument("--seeds", type=int, default=1,
                   help="aggregate over this many derived codebook seeds")
    p.add_argument("--trials", type=int, default=0,
                   help="Monte Carlo trials instead of exact enumeration")

    p = sub.add_parser("wiretap", help="secrecy capacity and leakage curve")
    common(p)
    p.add_argument("--resolution", type=int, default=1000,
                   help="simplex grid steps per axis")
    p.add_argument("--steps", type=int, default=20, help="rate grid points")

    p = sub.add_parser("mac", help="per-user rate for the two-user channel")
    common(p)
    p.add_argument("--n", type=int, default=0,
                   help="also run the exact two-codebook oracle at this N")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "wiretap": _cmd_wiretap,
        "mac": _cmd_mac,
    }
    try:
        if "grid" in args and args.grid < 3:
            raise SpecError("grid", "need at least 3 grid points")
        args.budget = _budget(args.budget)
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except TooLarge as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
