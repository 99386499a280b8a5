"""Seeded inputs and operations for the three workloads.

An operation is a list of CLI argument vectors, run in order through
``jscthermo.cli.main`` in the benchmark's own process.  Input ``i`` of a
workload is a pure function of (seed, i), so every run with the same seed
replays the same sequence, however far it gets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

LAMBDAS = ((1, 3), (1, 2), (1, 1), (2, 1), (3, 1))

# phase-sweep cycles through every (source size, channel family) pair in a
# fixed order, so each whole round has the same make-up whatever the seed
SOURCE_SIZES = (2, 3, 4)
CHANNEL_FAMILIES = ("bsc", "circulant3", "circulant4", "erasure")
SWEEP_ROUND = tuple((k, fam) for k in SOURCE_SIZES for fam in CHANNEL_FAMILIES)

ORACLE_N = 12
ORACLE_TRIALS = 1000
# the calibrated system of tests/data/oracle_calibration.json
ORACLE_SPEC = {"binary_source": {"q": 0.5}, "bsc": {"p": 0.2},
               "ensemble": {"m": [0.5, 0.5]}, "lambda": {"num": 1, "den": 1}}
ORACLE_PARAMS = {"beta": 1.0, "source": [0.0, 0.0],
                 "channel": [[0.0, math.log(4.0)], [math.log(4.0), 0.0]],
                 "lam_num": 1, "lam_den": 1}

# a 125,751-point ternary simplex; the CLI default (1000, 501,501 points)
# takes 2-5 s an operation, too few in a run for a steady median
WIRETAP_RESOLUTION = 500


@dataclass
class Op:
    """One operation: CLI calls, the spec they read, and what checks them."""

    index: int
    params: dict
    spec: dict
    argvs: list = field(default_factory=list)


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _channel(family: str, beta: float, rng: np.random.Generator) -> list:
    """Output-symmetric channel energies; beta*E stays in [0.3, 4]."""
    if family == "bsc":
        e = rng.uniform(0.3, 4.0) / beta
        return [[0.0, e], [e, 0.0]]
    if family == "erasure":
        a = rng.uniform(-1.5, 2.5) / beta   # erasure probability 0.08 .. 0.82
        return [[0.0, a, math.inf], [math.inf, a, 0.0]]
    k = int(family[-1])
    row = [0.0] + list(rng.uniform(0.3, 4.0, size=k - 1) / beta)
    return [[row[(y - x) % k] for y in range(k)] for x in range(k)]


def _json_energy(value: float):
    return "inf" if math.isinf(value) else value


def sweep_op(seed: int, index: int) -> Op:
    rng = _rng(seed, index)
    k, family = SWEEP_ROUND[index % len(SWEEP_ROUND)]
    beta = float(rng.uniform(0.5, 2.0))
    source = list(rng.uniform(0.0, 3.0, size=k) / beta)
    channel = _channel(family, beta, rng)
    num, den = LAMBDAS[int(rng.integers(len(LAMBDAS)))]
    params = {"beta": beta, "source": source, "channel": channel,
              "lam_num": num, "lam_den": den}
    spec = {"source": {"hamiltonian": source, "beta": beta},
            "channel": {"hamiltonian": [[_json_energy(v) for v in row] for row in channel],
                        "beta": beta},
            "lambda": {"num": num, "den": den}}
    return Op(index, params, spec, [["analyze"]])


def oracle_op(seed: int, index: int) -> Op:
    code_seed = int(_rng(seed, index).integers(1 << 31))
    base = ["simulate", "--n", str(ORACLE_N), "--seed", str(code_seed)]
    return Op(index, dict(ORACLE_PARAMS, code_seed=code_seed), ORACLE_SPEC,
              [base, base + ["--trials", str(ORACLE_TRIALS)]])


def wiretap_op(seed: int, index: int) -> Op:
    rng = _rng(seed, index)
    main = rng.uniform(0.0, 3.0, size=(3, 3)).tolist()
    tap = rng.uniform(0.0, 3.0, size=(3, 3)).tolist()
    params = {"beta": 1.0, "main": main, "tap": tap,
              "resolution": WIRETAP_RESOLUTION}
    spec = {"wiretap": {"main": {"channel": {"hamiltonian": main, "beta": 1.0}},
                        "tap": {"channel": {"hamiltonian": tap, "beta": 1.0}},
                        "lambda": {"num": 1, "den": 1},
                        "source_entropy": math.log(2.0)}}
    return Op(index, params, spec, [["wiretap", "--resolution", str(WIRETAP_RESOLUTION)]])


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object        # (seed, index) -> Op
    round_size: int        # operations per whole round
    max_ops: int           # inputs generated at set-up; more than a run uses
    warmup_argvs: list     # run once, untimed, on input WARMUP_INDEX
    check: object          # (op, parsed outputs) -> list of problems

    def inputs(self, seed: int) -> list:
        return [self.make_op(seed, i) for i in range(self.max_ops)]

    def warmup(self, seed: int) -> Op:
        op = self.make_op(seed, WARMUP_INDEX)
        op.argvs = self.warmup_argvs
        return op


# Warm-ups load numpy code paths before timing; on oracle the warm-up also
# leaves the calibrated system's rate formula in the analysis cache, so the
# timed operations measure the oracle alone.
WARMUP_INDEX = 1 << 20
WORKLOADS = {
    "phase-sweep": Workload("phase-sweep", sweep_op, len(SWEEP_ROUND), 960,
                            [["analyze"]],
                            lambda op, docs: checks.check_analyze(op.params, docs[0]["report"])),
    "oracle": Workload("oracle", oracle_op, 1, 120,
                       [["simulate", "--n", "4"]],
                       lambda op, docs: checks.check_oracle(op.params, docs[0], docs[1])),
    "wiretap": Workload("wiretap", wiretap_op, 1, 60,
                        [["wiretap", "--resolution", "40", "--steps", "2"]],
                        lambda op, docs: checks.check_wiretap(op.params, docs[0])),
}


def write_spec(op: Op, directory: Path) -> Path:
    path = directory / f"spec-{op.index}.json"
    path.write_text(json.dumps(op.spec, sort_keys=True), encoding="utf-8")
    return path


def argvs_for(op: Op, path: Path) -> list:
    """Complete each argument vector with the spec path and stdout output."""
    return [[argv[0], "--spec", str(path), "--out", "-"] + argv[1:] for argv in op.argvs]
