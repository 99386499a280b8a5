"""CLI: commands, formats, determinism, exit codes, schema conformance."""

import ast
import copy
import importlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

from jscthermo import binary_convolution, binary_entropy
from jscthermo.cli import main

LN2 = math.log(2.0)

BSC_SPEC = {
    "binary_source": {"q": 0.5},
    "bsc": {"p": 0.1},
    "ensemble": {"m": [0.5, 0.5]},
    "lambda": {"num": 1, "den": 1},
}

NOISELESS_SPEC = {
    "binary_source": {"q": 0.5},
    "channel": {"hamiltonian": [[0.0, "inf"], ["inf", 0.0]], "beta": 1.0},
    "ensemble": {"m": [0.5, 0.5]},
    "lambda": {"num": 2, "den": 1},
}

WIRETAP_SPEC = {
    "wiretap": {
        "main": {"bsc": {"p": 0.05}},
        "tap": {"bsc": {"p": 0.1}},
        "lambda": {"num": 1, "den": 1},
        "binary_source": {"q": 0.5},
    }
}

EAVESDROPPER_SPEC = {
    "wiretap": dict(WIRETAP_SPEC["wiretap"], eavesdropper={
        "binary_source": {"q": 0.5}, "ensemble": {"m": [0.5, 0.5]}}),
}

MAC_SPEC = {
    "mac": {
        "source": {"hamiltonian": [0.0, 0.0], "beta": 2.1972245773362196},
        "source_t": {"hamiltonian": [0.0, 0.0], "beta": 2.1972245773362196},
        "ensemble": {"m": [0.8, 0.2]},
        "ensemble_t": {"m": [0.5, 0.5]},
        "channel3": [[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
        "beta": 2.1972245773362196,   # BSC(0.1) temperature
        "lambda": {"num": 1, "den": 1},
    }
}

# lambda = 1/2: an odd N leaves half a channel letter
HALF_RATE_SPEC = dict(BSC_SPEC, **{"lambda": {"num": 1, "den": 2}})
HALF_RATE_MAC_SPEC = {"mac": dict(MAC_SPEC["mac"], **{"lambda": {"num": 1, "den": 2}})}


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def schema_validator(name):
    jsonschema = pytest.importorskip("jsonschema")
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "schema", name), encoding="utf-8") as fh:
        schema = json.load(fh)
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema).validate


@pytest.fixture()
def report_schema():
    return schema_validator("report.json")


class TestAnalyze:
    def test_bsc_point(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, BSC_SPEC)
        out = tmp_path / "out.json"
        assert run(["analyze", "--spec", spec, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        rep = payload["report"]
        assert rep["phase"] == "Paramagnetic"
        assert rep["mi_rate"] == pytest.approx(LN2 - binary_entropy(0.1), abs=1e-9)

    def test_half_crossover_gives_zero_rate(self, tmp_path):
        spec = write_spec(tmp_path, {**BSC_SPEC, "bsc": {"p": 0.5}})
        out = tmp_path / "out.json"
        assert run(["analyze", "--spec", spec, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["mi_rate"] == 0.0

    def test_missing_lambda_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"binary_source": {"q": 0.5}, "bsc": {"p": 0.1}})
        assert run(["analyze", "--spec", spec, "--out", "-"]) == 2
        assert "lambda" in capsys.readouterr().err

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        assert run(["analyze", "--spec", str(path), "--out", "-"]) == 2

    @pytest.mark.parametrize("content, field", [
        (b'{"bsc": "\xff"}', "'json'"), (None, "'spec'"),
    ], ids=["not-utf8", "directory"])
    def test_unreadable_spec_exits_2(self, tmp_path, capsys, content, field):
        path = tmp_path / "bad.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert run(["analyze", "--spec", str(path), "--out", "-"]) == 2
        assert field in capsys.readouterr().err

    def test_csv_header(self, tmp_path):
        spec = write_spec(tmp_path, BSC_SPEC)
        out = tmp_path / "out.csv"
        assert run(["analyze", "--spec", spec, "--out", str(out), "--format", "csv"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("phase,epsilon0,epsilon_star,channel_share,"
                            "mi_rate,source_entropy,sigma_at_eps0")
        assert lines[1].startswith("Paramagnetic,")

    def test_bits_flag_rescales(self, tmp_path):
        spec = write_spec(tmp_path, BSC_SPEC)
        nats, bits = tmp_path / "n.json", tmp_path / "b.json"
        run(["analyze", "--spec", spec, "--out", str(nats)])
        run(["analyze", "--spec", spec, "--out", str(bits), "--bits"])
        rep_n = json.loads(nats.read_text())
        rep_b = json.loads(bits.read_text())
        assert rep_b["units"] == "bits"
        assert rep_b["report"]["mi_rate"] == pytest.approx(
            rep_n["report"]["mi_rate"] / LN2, abs=1e-12)
        # energies are not information rates and stay untouched
        assert rep_b["report"]["channel_share"] == rep_n["report"]["channel_share"]


class TestSweep:
    def test_single_transition(self, tmp_path):
        spec = write_spec(tmp_path, {**BSC_SPEC, "lambda": {"num": 2, "den": 1}})
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--spec", spec, "--out", str(out), "--format", "csv",
                    "--axis", "bsc.p", "--from", "0.02", "--to", "0.3",
                    "--steps", "15", "--grid", "1025"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("axis_value,phase,")
        phases = [ln.split(",")[1] for ln in lines[1:]]
        flips = [i for i in range(1, len(phases)) if phases[i] != phases[i - 1]]
        assert phases[0] == "Ordered"
        assert phases[-1] == "Paramagnetic"
        assert len(flips) == 1

    def test_one_step_one_row(self, tmp_path):
        spec = write_spec(tmp_path, BSC_SPEC)
        out = tmp_path / "one.csv"
        assert run(["sweep", "--spec", spec, "--out", str(out), "--format", "csv",
                    "--axis", "bsc.p", "--from", "0.2", "--to", "0.2",
                    "--steps", "1", "--grid", "1025"]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        spec = write_spec(tmp_path, BSC_SPEC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--spec", spec, "--format", "csv", "--axis", "bsc.p",
                "--from", "0.05", "--to", "0.45", "--steps", "5", "--grid", "1025"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_axis_exits_2(self, tmp_path):
        spec = write_spec(tmp_path, BSC_SPEC)
        assert run(["sweep", "--spec", spec, "--out", "-", "--axis", "bsc.nope",
                    "--from", "0.1", "--to", "0.2", "--steps", "2"]) == 2


class TestSimulate:
    def test_exact_mode_deterministic(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, BSC_SPEC)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["simulate", "--spec", spec, "--n", "4", "--seed", "7"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        payload = json.loads(a.read_text())
        report_schema(payload)
        assert payload["mode"] == "exact"

    def test_noiseless_gap_vanishes(self, tmp_path):
        spec = write_spec(tmp_path, NOISELESS_SPEC)
        out = tmp_path / "out.json"
        assert run(["simulate", "--spec", spec, "--n", "3", "--seed", "0",
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["gap"] <= 1e-13

    def test_budget_exhaustion_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BSC_SPEC)
        assert run(["simulate", "--spec", spec, "--n", "8", "--seed", "0",
                    "--budget", "1000", "--out", "-"]) == 3
        assert "trials" in capsys.readouterr().err

    def test_budget_bounds_the_monte_carlo_codebook(self, tmp_path, capsys):
        spec = write_spec(tmp_path, BSC_SPEC)
        assert run(["simulate", "--spec", spec, "--n", "10", "--seed", "0",
                    "--trials", "100", "--budget", "100", "--out", "-"]) == 3
        assert "exceeds budget 100" in capsys.readouterr().err

    def test_env_budget_override(self, tmp_path, monkeypatch):
        spec = write_spec(tmp_path, BSC_SPEC)
        monkeypatch.setenv("JSC_BUDGET", "1000")
        assert run(["simulate", "--spec", spec, "--n", "8", "--seed", "0",
                    "--out", "-"]) == 3
        monkeypatch.delenv("JSC_BUDGET")
        out = tmp_path / "ok.json"
        assert run(["simulate", "--spec", spec, "--n", "8", "--seed", "0",
                    "--out", str(out)]) == 0

    def test_monte_carlo_mode(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, BSC_SPEC)
        out = tmp_path / "mc.json"
        # 4096 pairs hold the 256x8 codebook but not the 256x256 enumeration
        assert run(["simulate", "--spec", spec, "--n", "8", "--seed", "3",
                    "--trials", "400", "--budget", "4096", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        assert payload["mode"] == "mc"
        assert payload["report"]["stderr"] > 0.0

    def test_seed_ensemble_mode(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, BSC_SPEC)
        out = tmp_path / "agg.json"
        assert run(["simulate", "--spec", spec, "--n", "4", "--seed", "1",
                    "--seeds", "8", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        assert payload["num_seeds"] == 8

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_bits_converts_rates_and_their_variance_only(self, tmp_path, fmt):
        spec = write_spec(tmp_path, BSC_SPEC)
        reports = []
        for units in ([], ["--bits"]):
            out = tmp_path / f"{len(units)}.{fmt}"
            assert run(["simulate", "--spec", spec, "--n", "4", "--seeds", "5",
                        "--format", fmt, "--out", str(out)] + units) == 0
            text = out.read_text()
            if fmt == "json":
                reports.append(json.loads(text))
            else:
                header, row = text.splitlines()
                reports.append({k: float(v) for k, v in zip(header.split(","), row.split(","))})
        nats, bits = reports
        assert bits["mi_mean"] == pytest.approx(nats["mi_mean"] / LN2, rel=1e-15)
        # a variance of nats is a variance of bits times (ln 2)^2
        assert bits["mi_var"] == pytest.approx(nats["mi_var"] / LN2 ** 2, rel=1e-15)
        if fmt == "json":
            # the posterior mass on the truth is a probability, not a rate
            assert bits["z_c_fraction_mean"] == nats["z_c_fraction_mean"]

    @pytest.mark.filterwarnings("error")
    def test_zero_prior_symbol_warns_nothing(self, tmp_path):
        # P(s=1) = exp(-800) underflows to 0
        spec = write_spec(tmp_path, {
            "source": {"hamiltonian": [0.0, 800.0], "beta": 1.0},
            "bsc": {"p": 0.05}, "lambda": {"num": 1, "den": 1}})
        for extra in ([], ["--seeds", "3"], ["--trials", "100"]):
            assert run(["simulate", "--spec", spec, "--n", "4", "--out", "-"] + extra) == 0


class TestWiretap:
    def test_identity_tap(self, tmp_path, report_schema):
        spec_obj = {"wiretap": {
            "main": {"bsc": {"p": 0.05}},
            "tap": {"channel": {"hamiltonian": [[0.0, "inf"], ["inf", 0.0]], "beta": 1.0}},
            "lambda": {"num": 1, "den": 1},
            "source_entropy": LN2,
        }}
        spec = write_spec(tmp_path, spec_obj)
        out = tmp_path / "wt.json"
        assert run(["wiretap", "--spec", spec, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        assert payload["c_s"] == 0.0

    def test_degraded_pair(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, WIRETAP_SPEC)
        out = tmp_path / "wt.json"
        assert run(["wiretap", "--spec", spec, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        expected = binary_entropy(binary_convolution(0.05, 0.1)) - binary_entropy(0.05)
        assert payload["c_s"] == pytest.approx(expected, abs=1e-6)
        gammas = [row["gamma"] for row in payload["gamma_table"]]
        assert all(a >= b - 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_csv_table(self, tmp_path):
        spec = write_spec(tmp_path, WIRETAP_SPEC)
        out = tmp_path / "wt.csv"
        assert run(["wiretap", "--spec", spec, "--out", str(out),
                    "--format", "csv", "--steps", "5"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rate,gamma,c_s"
        assert len(lines) == 6

    def test_bits_converts_the_rate_axis_with_gamma(self, tmp_path):
        spec = write_spec(tmp_path, WIRETAP_SPEC)
        tables = []
        for units in ([], ["--bits"]):
            out = tmp_path / f"{len(units)}.csv"
            assert run(["wiretap", "--spec", spec, "--out", str(out), "--format", "csv",
                        "--steps", "3", "--resolution", "50"] + units) == 0
            tables.append([float(v) for row in out.read_text().splitlines()[1:]
                           for v in row.split(",")])
        nats, bits = tables
        assert bits == pytest.approx([v / LN2 for v in nats], rel=1e-15)

    def test_eavesdropper_rerun_is_byte_identical(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, EAVESDROPPER_SPEC)
        outs = [tmp_path / "a.json", tmp_path / "b.json"]
        for out in outs:
            assert run(["wiretap", "--spec", spec, "--out", str(out), "--steps", "3",
                        "--resolution", "50"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        payload = json.loads(outs[0].read_text())
        report_schema(payload)
        # a fair code above the cascade's capacity leaves H(S|Z) = h2(0.05 * 0.1)
        assert payload["equivocation"] == pytest.approx(
            binary_entropy(binary_convolution(0.05, 0.1)), abs=1e-9)

    @pytest.mark.parametrize("key, value", [
        ("lambda", {"num": 3, "den": 1}),
        ("bsc", {"p": 0.4}),
        ("channel", {"hamiltonian": [[0.0, 1.0], [1.0, 0.0]], "beta": 1.0}),
    ])
    def test_eavesdropper_takes_no_channel_or_lambda(self, tmp_path, capsys, key, value):
        # the cascade fixes the eavesdropper's channel and the wiretap its lambda
        spec = copy.deepcopy(EAVESDROPPER_SPEC)
        spec["wiretap"]["eavesdropper"][key] = value
        path = write_spec(tmp_path, spec)
        assert run(["wiretap", "--spec", path, "--out", "-"]) == 2
        assert f"'wiretap.eavesdropper.{key}'" in capsys.readouterr().err


class TestMac:
    def test_hidden_partner_and_oracle(self, tmp_path, report_schema):
        spec = write_spec(tmp_path, MAC_SPEC)
        out = tmp_path / "mac.json"
        assert run(["mac", "--spec", spec, "--out", str(out), "--n", "3",
                    "--seed", "2"]) == 0
        payload = json.loads(out.read_text())
        report_schema(payload)
        assert payload["mi_user_s"] == pytest.approx(0.0, abs=1e-9)
        oracle = payload["oracle"]
        assert oracle["mi_joint"] == pytest.approx(
            oracle["mi_s"] + oracle["mi_t_given_s"], abs=1e-12)

    def test_phase_violation_exits_4(self, tmp_path):
        bad = {"mac": {**MAC_SPEC["mac"]}}
        bad["mac"]["channel3"] = [[[0.0, "inf"], ["inf", 0.0]],
                                  [["inf", 0.0], [0.0, "inf"]]]
        bad["mac"]["lambda"] = {"num": 4, "den": 1}
        spec = write_spec(tmp_path, bad)
        assert run(["mac", "--spec", spec, "--out", "-"]) == 4

    def test_oracle_budget_exhaustion_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path, MAC_SPEC)
        assert run(["mac", "--spec", spec, "--n", "8", "--budget", "1000",
                    "--out", "-"]) == 3
        assert "exceeds budget" in capsys.readouterr().err


class TestDeterminismAcrossCommands:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_all_commands_byte_identical(self, tmp_path, fmt):
        bsc = write_spec(tmp_path, BSC_SPEC, "bsc.json")
        wt = write_spec(tmp_path, WIRETAP_SPEC, "wt.json")
        mac = write_spec(tmp_path, MAC_SPEC, "mac.json")
        commands = [
            ["analyze", "--spec", bsc, "--grid", "1025"],
            ["sweep", "--spec", bsc, "--axis", "bsc.p", "--from", "0.1",
             "--to", "0.4", "--steps", "3", "--grid", "1025"],
            ["simulate", "--spec", bsc, "--n", "4", "--seed", "7"],
            ["wiretap", "--spec", wt, "--steps", "5"],
            ["mac", "--spec", mac, "--n", "2", "--seed", "3"],
        ]
        for i, args in enumerate(commands):
            a = tmp_path / f"{i}a.{fmt}"
            b = tmp_path / f"{i}b.{fmt}"
            assert run(args + ["--format", fmt, "--out", str(a)]) == 0
            assert run(args + ["--format", fmt, "--out", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()


WIRETAP_4_SPEC = {
    "wiretap": {
        "main": {"channel": {"hamiltonian": [[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0],
                                             [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]],
                             "beta": 1.0}},
        "tap": {"channel": {"hamiltonian": [[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0, 2.0],
                                            [2.0, 1.0, 0.0, 1.0], [3.0, 2.0, 1.0, 0.0]],
                            "beta": 1.0}},
        "lambda": {"num": 1, "den": 1},
        "source_entropy": 0.5,
    }
}


class TestDocumentedExitCodes:
    @pytest.mark.parametrize("args, spec, field", [
        pytest.param(["analyze", "--grid", "2"], BSC_SPEC, "grid", id="grid-2"),
        pytest.param(["simulate", "--n", "0"], BSC_SPEC, "'n'", id="n-0"),
        pytest.param(["simulate", "--n", "4", "--trials", "50"], BSC_SPEC, "trials",
                     id="trials-50"),
        pytest.param(["wiretap", "--resolution", "10"], WIRETAP_4_SPEC, "simplex grid",
                     id="wiretap-4-inputs"),
        pytest.param(["wiretap", "--resolution", "0"], WIRETAP_SPEC, "resolution",
                     id="resolution-0"),
        pytest.param(["mac", "--n", "-1"], MAC_SPEC, "'n'", id="mac-n-negative"),
        pytest.param(["simulate", "--n", "3"], HALF_RATE_SPEC, "'n'", id="n-not-multiple"),
        pytest.param(["simulate", "--n", "3", "--trials", "200"], HALF_RATE_SPEC, "'n'",
                     id="n-not-multiple-trials"),
        pytest.param(["simulate", "--n", "3", "--seeds", "2"], HALF_RATE_SPEC, "'n'",
                     id="n-not-multiple-seeds"),
        pytest.param(["mac", "--n", "3"], HALF_RATE_MAC_SPEC, "'n'", id="mac-n-not-multiple"),
        pytest.param(["wiretap", "--steps", "0"], WIRETAP_SPEC, "steps", id="steps-0"),
        pytest.param(["wiretap", "--steps", "-3"], WIRETAP_SPEC, "steps", id="steps-negative"),
        pytest.param(["simulate", "--n", "4", "--seeds", "0"], BSC_SPEC, "seeds", id="seeds-0"),
        pytest.param(["simulate", "--n", "4", "--seeds", "-2"], BSC_SPEC, "seeds",
                     id="seeds-negative"),
        pytest.param(["simulate", "--n", "4", "--budget", "-5"], BSC_SPEC, "budget",
                     id="budget-negative"),
        # --seeds aggregates exact enumerations; it used to drop --trials silently
        pytest.param(["simulate", "--n", "4", "--seeds", "2", "--trials", "200"], BSC_SPEC,
                     "'trials'", id="seeds-with-trials"),
        # Python's json reads NaN and Infinity; a spec must not pass them on
        pytest.param(["analyze"], {**BSC_SPEC, "channel": {
            "hamiltonian": [[0.0, 1.0], [1.0, 0.0]], "beta": math.inf}}, "'channel.beta'",
            id="channel-beta-infinity"),
        pytest.param(["analyze"], {**BSC_SPEC, "source": {
            "hamiltonian": [0.0, 0.5], "beta": math.nan}}, "'source.beta'",
            id="source-beta-nan"),
        pytest.param(["analyze"], {**BSC_SPEC, "binary_source": {"q": 0.5, "kT": math.inf}},
                     "'binary_source.kT'", id="binary-source-kt-infinity"),
        pytest.param(["analyze"], {**BSC_SPEC, "bsc": {"p": 0.1, "kT": math.nan}}, "'bsc.kT'",
                     id="bsc-kt-nan"),
        # 1/kT overflows to an infinite beta
        pytest.param(["analyze"], {**BSC_SPEC, "binary_source": {"q": 0.5, "kT": 5e-324}},
                     "'binary_source'", id="binary-source-kt-subnormal"),
        pytest.param(["analyze"], {**BSC_SPEC, "ensemble": {"m": [math.nan, 0.5]}},
                     "'ensemble.m'", id="ensemble-nan"),
        pytest.param(["mac"], {"mac": {**MAC_SPEC["mac"], "beta": math.nan}}, "'mac.beta'",
                     id="mac-beta-nan"),
        pytest.param(["wiretap"], {"wiretap": {**WIRETAP_SPEC["wiretap"],
                                               "source_entropy": math.nan}},
                     "'wiretap.source_entropy'", id="source-entropy-nan"),
        # numbers are JSON numbers: numeric strings and JSON's Infinity are refused
        pytest.param(["analyze"], {**BSC_SPEC, "source": {"hamiltonian": ["0", 0.5], "beta": 1.0}},
                     "'source.hamiltonian'", id="source-energy-string"),
        pytest.param(["analyze"], {**BSC_SPEC, "channel": {
            "hamiltonian": [[0.0, "0.5"], [0.5, 0.0]], "beta": 1.0}}, "'channel.hamiltonian'",
            id="channel-energy-string"),
        pytest.param(["analyze"], {**BSC_SPEC, "channel": {
            "hamiltonian": [[0.0, math.inf], [math.inf, 0.0]], "beta": 1.0}},
            "'channel.hamiltonian'", id="channel-energy-infinity"),
        pytest.param(["mac"], {"mac": {**MAC_SPEC["mac"], "channel3": [
            [[0.0, "1"], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]]}}, "'mac.channel3'",
            id="channel3-string"),
        # blocks that are not objects
        pytest.param(["wiretap"], [WIRETAP_SPEC], "'spec'", id="wiretap-top-level-array"),
        pytest.param(["mac"], [MAC_SPEC], "'spec'", id="mac-top-level-array"),
        pytest.param(["wiretap"], {"wiretap": 5}, "'wiretap'", id="wiretap-number"),
        pytest.param(["wiretap"], {"wiretap": dict(WIRETAP_SPEC["wiretap"], main=5)},
                     "'wiretap.main'", id="wiretap-main-number"),
        pytest.param(["mac"], {"mac": 3}, "'mac'", id="mac-number"),
        pytest.param(["wiretap"], {"wiretap": dict(WIRETAP_SPEC["wiretap"], eavesdropper=5)},
                     "'wiretap.eavesdropper'", id="eavesdropper-number"),
        # at so small a beta the cascade's energies -ln W / beta overflow
        pytest.param(["wiretap", "--resolution", "8"], {"wiretap": dict(
            WIRETAP_SPEC["wiretap"], eavesdropper={"source": {"hamiltonian": [0.0, 1.0],
                                                              "beta": 1e-310}})},
            "'wiretap.eavesdropper'", id="eavesdropper-beta-underflow"),
        # finite energies whose span passes the largest double cannot be
        # shifted to a zero minimum
        pytest.param(["analyze"], {**BSC_SPEC, "source": {"hamiltonian": [1e308, -1e308],
                                                          "beta": 1.0}},
                     "'source.hamiltonian'", id="source-energy-span-overflow"),
        pytest.param(["analyze"], {**BSC_SPEC, "channel": {
            "hamiltonian": [[1e308, -1e308], [0.0, 1.0]], "beta": 1.0}},
            "'channel.hamiltonian'", id="channel-energy-span-overflow"),
    ])
    def test_bad_size_exits_2(self, tmp_path, capsys, args, spec, field):
        path = write_spec(tmp_path, spec)
        assert run(args + ["--spec", path, "--out", "-"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_eavesdropper_beta_underflow_warns_nothing(self, tmp_path, capsys):
        # -ln W / beta overflows; that is a spec error, not a numpy warning
        spec = {"wiretap": dict(WIRETAP_SPEC["wiretap"], eavesdropper={
            "source": {"hamiltonian": [0.0, 1.0], "beta": 1e-310}})}
        path = write_spec(tmp_path, spec)
        assert run(["wiretap", "--resolution", "8", "--spec", path, "--out", "-"]) == 2
        assert "'wiretap.eavesdropper'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, text, field", [
        pytest.param("analyze", '{"binary_source": {"q": 0.5}, "lambda": {"num": 1, "den": 1}, '
                     '"channel": {"hamiltonian": [[0, 1e400], [1, 0]], "beta": 1}}',
                     "'channel.hamiltonian'", id="channel"),
        pytest.param("mac", json.dumps(MAC_SPEC).replace("[[[0.0, 1.0]", "[[[0.0, 1e400]"),
                     "'mac.channel3'", id="channel3"),
    ])
    def test_overflowing_energy_exits_2(self, tmp_path, capsys, command, text, field):
        # 1e400 reads as an infinite float; only the string "inf" forbids a transition
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        assert run([command, "--spec", str(path), "--out", "-"]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ["--n", "2"]), ("wiretap", []), ("mac", []),
    ])
    def test_grid_belongs_to_analyze_and_sweep(self, tmp_path, capsys, command, extra):
        path = write_spec(tmp_path, BSC_SPEC)
        with pytest.raises(SystemExit) as exc:
            run([command, "--spec", path, "--grid", "1025"] + extra)
        assert exc.value.code == 2
        assert "--grid" in capsys.readouterr().err

    def test_non_integer_env_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("JSC_BUDGET", "abc")
        path = write_spec(tmp_path, BSC_SPEC)
        assert run(["analyze", "--spec", path, "--out", "-"]) == 2
        assert "spec error: spec field 'budget'" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    import jscthermo
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(jscthermo.__file__))))
    code = "import sys, jscthermo.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_traced_names_resolve_after_cli_import():
    # perfbench's tracer wraps these attributes by name; a refactor that drops
    # one would stop a traced benchmark run with an AttributeError
    import jscthermo.cli  # noqa: F401
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "spans.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    patches = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["PATCHES"])
    pairs = [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1]))
             for row in patches.elts]
    assert len(pairs) >= 10
    for module_name, attr in pairs:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            (module_name, attr)
    # phases.combined_entropy.hit_ratio reads the cache statistics of this name
    cache = getattr(importlib.import_module("jscthermo.phases"), "_combined_entropy", None)
    assert callable(getattr(cache, "cache_info", None))


@pytest.mark.parametrize("c", [1e-13, 1.0, 1e6, 1e13])
class TestSharedTemperatureAtEveryScale:
    # (E, beta) -> (cE, beta/c): the shared-beta check must not depend on c

    @staticmethod
    def spec(c, channel_beta):
        return {"source": {"hamiltonian": [0.0, 0.7 * c], "beta": 1.0 / c},
                "channel": {"hamiltonian": [[0.0, 1.5 * c], [1.5 * c, 0.0]],
                            "beta": channel_beta},
                "lambda": {"num": 1, "den": 1}}

    def test_threefold_mismatch_exits_2(self, tmp_path, capsys, c):
        path = write_spec(tmp_path, self.spec(c, 3.0 / c))
        assert run(["analyze", "--spec", path, "--out", "-"]) == 2
        assert "share one inverse temperature" in capsys.readouterr().err

    def test_rounding_mismatch_is_accepted(self, tmp_path, c):
        path = write_spec(tmp_path, self.spec(c, (1.0 + 5e-13) / c))
        out = tmp_path / "out.json"
        assert run(["analyze", "--spec", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["report"]["phase"] in ("Ordered", "Paramagnetic")


FOUR_LETTER_SPEC = {
    "source": {"hamiltonian": [0.0, 0.3, 0.9, 1.4], "beta": 1.2},
    "channel": {"hamiltonian": [[0.0, 1.0, "inf"], ["inf", 0.5, 0.0]], "beta": 1.2},
    "ensemble": {"m": [0.5, 0.5]},
    "lambda": {"num": 3, "den": 2},
}

# base spec and the command that reads it
MUTATION_BASES = {
    "bsc": (BSC_SPEC, ["analyze"]),
    "four-letter": (FOUR_LETTER_SPEC, ["analyze"]),
    "eavesdropper": (EAVESDROPPER_SPEC, ["wiretap", "--resolution", "8", "--steps", "2"]),
    "mac": (MAC_SPEC, ["mac"]),
}


def json_type(value) -> str:
    for kind, types in (("boolean", bool), ("number", (int, float)), ("string", str),
                        ("array", list), ("object", dict)):
        if isinstance(value, types):
            return kind
    return "null"


def mutations(spec):
    """(keys, replacement, is a type swap) for every node of spec, root included:
    each value of another JSON type, and Infinity and NaN for each number."""
    nodes = [((), spec)]
    for keys, node in nodes:
        children = node.items() if isinstance(node, dict) else \
            enumerate(node) if isinstance(node, list) else ()
        nodes += [(keys + (k,), child) for k, child in children]
        for new in (5, "x", True, None, [], {}):
            if json_type(new) != json_type(node):
                yield keys, new, True
        if json_type(node) == "number":
            yield keys, math.inf, False
            yield keys, math.nan, False


def value_at(spec, keys):
    for key in keys:
        spec = spec[key]
    return spec


def replaced(spec, keys, new):
    if not keys:
        return new
    out = copy.deepcopy(spec)
    node = out
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = new
    return out


class TestEveryMalformedNodeExits2:
    """One node at a time swapped for a value it may not hold: the reader must
    exit 2 and name the node, a block enclosing it, or a member missing from
    the replacement.  A number for a channel's "inf" is the one valid swap."""

    @pytest.mark.parametrize("base", sorted(MUTATION_BASES))
    def test_mutated_spec_names_its_field(self, tmp_path, capsys, base):
        spec, command = MUTATION_BASES[base]
        wrong = []
        for keys, new, _ in mutations(spec):
            path = write_spec(tmp_path, replaced(spec, keys, new))
            code = run(command + ["--spec", path, "--out", os.devnull])
            err = capsys.readouterr().err
            node = ".".join(k for k in keys if isinstance(k, str)) or "spec"
            if new == 5 and value_at(spec, keys) == "inf":
                ok = code == 0
            else:
                named = re.search(r"spec field '([^']*)'", err)
                field = named.group(1) if named else None
                ok = code == 2 and field is not None and (
                    field == node or node.startswith(field + ".")
                    or field.startswith(node + "."))
            if not ok:
                wrong.append((keys, new, code, err.strip()[-120:]))
        assert wrong == []

    @pytest.mark.parametrize("base", sorted(MUTATION_BASES))
    def test_schema_refuses_every_type_swap(self, base):
        # the schema and the reader agree on what a spec may hold
        jsonschema = pytest.importorskip("jsonschema")
        validate = schema_validator("systemspec.json")
        spec = MUTATION_BASES[base][0]
        validate(spec)
        accepted = []
        for keys, new, type_swap in mutations(spec):
            if type_swap and not (new == 5 and value_at(spec, keys) == "inf"):
                try:
                    validate(replaced(spec, keys, new))
                    accepted.append((keys, new))
                except jsonschema.ValidationError:
                    pass
        assert accepted == []
