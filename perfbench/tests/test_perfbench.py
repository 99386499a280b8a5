"""Tests of the benchmark itself: short runs pass, perturbed outputs fail.

Run with:  python3 -m pytest perfbench/tests -q
"""

import copy
import io
import json
import math
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import calib  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from jscthermo import cli  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run_cli(op, tmp_path):
    docs = []
    path = workloads.write_spec(op, tmp_path)
    for argv in workloads.argvs_for(op, path):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0
        docs.append(json.loads(buf.getvalue()))
    return docs


def _bench(*args):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          cwd=REPO, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# short runs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_passes_and_reports_every_metric(workload):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    result = _bench("--workload", "phase-sweep", "--seed", "3", "--seconds", "0", "--trace", "1")
    assert result["correct"] is True
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["models.channel_phi.s"] > 0.0
    assert metrics["phases.combined_entropy.hit_ratio"] == 0.0
    assert metrics["oracle.exact_mi.s"] == 0.0
    trace = json.loads((BENCH / "results" / "trace-phase-sweep-seed3.json").read_text())
    assert {s["name"] for s in trace} >= {"cli.main", "phases.analyze", "models.channel_phi"}


def test_inputs_depend_only_on_seed_and_index():
    for name, workload in workloads.WORKLOADS.items():
        a = workload.make_op(5, 7)
        b = workload.make_op(5, 7)
        assert a.spec == b.spec and a.argvs == b.argvs, name
        assert workload.make_op(6, 7).spec != a.spec or name == "oracle"
    assert workloads.oracle_op(5, 7).argvs != workloads.oracle_op(6, 7).argvs


def test_without_source_tree_exits_nonzero_and_prints_nothing(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oracle",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# reference computations


def test_blahut_arimoto_matches_closed_forms():
    p = 0.2
    bsc = np.array([[1 - p, p], [p, 1 - p]])
    h2 = -p * math.log(p) - (1 - p) * math.log(1 - p)
    lo, hi, _ = checks.blahut_arimoto(bsc)
    assert lo <= math.log(2) - h2 + 1e-12 <= hi + 2e-12
    assert hi - lo <= checks.BA_GAP
    erasure = np.array([[0.7, 0.3, 0.0], [0.0, 0.3, 0.7]])
    lo, hi, _ = checks.blahut_arimoto(erasure)
    assert abs(lo - 0.7 * math.log(2)) < 1e-9


def test_boltzmann_rows_and_inf_energies():
    w = checks.boltzmann([[0.0, math.log(4.0)], [math.inf, 0.0]], 1.0)
    assert np.allclose(w, [[0.8, 0.2], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# each check rejects a perturbed output


@pytest.fixture(scope="module")
def sweep_cases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    cases = {}
    for i in range(len(workloads.SWEEP_ROUND)):
        op = workloads.sweep_op(11, i)
        ref = checks.rate_reference(op.params)
        if abs(ref["lam_c"] - ref["h_s"]) > 0.05:
            cases.setdefault("Ordered" if ref["lam_c"] > ref["h_s"] else "Paramagnetic",
                             (op, _run_cli(op, tmp)[0]["report"]))
    assert set(cases) == {"Ordered", "Paramagnetic"}
    return cases


def test_analyze_check_passes_and_rejects_perturbations(sweep_cases):
    for phase, (op, report) in sweep_cases.items():
        assert checks.check_analyze(op.params, report) == []
        bumped = dict(report, mi_rate=report["mi_rate"] + 1e-3)
        assert checks.check_analyze(op.params, bumped)
        other = "Paramagnetic" if phase == "Ordered" else "Ordered"
        assert checks.check_analyze(op.params, dict(report, phase=other))
        assert checks.check_analyze(op.params, dict(report, phase="Glassy"))


@pytest.fixture(scope="module")
def oracle_docs(tmp_path_factory):
    op = workloads.oracle_op(11, 0)
    return op, _run_cli(op, tmp_path_factory.mktemp("oracle"))


def test_oracle_check_passes_and_rejects_perturbations(oracle_docs):
    op, (exact, mc) = oracle_docs
    assert checks.check_oracle(op.params, exact, mc) == []

    def perturbed(doc, **fields):
        doc = copy.deepcopy(doc)
        doc["report"].update(fields)
        return doc

    er, mr = exact["report"], mc["report"]
    assert checks.check_oracle(op.params, perturbed(exact, mi_per_symbol=er["mi_per_symbol"] + 1e-3), mc)
    assert checks.check_oracle(op.params, perturbed(exact, h_s_given_y=er["h_s_given_y"] + 1e-6), mc)
    shifted = mr["mi_per_symbol"] + 10 * mr["stderr"]
    assert checks.check_oracle(op.params, exact, perturbed(mc, mi_per_symbol=shifted))
    assert checks.check_oracle(op.params, exact, dict(mc, theorem1_mi=mc["theorem1_mi"] + 1e-6))


@pytest.fixture(scope="module")
def wiretap_doc(tmp_path_factory):
    op = workloads.wiretap_op(11, 0)
    op.params["resolution"] = 200      # the check adapts its grid tolerance
    op.argvs = [["wiretap", "--resolution", "200"]]
    return op, _run_cli(op, tmp_path_factory.mktemp("wiretap"))[0]


def test_wiretap_check_passes_and_rejects_perturbations(wiretap_doc):
    op, doc = wiretap_doc
    assert checks.check_wiretap(op.params, doc) == []

    def changed(**fields):
        return checks.check_wiretap(op.params, dict(copy.deepcopy(doc), **fields))

    assert changed(max_main_rate=doc["max_main_rate"] + 1e-4)
    assert changed(tap_capacity=doc["tap_capacity"] - 1e-3)
    assert changed(c_s=doc["gamma_zero"] + 1e-6)
    table = copy.deepcopy(doc["gamma_table"])
    table[5]["gamma"] = table[4]["gamma"] + 1e-6
    assert changed(gamma_table=table)


# ---------------------------------------------------------------------------
# host gauge


def test_a_uniformly_slower_host_reports_the_same_figures():
    gauge = calib.Gauge("oracle")
    gauge.samples = [0.05, 0.07]
    calm = 1.2 * gauge.factor()
    gauge.samples = [0.10, 0.14]
    assert 2.4 * gauge.factor() == pytest.approx(calm, rel=1e-12)
    assert calm == pytest.approx(1.2 * calib.REFERENCE_S["oracle"] / 0.06)


def test_latency_metrics_take_rounds_as_the_unit_of_the_median():
    ref = [1.0, 1.2, 1.1, 1.3]
    one = run.latency_metrics(ref, 1)
    assert one["op_p50_s"] == (pytest.approx(1.15), "s")
    assert one["ops_per_s"] == (pytest.approx(4 / 4.6), "1/s")
    # rounds of two: the median of the round means 1.1 and 1.2
    assert run.latency_metrics(ref, 2)["op_p50_s"][0] == pytest.approx(1.15)
    assert run.latency_metrics(ref[:2] + [5.0, 5.0] + ref[2:], 2)["op_p50_s"][0] == pytest.approx(1.2)


def test_every_workload_and_set_up_has_a_kernel():
    assert set(calib.KINDS) == set(workloads.WORKLOADS) | {"setup"}
    assert set(calib.REFERENCE_S) == set(calib.KINDS)
    gauge = calib.Gauge("phase-sweep")
    assert gauge.sample() > 0 and len(gauge.samples) == 1


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_direct_children_only():
    recs = [spans.Span(0, 0, -1, "cli.main", 0.0, 10.0),
            spans.Span(0, 1, 0, "phases.analyze", 1.0, 9.0),
            spans.Span(0, 2, 1, "models.channel_phi", 2.0, 5.0),
            spans.Span(0, 3, 1, "tabulated.concave_envelope", 5.0, 6.0)]
    selfs = spans.self_times(recs)
    assert selfs == {0: 2.0, 1: 4.0, 2: 3.0, 3: 1.0}
    metrics = spans.layer_metrics(recs, [0])
    assert metrics["cli.self_s"][0] == 2.0
    assert metrics["phases.analyze.self_s"][0] == 4.0
    assert metrics["oracle.exact_mi.s"][0] == 0.0


def test_tracer_restores_the_original_functions():
    import jscthermo.phases as phases
    before = (cli.analyze, phases.channel_phi, phases.analyze)
    with spans.Tracer():
        assert cli.analyze is not before[0]
    assert (cli.analyze, phases.channel_phi, phases.analyze) == before
