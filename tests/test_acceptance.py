"""Acceptance suite: one test per shipped guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each test also asserts, so a plain pytest run fails loudly.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from jscthermo import (
    ChannelSpec,
    EnsembleSpec,
    MacChannelSpec,
    MacSpec,
    Phase,
    SourceSpec,
    SystemSpec,
    WiretapSpec,
    analyze,
    bias_from_field,
    binary_convolution,
    binary_entropy,
    channel_phi,
    classify_phase,
    crossover_from_energy,
    energy_from_crossover,
    ensemble_stats,
    field_from_bias,
    gamma,
    legendre_inf,
    mac_mi_user,
    mac_oracle,
    mi_rate_alternative,
    mutual_information_rate,
    secrecy_capacity,
    solve_equilibrium,
    spin_dominant_energy,
    sup_transform_table,
    two_level_dominant_energy,
    total_entropy,
    zeta,
    zeta_prime_neg,
)
from jscthermo.cli import main as cli_main
from jscthermo.tabulated import ConcaveFunction, TabulatedFunction

LN2 = math.log(2.0)
h2 = binary_entropy
conv = binary_convolution

P_GRID = (0.05, 0.1, 0.2, 0.3, 0.45)
LAMBDAS = (1, 2)


def report_line(num: int, ok: bool, detail: str):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


def fair_bsc_system(p, lam=1, m=0.5, alphabet=4):
    """High-entropy uniform source so the whole p-grid stays paramagnetic."""
    beta = math.log((1.0 - p) / p)
    return SystemSpec(SourceSpec(np.zeros(alphabet), beta),
                      ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                      EnsembleSpec(np.array([1.0 - m, m])), Fraction(lam))


def uniform_binary_bsc(p, lam=1, m=0.5):
    return fair_bsc_system(p, lam=lam, m=m, alphabet=2)


def bsc_channel(p):
    if p == 0.0:
        return ChannelSpec(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1.0)
    e0 = math.log((1.0 - p) / p)
    return ChannelSpec(np.array([[0.0, e0], [e0, 0.0]]), 1.0)


def additive_mac(m_s, m_t, p, lam=1):
    beta = math.log((1.0 - p) / p)
    energies = np.zeros((2, 2, 2))
    for x_s in range(2):
        for x_t in range(2):
            for y in range(2):
                energies[x_s, x_t, y] = 1.0 if (x_s ^ x_t) != y else 0.0
    return MacSpec(SourceSpec(np.zeros(2), beta), SourceSpec(np.zeros(2), beta),
                   EnsembleSpec(np.array([1.0 - m_s, m_s])),
                   EnsembleSpec(np.array([1.0 - m_t, m_t])),
                   MacChannelSpec(energies, beta), Fraction(lam))


def test_criterion_01_fair_coin_rate_formula():
    worst_err = 0.0
    worst_time = 0.0
    for lam in LAMBDAS:
        for p in P_GRID:
            system = fair_bsc_system(p, lam=lam)
            start = time.perf_counter()
            report = analyze(system)
            elapsed = time.perf_counter() - start
            worst_time = max(worst_time, elapsed)
            assert report.phase is Phase.PARAMAGNETIC
            err = abs(report.mi_rate - lam * (LN2 - h2(p)))
            worst_err = max(worst_err, err)
    ok = worst_err <= 1e-6 and worst_time < 1.0
    report_line(1, ok, f"fair-coin rate err {worst_err:.2e}, slowest point {worst_time:.2f}s")


def test_criterion_02_bernoulli_rate_formula():
    worst = 0.0
    for m in (0.1, 0.3):
        for lam in LAMBDAS:
            for p in P_GRID:
                system = fair_bsc_system(p, lam=lam, m=m)
                expected = lam * (h2(conv(m, p)) - h2(p))
                worst = max(worst, abs(mutual_information_rate(system) - expected))
    report_line(2, worst <= 1e-6, f"Bernoulli-ensemble rate err {worst:.2e}")


def test_criterion_03_equilibrium_closed_forms():
    size = 4097
    k_t, lam = 1.0, 1.0
    worst = 0.0
    for b_field in np.linspace(0.6, 1.4, 5):
        spin_grid = np.linspace(0.0, 2.0 * b_field, size)
        spin = ConcaveFunction(TabulatedFunction(
            0.0, 2.0 * b_field, h2(spin_grid / (2.0 * b_field))))
        spin_mean = b_field - spin_dominant_energy(b_field, k_t)
        for e0 in np.linspace(0.6, 1.4, 5):
            level_grid = np.linspace(0.0, e0, size)
            level = ConcaveFunction(TabulatedFunction(0.0, e0, h2(level_grid / e0)))
            level_mean = two_level_dominant_energy(e0, k_t)
            eps0 = (spin_mean + lam * level_mean) / (1.0 + lam)
            sol = solve_equilibrium(spin, level, lam, eps0)
            worst = max(worst,
                        abs((b_field - sol.epsilon_star) - spin_dominant_energy(b_field, k_t)),
                        abs(sol.epsilon_channel - level_mean))
    report_line(3, worst <= 1e-6, f"spin/two-level split err {worst:.2e} on 5x5 grid")


def test_criterion_04_parameter_mapping_round_trips():
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(100):
        p = float(rng.uniform(0.005, 0.995))
        q = float(rng.uniform(0.005, 0.995))
        k_t = float(rng.uniform(0.1, 4.0))
        worst = max(worst,
                    abs(crossover_from_energy(energy_from_crossover(p, k_t), k_t) - p),
                    abs(bias_from_field(field_from_bias(q, k_t), k_t) - q))
    report_line(4, worst <= 1e-12, f"mapping round-trip err {worst:.2e} over 100 triples")


def test_criterion_05_legendre_machinery():
    size = 4097
    grid = np.linspace(0.0, 1.0, size)
    curve = ConcaveFunction(TabulatedFunction(0.0, 1.0, h2(grid)))
    psi = sup_transform_table(curve, -50.0, 50.0, size)
    worst_ratio = 0.0
    for eps in np.linspace(0.05, 0.95, 37):
        tol = 2.0 * curve.step * (1.0 + abs(math.log((1.0 - eps) / eps)))
        err = abs(legendre_inf(psi, float(eps)).value - h2(eps))
        worst_ratio = max(worst_ratio, err / tol)
    shipped = [fair_bsc_system(0.2), fair_bsc_system(0.1, lam=2, m=0.3),
               uniform_binary_bsc(0.45, m=0.25),
               SystemSpec(SourceSpec(np.array([0.0, 0.4, 1.0]), 1.1),
                          ChannelSpec(np.array([[0.0, 0.9, 1.7],
                                                [0.8, 0.0, 1.2],
                                                [1.5, 0.7, 0.0]]), 1.1),
                          EnsembleSpec(np.array([0.5, 0.3, 0.2])), Fraction(2))]
    convex_ok = True
    phi_ok = True
    for system in shipped:
        ts = np.linspace(-2.5, 2.5, 41)
        vals = np.array([zeta(system, float(t)) for t in ts])
        convex_ok &= bool(np.all(np.diff(vals, 2) >= -1e-9))
        phi = channel_phi(system)
        finite = phi.values[np.isfinite(phi.values)]
        mean = zeta_prime_neg(system, 0.0)
        phi_ok &= float(np.max(finite)) <= 1e-12
        phi_ok &= abs(float(np.max(finite))) <= 1e-6   # max ~ 0 at the mean
        phi_ok &= phi(mean) >= -1e-6
    ok = worst_ratio <= 1.0 and convex_ok and phi_ok
    report_line(5, ok, f"round-trip worst err/tol {worst_ratio:.2f}; "
                       f"zeta convex {convex_ok}, phi max-at-mean {phi_ok}")


def _random_paramagnetic_systems(count=20):
    rng = np.random.default_rng(42)
    systems = []
    while len(systems) < count:
        k_s = int(rng.integers(2, 4))
        k_x = int(rng.integers(2, 4))
        k_y = int(rng.integers(2, 4))
        source = SourceSpec(rng.uniform(0.0, 1.2, k_s), 1.0)
        channel = ChannelSpec(rng.uniform(0.0, 1.2, (k_x, k_y)), 1.0)
        m = rng.dirichlet(np.ones(k_x) * 3.0)
        lam = Fraction(int(rng.integers(1, 3)))
        beta = float(rng.uniform(0.6, 1.8))
        system = SystemSpec(source, channel, EnsembleSpec(m), lam).retempered(beta)
        if classify_phase(system) is Phase.PARAMAGNETIC:
            systems.append(system)
    return systems


def test_criterion_06_alternative_derivation_agreement():
    worst_excess = -1.0
    for system in _random_paramagnetic_systems(20):
        direct = mutual_information_rate(system)
        alt = mi_rate_alternative(system)
        sigma = total_entropy(system)
        lam = system.lambda_value
        tol = 1e-6 + 3.0 * sigma.step * (1.0 + lam) / lam * system.beta
        worst_excess = max(worst_excess, abs(direct - alt) - tol)
    report_line(6, worst_excess <= 0.0,
                f"20 randomized systems, worst (err - tol) {worst_excess:.2e}")


def test_criterion_07_oracle_convergence_ladder():
    import os
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "oracle_calibration.json")
    with open(here, encoding="utf-8") as fh:
        calibration = json.load(fh)
    bound = calibration["frozen_bound"]

    system = uniform_binary_bsc(0.2)
    formula_mi = mutual_information_rate(system)
    start = time.perf_counter()
    gaps = []
    for num in (4, 8, 12):
        agg = ensemble_stats(system, num, num_seeds=50, base_seed=2026)
        gaps.append(abs(agg.mi_mean - formula_mi))
    elapsed = time.perf_counter() - start
    # the committed 200-seed calibration must itself respect the bound it froze
    calibrated_ok = all(entry["gap"] < bound
                        for entry in calibration["ladder"].values())
    ok = (gaps[0] >= gaps[1] >= gaps[2] and gaps[2] < bound
          and calibrated_ok and elapsed < 300.0)
    report_line(7, ok, f"seed-averaged gaps {[f'{g:.4f}' for g in gaps]}, "
                       f"frozen bound {bound}, {elapsed:.0f}s")


def test_criterion_08_energy_split_concentration():
    from jscthermo.oracle import (_log_w, _message_log_prior,
                                  _message_source_energy, _output_cascade,
                                  derive_seed, draw_code)

    q = p = 0.2
    beta = math.log((1.0 - p) / p)
    system = SystemSpec(SourceSpec(np.array([0.0, 1.0]), beta),
                        ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                        EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
    assert system.source.probabilities()[1] == pytest.approx(q)

    def split_stats(code):
        # per message chunk, P(s, y) and E_C(x(s), y) over all outputs are
        # each built from two half-length cascades; the sums over s of P(s, y)
        # and of P(s, y) times each energy give the posterior means per y
        log_prior = _message_log_prior(code)
        e_src = _message_source_energy(code)
        log_w = _log_w(code)
        e_c = code.system.channel.hamiltonian
        half = code.n // 2
        num_y = code.system.channel.out_size ** code.n
        chunk = max(1, (1 << 20) // num_y)
        p_y = np.zeros(num_y)
        src_num = np.zeros(num_y)
        chn_num = np.zeros(num_y)

        def both_halves(start, per_letter, letters):
            head = _output_cascade(start, per_letter, letters[:, :half])
            tail = _output_cascade(np.zeros_like(start), per_letter, letters[:, half:])
            return (head[:, :, None] + tail[:, None, :]).reshape(len(letters), -1)

        for a in range(0, code.num_messages, chunk):
            letters = code.codebook[a:a + chunk]
            probs = np.exp(both_halves(log_prior[a:a + chunk, None], log_w, letters))
            p_y += probs.sum(axis=0)
            src_num += e_src[a:a + chunk] @ probs
            chn_num += np.einsum("sy,sy->y", probs,
                                 both_halves(np.zeros((len(letters), 1)), e_c, letters))
        src = src_num / p_y / code.N
        chn = chn_num / p_y / code.n
        deviation = float((p_y * np.hypot(src - q, chn - p)).sum())
        return float((p_y * src).sum()), float((p_y * chn).sum()), deviation

    mean_gaps = []
    spreads = []
    for num in (4, 8, 12):
        stats = [split_stats(draw_code(system, num, derive_seed(77, s)))
                 for s in range(12)]
        src = float(np.mean([s[0] for s in stats]))
        chn = float(np.mean([s[1] for s in stats]))
        mean_gaps.append(math.hypot(src - q, chn - p))
        spreads.append(float(np.mean([s[2] for s in stats])))
    # seed-and-y-averaged split sits on (q, p) up to rounding noise; the
    # per-output spread around it is the finite-size effect and must shrink
    dust = 1e-12
    ok = (mean_gaps[1] <= mean_gaps[0] + dust and mean_gaps[2] <= mean_gaps[1] + dust
          and mean_gaps[2] < 1e-9 and spreads[0] > spreads[1] > spreads[2])
    report_line(8, ok, f"split gap {mean_gaps[2]:.1e} at N=12; per-output spread "
                       f"{[f'{s:.3f}' for s in spreads]} shrinking")


def test_criterion_09_phase_transition_location(tmp_path):
    spec = {
        "binary_source": {"q": 0.5},
        "bsc": {"p": 0.2},
        "ensemble": {"m": [0.5, 0.5]},
        "lambda": {"num": 2, "den": 1},
    }
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--spec", str(spec_path), "--out", str(out),
                     "--format", "csv", "--axis", "bsc.p",
                     "--from", "0.01", "--to", "0.49", "--steps", "49"])
    assert code == 0
    rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
    ps = [float(r[0]) for r in rows]
    phases = [r[1] for r in rows]
    flips = [i for i in range(1, len(phases)) if phases[i] != phases[i - 1]]
    lo, hi = 1e-9, 0.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if h2(mid) < LN2 / 2.0:
            lo = mid
        else:
            hi = mid
    p_c = 0.5 * (lo + hi)
    step = ps[1] - ps[0]
    ok = (len(flips) == 1 and phases[flips[0] - 1] == "Ordered"
          and phases[flips[0]] == "Paramagnetic"
          and ps[flips[0] - 1] <= p_c <= ps[flips[0]] + 1e-12)
    detail = (f"single crossing in ({ps[flips[0]-1]:.2f}, {ps[flips[0]]:.2f}], "
              f"closed-form p_c {p_c:.4f}, step {step:.2f}") if flips else "no crossing"
    report_line(9, ok, detail)


def test_criterion_10_wiretap():
    identity_tap = WiretapSpec(bsc_channel(0.05), bsc_channel(0.0), Fraction(1), LN2)
    exact_zero = secrecy_capacity(identity_tap) == 0.0
    degraded = WiretapSpec(bsc_channel(0.05), bsc_channel(0.1), Fraction(1), LN2)
    c_s = secrecy_capacity(degraded)
    fixed_point_err = abs(gamma(degraded, c_s).value - c_s)
    cap = LN2 - h2(0.05)
    values = [gamma(degraded, float(r)).value for r in np.linspace(0.0, cap, 20)]
    monotone = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    ok = exact_zero and fixed_point_err <= 1e-8 and monotone
    report_line(10, ok, f"Z=Y gives C_s=0 {exact_zero}; |Gamma(C_s)-C_s| "
                        f"{fixed_point_err:.1e}; Gamma nonincreasing {monotone}")


def test_criterion_11_mac():
    worst = 0.0
    for m_s in (0.1, 0.3, 0.5):
        for m_t in (0.1, 0.3, 0.5):
            for p in (0.1, 0.25, 0.4):
                value = mac_mi_user(additive_mac(m_s, m_t, p))
                expected = h2(conv(conv(m_s, m_t), p)) - h2(conv(m_t, p))
                worst = max(worst, abs(value - expected))
    hidden = max(abs(mac_mi_user(additive_mac(m_s, 0.5, 0.2)))
                 for m_s in (0.1, 0.3, 0.5))
    chain = 0.0
    for seed in range(5):
        rep = mac_oracle(additive_mac(0.2, 0.3, 0.15), 3, seed=seed)
        chain = max(chain, abs(rep.mi_joint - rep.mi_s - rep.mi_t_given_s))
    ok = worst <= 1e-6 and hidden <= 1e-9 and chain <= 1e-12
    report_line(11, ok, f"per-user rate err {worst:.2e}; fair-coin partner "
                        f"{hidden:.1e}; chain-rule residual {chain:.1e}")


def test_criterion_12_cli_determinism(tmp_path):
    bsc = tmp_path / "bsc.json"
    bsc.write_text(json.dumps({
        "binary_source": {"q": 0.5}, "bsc": {"p": 0.1},
        "ensemble": {"m": [0.5, 0.5]}, "lambda": {"num": 1, "den": 1},
    }), encoding="utf-8")
    wt = tmp_path / "wt.json"
    wt.write_text(json.dumps({"wiretap": {
        "main": {"bsc": {"p": 0.05}}, "tap": {"bsc": {"p": 0.1}},
        "lambda": {"num": 1, "den": 1}, "source_entropy": LN2,
    }}), encoding="utf-8")
    mac = tmp_path / "mac.json"
    mac.write_text(json.dumps({"mac": {
        "source": {"hamiltonian": [0.0, 0.0], "beta": 1.0},
        "source_t": {"hamiltonian": [0.0, 0.0], "beta": 1.0},
        "ensemble": {"m": [0.7, 0.3]}, "ensemble_t": {"m": [0.5, 0.5]},
        "channel3": [[[0.0, 1.5], [1.5, 0.0]], [[1.5, 0.0], [0.0, 1.5]]],
        "beta": 1.0, "lambda": {"num": 1, "den": 1},
    }}), encoding="utf-8")
    commands = [
        ["analyze", "--spec", str(bsc), "--grid", "1025"],
        ["sweep", "--spec", str(bsc), "--axis", "bsc.p", "--from", "0.1",
         "--to", "0.4", "--steps", "4", "--grid", "1025"],
        ["simulate", "--spec", str(bsc), "--n", "4", "--seed", "7"],
        ["simulate", "--spec", str(bsc), "--n", "6", "--seed", "3",
         "--trials", "200"],
        ["wiretap", "--spec", str(wt), "--steps", "6"],
        ["mac", "--spec", str(mac), "--n", "2", "--seed", "1"],
    ]
    identical = True
    for i, args in enumerate(commands):
        for fmt in ("json", "csv"):
            a = tmp_path / f"{i}a.{fmt}"
            b = tmp_path / f"{i}b.{fmt}"
            assert cli_main(args + ["--format", fmt, "--out", str(a)]) == 0
            assert cli_main(args + ["--format", fmt, "--out", str(b)]) == 0
            identical &= a.read_bytes() == b.read_bytes()
    report_line(12, identical, f"{len(commands)} commands x 2 formats byte-identical")
