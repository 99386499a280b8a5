"""Output checks computed apart from the program under test.

Every reference value here comes from closed forms or from the
Blahut-Arimoto capacity algorithm (Blahut 1972; Arimoto 1972), written
directly in numpy from the energies the benchmark generated.  Nothing is
imported from jscthermo and nothing is compared against a stored copy of
an earlier output.

Each check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np

GRID_SIZE = 4097          # the CLI's default --grid, used by every analyze op
RATE_TOL = 1e-9           # rounding slack on information rates (nats)
PHASE_MARGIN_STEPS = 16   # boundary margin, in beta * (total-energy grid step)

# Finite-size band for the oracle workload, from the 200-seed calibration
# record tests/data/oracle_calibration.json (N=12 rung): the seed-averaged
# gap lambda*C - I is 3.931e-4 with variance 6.20e-10 (sd 2.49e-5).  A
# single codebook must land within CAL_SIGMAS standard deviations of it.
CAL_GAP_N12 = 3.931124711523126e-4
CAL_SD_N12 = math.sqrt(6.201101382794914e-10)
CAL_SIGMAS = 8.0
MC_SIGMAS = 6.0           # Monte Carlo vs exact, in the reported stderr

BISECTION_TOL = 1e-8      # secrecy_capacity's documented bisection tolerance
BA_GAP = 1e-7             # Blahut-Arimoto stops when upper - lower <= this
BA_CERTIFIED = 1e-6       # a reference is usable only if certified this tight


def boltzmann(energies, beta: float) -> np.ndarray:
    """Rows proportional to exp(-beta * E); +inf energies give 0."""
    e = np.asarray(energies, dtype=float)
    if e.ndim == 1:
        e = e[None, :]
    finite = np.isfinite(e)
    shifted = np.where(finite, e - np.min(np.where(finite, e, np.inf), axis=1,
                                          keepdims=True), 0.0)
    weights = np.where(finite, np.exp(-beta * shifted), 0.0)
    return weights / weights.sum(axis=1, keepdims=True)


def entropy(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


def mutual_information(p_x, w) -> float:
    """I(X;Y) in nats for input law p_x and transition rows w."""
    p_x = np.asarray(p_x, dtype=float)
    row_h = np.array([entropy(row) for row in w])
    return entropy(p_x @ w) - float(p_x @ row_h)


def _divergences(w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(W(.|x) || q) for every input x."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(w / q[None, :]), 0.0)
    return terms.sum(axis=1)


def blahut_arimoto(w, gap: float = BA_GAP, max_iter: int = 200_000):
    """Channel capacity with a certificate.

    Returns (lower, upper, q): lower = I(p; W) at the final input law p,
    upper = max_x D(W(.|x) || pW), which bounds the capacity from above for
    every p (the dual bound), and q = pW.  Iterates until upper - lower <= gap.
    """
    w = np.asarray(w, dtype=float)
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    for _ in range(max_iter):
        q = p @ w
        d = _divergences(w, q)
        lower, upper = float(p @ d), float(d.max())
        if upper - lower <= gap:
            break
        p = p * np.exp(d - upper)
        p /= p.sum()
    return lower, upper, q


# ---------------------------------------------------------------------------
# phase-sweep: one analyze report (rate_reference also serves the oracle)


def rate_reference(params: dict) -> dict:
    """Closed-form rate for an output-symmetric channel, uniform ensemble."""
    beta, lam = params["beta"], params["lam_num"] / params["lam_den"]
    h_s = entropy(boltzmann(params["source"], beta)[0])
    w = boltzmann(params["channel"], beta)
    cap = mutual_information(np.full(w.shape[0], 1.0 / w.shape[0]), w)
    src = np.asarray(params["source"], dtype=float)
    chn = np.asarray(params["channel"], dtype=float)
    chn = chn[np.isfinite(chn)]
    # the analysis tabulates the total per-particle energy on GRID_SIZE points
    span = ((src.max() - src.min()) + lam * (chn.max() - chn.min())) / (1.0 + lam)
    margin = PHASE_MARGIN_STEPS * beta * span / (GRID_SIZE - 1)
    return {"h_s": h_s, "lam_c": lam * cap, "rate": min(h_s, lam * cap),
            "boundary_margin": margin}


def check_analyze(params: dict, report: dict) -> list:
    ref = rate_reference(params)
    problems = []
    mi, phase = report["mi_rate"], report["phase"]
    if abs(report["source_entropy"] - ref["h_s"]) > RATE_TOL:
        problems.append(f"source_entropy {report['source_entropy']!r} != H(S) {ref['h_s']!r}")
    excess = ref["lam_c"] - ref["h_s"]
    if abs(excess) > ref["boundary_margin"]:
        expected = "Ordered" if excess > 0.0 else "Paramagnetic"
        if phase != expected:
            problems.append(f"phase {phase} but lambda*C - H(S) = {excess:.3e} "
                            f"(margin {ref['boundary_margin']:.1e}) says {expected}")
        if abs(mi - ref["rate"]) > RATE_TOL:
            problems.append(f"mi_rate {mi!r} != min(H(S), lambda*C) {ref['rate']!r}")
    else:
        # Near the boundary the labels depend on the grid: a scan across it
        # found Glassy from 2.2 steps below to 0.7 steps above.  Any label is
        # accepted here; its rate, H(S) or lambda*C, is within |excess|.
        if abs(mi - ref["rate"]) > abs(excess) + RATE_TOL:
            problems.append(f"mi_rate {mi!r} too far from {ref['rate']!r} at the boundary")
    return problems


# ---------------------------------------------------------------------------
# oracle: exact and Monte Carlo simulate reports on one codebook


def check_oracle(params: dict, exact: dict, mc: dict) -> list:
    ref = rate_reference(params)
    problems = []
    er, mr = exact["report"], mc["report"]
    mi = er["mi_per_symbol"]
    if exact["mode"] != "exact" or mc["mode"] != "mc":
        problems.append(f"modes {exact['mode']}/{mc['mode']}, expected exact/mc")
    if not 0.0 < mi <= ref["lam_c"] + RATE_TOL:
        problems.append(f"exact mi {mi!r} outside (0, lambda*C = {ref['lam_c']!r}]")
    gap = ref["lam_c"] - mi
    if abs(gap - CAL_GAP_N12) > CAL_SIGMAS * CAL_SD_N12:
        problems.append(f"lambda*C - I = {gap:.4e} outside the calibrated band "
                        f"{CAL_GAP_N12:.4e} +- {CAL_SIGMAS * CAL_SD_N12:.1e}")
    for name, rep in (("exact", er), ("mc", mr)):
        if abs(rep["h_s"] - ref["h_s"]) > RATE_TOL:
            problems.append(f"{name} h_s {rep['h_s']!r} != H(S) {ref['h_s']!r}")
    if abs(er["h_s"] - er["h_s_given_y"] - mi) > RATE_TOL:
        problems.append(f"H(S) - H(S|Y) = {er['h_s'] - er['h_s_given_y']!r} != I {mi!r}")
    for doc in (exact, mc):
        if abs(doc["theorem1_mi"] - min(ref["h_s"], ref["lam_c"])) > RATE_TOL:
            problems.append(f"theorem1_mi {doc['theorem1_mi']!r} != min(H(S), lambda*C)")
    stderr = mr["stderr"]
    if not stderr > 0.0:
        problems.append(f"Monte Carlo stderr {stderr!r} is not positive")
    elif abs(mr["mi_per_symbol"] - mi) > MC_SIGMAS * stderr:
        problems.append(f"Monte Carlo mi {mr['mi_per_symbol']!r} more than "
                        f"{MC_SIGMAS:g} stderr ({stderr:.2e}) from exact {mi!r}")
    return problems


# ---------------------------------------------------------------------------
# wiretap: capacities, secrecy capacity and the Gamma table


def grid_loss_bound(q, inputs: int, resolution: int) -> float:
    """Upper bound on capacity minus the best simplex-grid value of I(p; W).

    q is the capacity-achieving output law.  Rounding the optimal input to
    the grid (keeping its zero coordinates) moves each output probability by
    at most (K-1)/(2*resolution); the gradient term vanishes along that face
    at the optimum, and the curvature of I along the segment is
    sum_y dq_y^2 / q_y, bounded with the smallest q_y on the segment.
    """
    dq = (inputs - 1) / (2.0 * resolution)
    q_min = np.maximum(np.asarray(q) - dq, 1e-12)
    return 0.5 * float(np.sum(dq * dq / q_min))


def wiretap_reference(params: dict) -> dict:
    beta = params["beta"]
    w_y = boltzmann(params["main"], beta)
    w_z = w_y @ boltzmann(params["tap"], beta)
    out = {}
    for name, w in (("max_main_rate", w_y), ("tap_capacity", w_z)):
        lo, hi, q = blahut_arimoto(w)
        out[name] = (lo, hi, grid_loss_bound(q, w.shape[0], params["resolution"]))
    return out


def check_wiretap(params: dict, doc: dict) -> list:
    ref = wiretap_reference(params)
    problems = []
    for name, (lo, hi, loss) in ref.items():
        if hi - lo > BA_CERTIFIED:
            problems.append(f"{name} reference not certified: gap {hi - lo:.1e}")
        value = doc[name]
        if not lo - loss - RATE_TOL <= value <= hi + RATE_TOL:
            problems.append(f"{name} {value!r} outside the Blahut-Arimoto interval "
                            f"[{lo - loss!r}, {hi!r}]")
    c_s, g0, r_max = doc["c_s"], doc["gamma_zero"], doc["max_main_rate"]
    if not 0.0 <= c_s <= g0 + BISECTION_TOL:
        problems.append(f"c_s {c_s!r} outside [0, gamma_zero {g0!r}]")
    if not 0.0 <= g0 <= r_max:
        problems.append(f"gamma_zero {g0!r} outside [0, max_main_rate {r_max!r}]")
    if doc["tap_capacity"] > r_max:
        problems.append(f"tap_capacity {doc['tap_capacity']!r} > max_main_rate {r_max!r}")
    table = doc["gamma_table"]
    gammas = [entry["gamma"] for entry in table]
    if table[0]["rate"] != 0.0 or gammas[0] != g0:
        problems.append("Gamma table does not start at (0, gamma_zero)")
    if table[-1]["rate"] != r_max:
        problems.append("Gamma table does not end at max_main_rate")
    if any(b > a for a, b in zip(gammas, gammas[1:])):
        problems.append("Gamma table is not nonincreasing")
    # Gamma(R) - R is decreasing and crosses zero at c_s
    for entry in table:
        rate, value = entry["rate"], entry["gamma"]
        if rate < c_s - BISECTION_TOL and not value > rate:
            problems.append(f"Gamma({rate!r}) = {value!r} <= R below c_s")
        if rate > c_s + BISECTION_TOL and not value <= rate:
            problems.append(f"Gamma({rate!r}) = {value!r} > R above c_s")
    return problems
