"""Combined entropy, phase classification and the mutual information rate."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jscthermo import (
    NEG_INF,
    ChannelSpec,
    EnsembleSpec,
    Phase,
    PhaseMismatch,
    SourceSpec,
    SystemSpec,
    analyze,
    binary_convolution,
    binary_entropy,
    channel_mutual_information,
    classify_phase,
    derivative,
    dominant_energy,
    energy_split,
    mi_rate_alternative,
    mutual_information_rate,
    solve_equilibrium,
    source_entropy_function,
    channel_phi,
    total_entropy,
)
from jscthermo import phases
from jscthermo.tabulated import TabulatedFunction, weighted_sup_convolution

LN2 = math.log(2.0)


def bsc_system(p, lam=1, m=0.5, source_energies=None, alphabet=2):
    """BSC with Hamming energies at the matching temperature."""
    beta = math.log((1.0 - p) / p)
    if source_energies is None:
        source_energies = np.zeros(alphabet)
    source = SourceSpec(np.asarray(source_energies, dtype=float), beta)
    channel = ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta)
    return SystemSpec(source, channel, EnsembleSpec(np.array([1.0 - m, m])), Fraction(lam))


def matched_binary_system(q, p, lam=1, m=0.5):
    """Binary source with P(1)=q against BSC(p), sharing one temperature."""
    beta = math.log((1.0 - p) / p)
    e1 = math.log((1.0 - q) / q) / beta
    return bsc_system(p, lam=lam, m=m, source_energies=[0.0, e1])


TWO_GROUND_SOURCE = [0.0, 0.0, 0.6, 1.1]   # two ground states: H(S) just above
                                            # ln 2 at low T


class TestTotalEntropy:
    def test_matches_dense_brute_force(self):
        system = bsc_system(0.2, source_energies=[0.0, 1.0])
        sigma = total_entropy(system)
        fine = np.linspace(0.0, 1.0, 10001)
        for eps in np.linspace(0.15, 0.85, 8):
            arg = 2.0 * eps - fine
            ok = (arg >= 0.0) & (arg <= 1.0)
            brute = np.max(np.where(
                ok,
                0.5 * binary_entropy(fine)
                + 0.5 * (binary_entropy(np.clip(arg, 0.0, 1.0)) - LN2),
                NEG_INF))
            expected = brute if brute >= 0.0 else NEG_INF
            if math.isfinite(expected):
                assert sigma(eps) == pytest.approx(expected, abs=1e-6)
            else:
                assert sigma(eps) == NEG_INF

    def test_bounded_by_source_share(self):
        system = bsc_system(0.2, source_energies=[0.0, 1.0], lam=2)
        sigma = total_entropy(system)
        lam = 2.0
        bound = LN2 / (1.0 + lam)   # max Sigma_S, channel term <= 0
        finite = sigma.values[np.isfinite(sigma.values)]
        assert np.all(finite <= bound + 1e-12)

    def test_negative_regions_clipped(self):
        # reliable regime: combined entropy dips below zero near low energies
        system = matched_binary_system(0.05, 0.05, lam=2)
        sigma = total_entropy(system)
        assert np.isneginf(sigma.values).any()
        finite = sigma.values[np.isfinite(sigma.values)]
        assert np.all(finite >= 0.0)


def one_shot_convolution_table(sigma_s, phi, lam, grid_size):
    """Reference: phases._convolution_table with every total in one pass."""
    s_span = sigma_s.support_range()
    p_span = phi.support_range()
    lo = (s_span[0] + lam * p_span[0]) / (1.0 + lam)
    hi = (s_span[1] + lam * p_span[1]) / (1.0 + lam)
    if hi - lo <= 1e-12 * hi:
        vals = np.full(grid_size, NEG_INF)
        vals[0] = weighted_sup_convolution(sigma_s, phi, lam, lo).value
        return TabulatedFunction(lo, lo + 1.0, vals)
    grid = np.linspace(lo, hi, grid_size)
    totals = (1.0 + lam) * grid
    h = sigma_s.step
    s_first, s_last = sigma_s.support_indices()
    lo_eps = np.maximum.reduce([np.full(grid_size, sigma_s.x_min + s_first * h),
                                totals - lam * p_span[1],
                                np.zeros(grid_size)])
    hi_eps = np.minimum.reduce([np.full(grid_size, sigma_s.x_min + s_last * h),
                                totals - lam * p_span[0],
                                totals])
    a_idx = np.ceil((lo_eps - sigma_s.x_min) / h - 1e-9).astype(int)
    b_idx = np.floor((hi_eps - sigma_s.x_min) / h + 1e-9).astype(int)
    a_idx = np.clip(a_idx, s_first, s_last)
    b_idx = np.clip(b_idx, s_first, s_last)
    empty = a_idx > b_idx

    coarse = 128
    j = np.arange(coarse + 1)
    span = (b_idx - a_idx).astype(float)
    coarse_idx = a_idx[:, None] + np.round(j[None, :] * span[:, None] / coarse).astype(int)
    coarse_idx = np.clip(coarse_idx, s_first, s_last)
    obj = phases._convolution_objective(sigma_s, phi, lam, totals, coarse_idx)
    best = coarse_idx[np.arange(grid_size), np.argmax(obj, axis=1)]

    stride = np.maximum(np.ceil(span / coarse).astype(int), 1)
    width = int(stride.max()) * 2 + 5
    offsets = np.arange(width) - (width // 2)
    fine_idx = np.clip(best[:, None] + offsets[None, :], a_idx[:, None], b_idx[:, None])
    obj = phases._convolution_objective(sigma_s, phi, lam, totals, fine_idx)
    pick = np.argmax(obj, axis=1)
    vals = obj[np.arange(grid_size), pick]
    vals[empty] = NEG_INF
    return TabulatedFunction(lo, hi, vals)


# the lambdas of perfbench's phase-sweep workload
SWEEP_LAMBDAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def uniform_system(source, beta, channel, lam=1):
    channel = np.array(channel, dtype=float)
    return SystemSpec(SourceSpec(np.array(source, dtype=float), beta),
                      ChannelSpec(channel, beta),
                      EnsembleSpec(np.full(channel.shape[0], 1.0 / channel.shape[0])),
                      Fraction(lam))


TABLE_SYSTEMS = {
    "circulant": lambda: uniform_system([0.0, 0.7, 2.1], 1.3,
                                        [[0.0, 1.1, 2.6], [2.6, 0.0, 1.1], [1.1, 2.6, 0.0]]),
    "erasure": lambda: uniform_system([0.2, 1.5, 0.0, 2.4], 0.8,
                                      [[0.0, 0.9, math.inf], [math.inf, 0.9, 0.0]]),
    # flat source and useless channel: both supports are the point 0
    "one-point": lambda: uniform_system([0.0, 0.0, 0.0], 1.0, [[0.0, 0.0], [0.0, 0.0]]),
}


def sweep_round(seed):
    """The 12 systems of one phase-sweep round: source sizes 2-4 against
    BSC, circulant and erasure channels, with beta*E in perfbench's ranges."""
    systems = []
    for i, (k, family) in enumerate((k, f) for k in (2, 3, 4)
                                    for f in ("bsc", "circulant3", "circulant4", "erasure")):
        rng = np.random.default_rng([seed, i])
        beta = float(rng.uniform(0.5, 2.0))
        source = rng.uniform(0.0, 3.0, size=k) / beta
        if family == "bsc":
            e = rng.uniform(0.3, 4.0) / beta
            channel = [[0.0, e], [e, 0.0]]
        elif family == "erasure":
            a = rng.uniform(-1.5, 2.5) / beta
            channel = [[0.0, a, math.inf], [math.inf, a, 0.0]]
        else:
            q = int(family[-1])
            row = [0.0] + list(rng.uniform(0.3, 4.0, size=q - 1) / beta)
            channel = [[row[(y - x) % q] for y in range(q)] for x in range(q)]
        lam = SWEEP_LAMBDAS[int(rng.integers(len(SWEEP_LAMBDAS)))]
        systems.append(uniform_system(source, beta, channel, lam))
    return systems


def assert_tables_identical(system, grid_size):
    sigma_s = source_entropy_function(system.source, grid_size)
    phi = channel_phi(system, grid_size)
    for lam in SWEEP_LAMBDAS:
        got = phases._convolution_table(sigma_s, phi, float(lam), grid_size)
        want = one_shot_convolution_table(sigma_s, phi, float(lam), grid_size)
        assert (got.x_min, got.x_max) == (want.x_min, want.x_max), lam
        assert got.values.tobytes() == want.values.tobytes(), lam


class TestBlockedConvolutionTable:
    @pytest.mark.parametrize("grid_size", [3, 5, 1025, 4097, 16385])
    @pytest.mark.parametrize("name", sorted(TABLE_SYSTEMS))
    def test_matches_one_pass_table_bitwise(self, name, grid_size):
        assert_tables_identical(TABLE_SYSTEMS[name](), grid_size)

    @pytest.mark.parametrize("grid_size, rows", [(5, 2), (1025, 4)])
    @pytest.mark.parametrize("name", ["circulant", "erasure"])
    def test_small_blocks_split_the_table(self, monkeypatch, name, grid_size, rows):
        # the coarse scan is 129 cells wide and the refinement narrower at
        # these sizes, so blocks hold `rows` totals and the last block one
        monkeypatch.setattr(phases, "_BLOCK_CELLS", rows * 129)
        assert (grid_size - 1) % rows == 0
        assert_tables_identical(TABLE_SYSTEMS[name](), grid_size)


class TestAnalyzeMemory:
    @pytest.mark.parametrize("grid_size, limit_mib", [(4097, 8), (16385, 24)])
    def test_sweep_round_peak_stays_small(self, traced_peak, grid_size, limit_mib):
        # the tables of all totals in one pass peaked at 45 MiB (grid 4097)
        # and 397 MiB (grid 16385)
        systems = sweep_round(seed=3)

        def run():
            for system in systems:
                analyze(system, grid_size=grid_size)

        assert traced_peak(run) <= limit_mib * 2**20


class TestDominantEnergy:
    def test_beta_zero_is_argmax_of_sigma(self):
        system = bsc_system(0.2, source_energies=[0.0, 1.0])
        sigma = total_entropy(system)
        k = int(np.nanargmax(np.where(np.isfinite(sigma.values), sigma.values, NEG_INF)))
        res = dominant_energy(system, beta=1e-12, sigma=sigma)
        assert res.epsilon0 == pytest.approx(sigma.x_min + k * sigma.step, abs=sigma.step)

    def test_large_beta_hits_left_support_edge(self):
        system = bsc_system(0.2, source_energies=[0.0, 1.0])
        sigma = total_entropy(system)
        res = dominant_energy(system, beta=500.0, sigma=sigma)
        lo, _ = sigma.support_range()
        assert res.epsilon0 == pytest.approx(lo, abs=2 * sigma.step)

    def test_slope_at_argmax_equals_beta(self):
        system = bsc_system(0.2, source_energies=[0.0, 1.0])
        sigma = total_entropy(system)
        res = dominant_energy(system, sigma=sigma)
        slope = derivative(sigma, res.epsilon0)
        assert abs(slope - system.beta) <= 3.0 * sigma.step * 20.0


class TestClassifyPhase:
    def test_reliable_regime_is_ordered(self):
        q, p, lam = 0.1, 0.01, 1
        assert binary_entropy(q) < lam * (LN2 - binary_entropy(p))
        assert classify_phase(matched_binary_system(q, p, lam)) is Phase.ORDERED

    def test_noisy_channel_is_paramagnetic(self):
        assert classify_phase(bsc_system(0.49)) is Phase.PARAMAGNETIC

    def test_low_temperature_clip_boundary_is_paramagnetic(self):
        # H(S) = 0.693765 lies just above lam*C = ln2 - h2(p) = 0.693142 at
        # beta = 15, so the rate is the channel's, never H(S) above lam*C
        crossover = 1.0 / (1.0 + math.exp(15.0))
        system = bsc_system(crossover, source_energies=TWO_GROUND_SOURCE)
        assert system.beta == pytest.approx(15.0)
        report = analyze(system)
        assert report.phase is Phase.PARAMAGNETIC
        assert abs(report.mi_rate - (LN2 - binary_entropy(crossover))) <= 1e-12
        assert report.mi_rate < report.source_entropy

    def test_boundary_prefers_ordered(self):
        # noiseless limit of a uniform binary source at lam=1 sits exactly on
        # the reliability boundary H(S) = lam*ln2
        beta = 20.0
        channel = ChannelSpec(np.array([[0.0, np.inf], [np.inf, 0.0]]), beta)
        system = SystemSpec(SourceSpec(np.zeros(2), beta), channel,
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        report = analyze(system)
        assert report.phase is Phase.ORDERED
        assert report.mi_rate == pytest.approx(LN2)


class TestMutualInformationRate:
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.45])
    @pytest.mark.parametrize("lam", [1, 2])
    def test_fair_coin_closed_form(self, p, lam):
        system = bsc_system(p, lam=lam, alphabet=4)   # uniform 4-ary: paramagnetic
        assert classify_phase(system) is Phase.PARAMAGNETIC
        assert mutual_information_rate(system) == pytest.approx(
            lam * (LN2 - binary_entropy(p)), abs=1e-9)

    def test_fully_noisy_channel(self):
        assert mutual_information_rate(bsc_system(0.499)) == pytest.approx(
            LN2 - binary_entropy(0.499), abs=1e-9)

    @pytest.mark.parametrize("m", [0.1, 0.3])
    def test_bernoulli_ensemble_closed_form(self, m):
        p = 0.2
        system = bsc_system(p, m=m, alphabet=4)
        assert mutual_information_rate(system) == pytest.approx(
            binary_entropy(binary_convolution(m, p)) - binary_entropy(p), abs=1e-9)

    def test_invariant_under_hamiltonian_shift(self):
        # constructors normalize the ground state to zero, so shifted inputs
        # build the identical system and the identical report
        beta = math.log(0.8 / 0.2)
        base = SystemSpec(SourceSpec(np.array([0.0, 1.25]), beta),
                          ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                          EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        shifted = SystemSpec(SourceSpec(np.array([5.0, 6.25]), beta),
                             ChannelSpec(np.array([[2.0, 3.0], [3.0, 2.0]]), beta),
                             EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        assert base == shifted
        assert mutual_information_rate(base) == mutual_information_rate(shifted)

    def test_data_processing_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            p = rng.uniform(0.05, 0.45)
            lam = int(rng.integers(1, 3))
            system = bsc_system(p, lam=lam, alphabet=3)
            mi = mutual_information_rate(system)
            assert 0.0 <= mi <= min(math.log(3.0), lam * LN2) + 1e-12

    @pytest.mark.xfail(strict=True, reason=(
        "the channel family tilts the raw E(x,y), not -ln W(y|x)/beta, so the rate "
        "misses I(M;W) when the inputs' partition functions differ (0.07442 vs 0.05774)"))
    def test_asymmetric_channel_rate_is_the_channel_information(self):
        channel = ChannelSpec(np.array([[0.0, 1.5], [0.0, 0.0]]), 1.0)
        m = np.array([0.5, 0.5])
        system = SystemSpec(SourceSpec(np.zeros(4), 1.0), channel, EnsembleSpec(m), Fraction(1))
        assert classify_phase(system) is Phase.PARAMAGNETIC
        info = channel_mutual_information(m, channel.transition_matrix())
        assert abs(mutual_information_rate(system) - info) <= 1e-12


class TestEnergySplit:
    def test_matched_binary_splits_at_q_and_p(self):
        q = p = 0.2
        system = matched_binary_system(q, p)
        eps_star, share = energy_split(system)
        assert eps_star == pytest.approx(q, abs=1e-9)
        assert share == pytest.approx(p, abs=1e-9)

    def test_uniform_source_share_is_mean(self):
        system = bsc_system(0.3, alphabet=4)
        eps_star, _ = energy_split(system)
        assert eps_star == 0.0   # all-zero energies

    def test_matches_equilibrium_solver(self):
        system = matched_binary_system(0.2, 0.2)
        report = analyze(system)
        sigma_s = source_entropy_function(system.source)
        phi = channel_phi(system)
        sol = solve_equilibrium(sigma_s, phi, 1.0, report.epsilon0)
        eps_star, share = energy_split(system)
        assert sol.epsilon_star == pytest.approx(eps_star, abs=5e-4)
        assert sol.epsilon_channel == pytest.approx(share, abs=5e-4)
        assert sol.beta == pytest.approx(system.beta, abs=5e-3)

    def test_requires_paramagnetic(self):
        with pytest.raises(PhaseMismatch):
            energy_split(matched_binary_system(0.1, 0.01))

    def test_equilibrium_slope_identity(self):
        # both entropy slopes equal beta at the dominant split
        from jscthermo import channel_phi_at, source_entropy_at
        system = matched_binary_system(0.3, 0.2, m=0.4)
        eps_star, share = energy_split(system)
        s_slope = source_entropy_at(system.source, eps_star).slope
        c_slope = channel_phi_at(system, share).slope
        assert abs(s_slope - c_slope) <= 1e-9
        assert s_slope == pytest.approx(system.beta, abs=1e-9)


class TestAlternativeRate:
    def test_leading_terms_cancel(self):
        # beta*eps* + psi_S - Sigma_S(eps*) is the entropy identity: ~0
        system = bsc_system(0.2, source_energies=[0.0, 1.0])
        src = system.source
        from jscthermo import source_entropy_at, source_log_partition
        eps_star = src.mean_energy()
        resid = (system.beta * eps_star + source_log_partition(src, system.beta)
                 - source_entropy_at(src, eps_star).value)
        assert abs(resid - math.fsum([])) <= 1e-10
        assert resid == pytest.approx(binary_entropy(0.2) - binary_entropy(0.2), abs=1e-10)

    def test_fully_noisy_channel_gives_zero(self):
        from jscthermo import system_from_dict
        system = system_from_dict({"binary_source": {"q": 0.5}, "bsc": {"p": 0.5},
                                   "lambda": {"num": 1, "den": 1}})
        assert mi_rate_alternative(system) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("m", [0.5, 0.3])
    def test_agrees_with_rate_formula(self, m):
        system = bsc_system(0.2, m=m, source_energies=[0.0, 1.0])
        sigma = total_entropy(system)
        lam = 1.0
        slope_tol = 3.0 * sigma.step * (1.0 + lam) / lam * system.beta
        assert mi_rate_alternative(system) == pytest.approx(
            mutual_information_rate(system), abs=1e-6 + slope_tol)

    def test_requires_paramagnetic(self):
        with pytest.raises(PhaseMismatch):
            mi_rate_alternative(matched_binary_system(0.1, 0.01))


class TestPhaseTransitionSweep:
    def test_single_ordered_to_paramagnetic_crossing(self):
        # uniform binary source at lam=2: H(S) = 2*(ln2 - h2(p_c))
        lam = 2
        phases = []
        ps = np.round(np.linspace(0.01, 0.49, 49), 6)
        for p in ps:
            phases.append(classify_phase(bsc_system(p, lam=lam)))
        labels = [ph.value for ph in phases]
        flips = [i for i in range(1, len(labels)) if labels[i] != labels[i - 1]]
        assert len(flips) == 1
        i = flips[0]
        assert labels[i - 1] == "Ordered"
        assert labels[i] == "Paramagnetic"
        # closed-form crossing h2(p_c) = ln2/2
        lo, hi = 1e-9, 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if binary_entropy(mid) < LN2 / 2.0:
                lo = mid
            else:
                hi = mid
        p_c = 0.5 * (lo + hi)
        assert ps[i - 1] <= p_c <= ps[i]


SCALED_SYSTEMS = {
    # name: (source energies, channel energies, lambda), all at beta = 1
    "paramagnetic-fair": ([0.0, 0.0], [[0.0, 2.0], [2.0, 0.0]], Fraction(1, 2)),
    "paramagnetic-biased": ([0.0, 0.8], [[0.0, 1.5], [1.5, 0.0]], Fraction(1, 2)),
    "ordered": ([0.0, 1.2], [[0.0, 3.0], [3.0, 0.0]], Fraction(2)),
    "circulant": ([0.0, 0.3, 0.5], [[0.0, 1.0, 2.0], [2.0, 0.0, 1.0], [1.0, 2.0, 0.0]],
                  Fraction(1, 3)),
}


class TestEnergyScaleInvariance:
    @pytest.mark.parametrize("name", sorted(SCALED_SYSTEMS))
    def test_report_invariant_under_energy_rescaling(self, name):
        # (E, beta) -> (cE, beta/c) leaves every Boltzmann weight unchanged
        src, chn, lam = SCALED_SYSTEMS[name]

        def scaled(c):
            return SystemSpec(SourceSpec(c * np.array(src), 1.0 / c),
                              ChannelSpec(c * np.array(chn), 1.0 / c),
                              EnsembleSpec(np.full(len(chn), 1.0 / len(chn))), lam)

        ref = analyze(scaled(1.0))
        for c in (1e-13, 1e-6, 1e3, 1e6):
            rep = analyze(scaled(c))
            assert rep.phase is ref.phase, c
            assert rep.mi_rate == pytest.approx(ref.mi_rate, rel=1e-12, abs=1e-12)
            assert rep.sigma_at_eps0 == pytest.approx(ref.sigma_at_eps0, rel=1e-12, abs=1e-12)
            assert rep.epsilon0 == pytest.approx(c * ref.epsilon0, rel=1e-12)


@st.composite
def relabelled_pairs(draw):
    """A random system and the same system with its source symbols, channel
    inputs (with the coding law) and outputs permuted."""
    k, x, y = (draw(st.integers(2, n)) for n in (4, 3, 3))
    energy = st.floats(0.0, 3.0)
    src = np.array(draw(st.lists(energy, min_size=k, max_size=k)))
    chn = np.array(draw(st.lists(st.lists(energy, min_size=y, max_size=y),
                                 min_size=x, max_size=x)))
    m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=x, max_size=x)))
    beta = draw(st.floats(0.5, 2.0))
    lam = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    ps, px, py = (np.array(draw(st.permutations(range(n)))) for n in (k, x, y))

    def system(src, chn, m):
        return SystemSpec(SourceSpec(src, beta), ChannelSpec(chn, beta),
                          EnsembleSpec(m / m.sum()), lam)

    return system(src, chn, m), system(src[ps], chn[px][:, py], m[px])


class TestRelabellingInvariance:
    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(relabelled_pairs())
    def test_report_invariant_under_relabelling(self, pair):
        system, relabelled = pair
        ref, rep = analyze(system), analyze(relabelled)
        assert rep.phase is ref.phase
        assert rep.mi_rate == pytest.approx(ref.mi_rate, rel=1e-12, abs=1e-12)
        # a near-tie in the grid argmax may move by one total-energy step
        assert abs(rep.epsilon0 - ref.epsilon0) <= total_entropy(system).step * (1.0 + 1e-9)


@st.composite
def row_normalised_systems(draw):
    """A random source and coding law M against a row-normalised channel W
    with energies -ln W / beta, so every input's partition sum is 1; returns
    the system and I(M;W)."""
    k, x, y = (draw(st.integers(2, n)) for n in (4, 3, 3))
    src = np.array(draw(st.lists(st.floats(0.0, 6.0), min_size=k, max_size=k)))
    w = np.exp(-np.array(draw(st.lists(st.lists(st.floats(0.0, 10.0), min_size=y, max_size=y),
                                       min_size=x, max_size=x))))
    w /= w.sum(axis=1, keepdims=True)
    m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=x, max_size=x)))
    m /= m.sum()
    beta = draw(st.floats(0.5, 2.0))
    lam = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(1),
                                Fraction(2), Fraction(3)]))
    system = SystemSpec(SourceSpec(src, beta), ChannelSpec(-np.log(w) / beta, beta),
                        EnsembleSpec(m), lam)
    info = float(np.sum(m[:, None] * w * np.log(w / (m @ w))))
    return system, info


class TestEntropyBalance:
    """Ordered iff H(S) <= lam*I(M;W); the rate is the smaller of the two."""

    @settings(max_examples=20, derandomize=True, deadline=None, database=None)
    @given(row_normalised_systems())
    def test_label_and_rate_follow_the_balance(self, drawn):
        system, info = drawn
        p = system.source.probabilities()
        h = float(-np.sum(p * np.log(p)))
        lam_info = system.lambda_value * info
        report = analyze(system)
        assert (report.phase is Phase.ORDERED) == (h <= lam_info)
        assert abs(report.mi_rate - min(h, lam_info)) <= 1e-12 * max(1.0, h)
        coarse = analyze(system, grid_size=65)
        assert (coarse.phase, coarse.mi_rate) == (report.phase, report.mi_rate)

    def test_near_noiseless_channel_is_paramagnetic(self):
        # a fair coin over BSC(1e-6): lam*C = ln2 - 1.5e-5 < H(S) = ln2, with
        # the dominant channel energy below one grid step
        p = 1e-6
        report = analyze(bsc_system(p))
        assert report.phase is Phase.PARAMAGNETIC
        assert abs(report.mi_rate - (LN2 - binary_entropy(p))) <= 1e-12

    def test_two_grid_steps_below_the_boundary_is_paramagnetic(self):
        # a benchmark BSC with its channel energy scaled so that lam*C - H(S)
        # is -2.1 total-energy grid steps (times beta) at the default grid
        beta, e, lam = 1.805373805955127, 1.024465, 2
        source = SourceSpec(np.array([0.47660580009769615, 1.0022547375984583]), beta)
        system = SystemSpec(source, ChannelSpec(np.array([[0.0, e], [e, 0.0]]), beta),
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(lam))
        lam_c = lam * (LN2 - binary_entropy(1.0 / (1.0 + math.exp(beta * e))))
        p = source.probabilities()
        step = beta * (np.ptp(source.hamiltonian) + lam * e) / (1.0 + lam) / 4096
        assert -2.2 * step < lam_c - float(-np.sum(p * np.log(p))) < -2.0 * step
        report = analyze(system)
        assert report.phase is Phase.PARAMAGNETIC
        assert abs(report.mi_rate - lam_c) <= 1e-12
