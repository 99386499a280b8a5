"""Wiretap secrecy quantities and the two-user additive channel."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jscthermo import (
    ChannelSpec,
    EnsembleSpec,
    InfeasibleRate,
    MacChannelSpec,
    MacSpec,
    NotAboveCapacity,
    PhaseMismatch,
    SourceSpec,
    SystemSpec,
    WiretapSpec,
    binary_convolution,
    binary_entropy,
    channel_mutual_information,
    derive_seed,
    draw_code,
    equivocation_bound,
    exact_mi,
    gamma,
    mac_from_dict,
    mac_mi_user,
    mac_oracle,
    mac_phi_conditional_at,
    mutual_information_rate,
    secrecy_capacity,
    system_from_dict,
    tap_capacity,
)
from jscthermo import oracle

LN2 = math.log(2.0)
h2 = binary_entropy
conv = binary_convolution


def bsc_channel(p):
    if p == 0.0:
        return ChannelSpec(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1.0)
    e0 = math.log((1.0 - p) / p)
    return ChannelSpec(np.array([[0.0, e0], [e0, 0.0]]), 1.0)


def degraded_pair(p1, p2, lam=1, source_entropy=LN2):
    return WiretapSpec(bsc_channel(p1), bsc_channel(p2), Fraction(lam), source_entropy)


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


class TestWiretapSpecValidation:
    """WiretapSpec refuses what SystemSpec and MacSpec refuse."""

    @pytest.mark.parametrize("lam", [0, -1])
    def test_nonpositive_lambda_is_refused(self, lam):
        with pytest.raises(ValueError, match="lambda must be positive"):
            degraded_pair(0.05, 0.1, lam=lam)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_non_finite_source_entropy_is_refused(self, h):
        # a NaN would otherwise drop out of equivocation_bound's min
        with pytest.raises(ValueError, match="source entropy must be finite"):
            degraded_pair(0.05, 0.1, source_entropy=h)


class TestGamma:
    def test_identity_tap_leaks_everything(self):
        spec = WiretapSpec(bsc_channel(0.1), bsc_channel(0.0), Fraction(1), LN2)
        cap = LN2 - h2(0.1)
        for rate in (0.0, 0.5 * cap, 0.95 * cap):
            assert gamma(spec, rate).value == pytest.approx(0.0, abs=1e-12)

    def test_degraded_pair_at_zero_rate(self):
        spec = degraded_pair(0.05, 0.1)
        res = gamma(spec, 0.0)
        assert res.value == pytest.approx(h2(conv(0.05, 0.1)) - h2(0.05), abs=1e-9)
        np.testing.assert_allclose(res.input_dist, [0.5, 0.5])
        assert res.certified

    def test_nonincreasing_in_rate(self):
        spec = degraded_pair(0.05, 0.1)
        cap = LN2 - h2(0.05)
        values = [gamma(spec, r).value for r in np.linspace(0.0, cap, 20)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_infeasible_rate(self):
        spec = degraded_pair(0.05, 0.1)
        with pytest.raises(InfeasibleRate):
            gamma(spec, LN2)

    def test_four_letter_inputs_fall_back_to_ascent(self):
        # beyond 3 letters the search is local ascent, flagged non-certified;
        # on a symmetric channel it must reach at least the uniform-input value
        w_main = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
        w_tap = np.full((4, 4), 0.2) + 0.2 * np.eye(4)
        spec = WiretapSpec(ChannelSpec(-np.log(w_main), 1.0),
                           ChannelSpec(-np.log(w_tap), 1.0), Fraction(1), LN2)
        uniform = np.full(4, 0.25)
        base = (channel_mutual_information(uniform, w_main)
                - channel_mutual_information(uniform, w_main @ w_tap))
        res = gamma(spec, 0.0)
        assert not res.certified
        assert res.value >= base - 1e-9

    def test_ternary_inputs_use_exhaustive_grid(self):
        # symmetric ternary main channel into a noisy binary-ish tap
        w_main = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        w_tap = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        main = ChannelSpec(-np.log(w_main), 1.0)
        tap = ChannelSpec(-np.log(w_tap), 1.0)
        spec = WiretapSpec(main, tap, Fraction(1), LN2)
        res = gamma(spec, 0.0, resolution=60)
        assert res.certified
        assert res.value >= 0.0
        # uniform input is optimal by symmetry
        np.testing.assert_allclose(res.input_dist, np.full(3, 1 / 3), atol=1 / 60 + 1e-9)


class TestSecrecyCapacity:
    def test_identity_tap_gives_zero(self):
        spec = WiretapSpec(bsc_channel(0.1), bsc_channel(0.0), Fraction(1), LN2)
        assert secrecy_capacity(spec) == 0.0

    def test_degraded_pair_fixed_point(self):
        spec = degraded_pair(0.05, 0.1)
        c_s = secrecy_capacity(spec)
        assert abs(gamma(spec, c_s).value - c_s) <= 1e-8
        assert c_s == pytest.approx(h2(conv(0.05, 0.1)) - h2(0.05), abs=1e-7)

    def test_oblivious_tap_gives_main_capacity(self):
        blind = ChannelSpec(np.zeros((2, 2)), 1.0)
        spec = WiretapSpec(bsc_channel(0.05), blind, Fraction(1), LN2)
        assert secrecy_capacity(spec) == pytest.approx(LN2 - h2(0.05), abs=1e-8)


def eavesdrop_system(spec: WiretapSpec, q: float) -> SystemSpec:
    """Messages with entropy h2(q) per symbol, fair-coin codewords, cascade."""
    w = spec.cascade().transition_matrix()
    beta = 1.0
    e1 = math.log((1.0 - q) / q) if q != 0.5 else 0.0
    source = SourceSpec(np.array([0.0, e1]), beta)
    energies = np.where(w > 0.0, -np.log(np.where(w > 0.0, w, 1.0)) / beta, np.inf)
    return SystemSpec(source, ChannelSpec(energies, beta),
                      EnsembleSpec(np.array([0.5, 0.5])), spec.lam)


class TestEquivocationBound:
    def test_fair_coin_code_closed_form(self):
        spec = degraded_pair(0.05, 0.1)
        system = eavesdrop_system(spec, 0.5)
        p_z = conv(0.05, 0.1)
        bound = equivocation_bound(spec, system)
        assert bound == pytest.approx(LN2 - (LN2 - h2(p_z)), abs=1e-9)

    def test_full_secrecy_configuration(self):
        # code rate = H(S)/lam + I(X*;Z*): the bound returns all of H(S)
        spec = degraded_pair(0.05, 0.1, source_entropy=0.3)
        p_z = conv(0.05, 0.1)
        target = 0.3 + (LN2 - h2(p_z))
        lo, hi = 1e-6, 0.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if h2(mid) < target:
                lo = mid
            else:
                hi = mid
        system = eavesdrop_system(spec, 0.5 * (lo + hi))
        bound = equivocation_bound(spec, system)
        assert bound == pytest.approx(0.3, abs=1e-6)

    def test_noiseless_tap_offers_no_secrecy(self):
        # Z = Y: anything the main user can decode leaks completely, and a
        # code just above the tap capacity guarantees only the tiny excess
        spec = WiretapSpec(bsc_channel(0.1), bsc_channel(0.0), Fraction(1), LN2)
        cap = tap_capacity(spec)
        assert cap == pytest.approx(LN2 - h2(0.1), abs=1e-6)
        lo, hi = 1e-6, 0.5
        target = cap + 0.01
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if h2(mid) < target:
                lo = mid
            else:
                hi = mid
        system = eavesdrop_system(spec, 0.5 * (lo + hi))
        bound = equivocation_bound(spec, system)
        assert bound == pytest.approx(0.01, abs=1e-6)
        with pytest.raises(NotAboveCapacity):
            equivocation_bound(spec, eavesdrop_system(spec, 0.05))

    def test_rate_below_tap_capacity_rejected(self):
        spec = degraded_pair(0.05, 0.1)
        system = eavesdrop_system(spec, 0.01)   # entropy below the tap capacity
        assert h2(0.01) < tap_capacity(spec)
        with pytest.raises(NotAboveCapacity):
            equivocation_bound(spec, system)


class TestMacSpecEquality:
    energies = np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])

    def test_channel_compares_and_hashes_by_content(self):
        a, b = MacChannelSpec(self.energies, 1.0), MacChannelSpec(self.energies.copy(), 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != MacChannelSpec(self.energies, 2.0)
        assert a != MacChannelSpec(self.energies * 2.0, 1.0)

    def test_spec_compares_and_hashes_by_content(self):
        a, b = additive_mac(0.8, 0.5, 0.1), additive_mac(0.8, 0.5, 0.1)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != additive_mac(0.8, 0.5, 0.2)   # another beta
        assert a != additive_mac(0.7, 0.5, 0.1)

    def test_validated_as_the_flattened_channel(self):
        spec = MacChannelSpec(self.energies + 2.0, 1.0)
        assert spec.hamiltonian.min() == 0.0
        assert not spec.hamiltonian.flags.writeable
        assert spec.flattened() == ChannelSpec(self.energies.reshape(4, 2), 1.0)
        bad = self.energies.copy()
        bad[1, 0] = np.inf
        with pytest.raises(ValueError):
            MacChannelSpec(bad, 1.0)
        with pytest.raises(ValueError):
            MacChannelSpec(self.energies, 0.0)


class TestMacPhiConditional:
    def test_additive_closed_form(self):
        m_t, p = 0.3, 0.2
        spec = additive_mac(0.1, m_t, p)
        point = mac_phi_conditional_at(spec, p)
        assert point.value == pytest.approx(h2(p) - h2(conv(m_t, p)), abs=1e-9)

    def test_tabulated_curve_matches_pointwise(self):
        from jscthermo import mac_phi_conditional
        spec = additive_mac(0.1, 0.3, 0.2)
        curve = mac_phi_conditional(spec, 1025)
        finite = curve.values[np.isfinite(curve.values)]
        assert np.max(finite) <= 1e-12   # it is a log-probability rate
        # linear interpolation of exact samples: O(step^2) agreement
        for eps in (0.2, 0.4, 0.7):
            assert curve(eps) == pytest.approx(
                mac_phi_conditional_at(spec, eps).value, abs=10.0 * curve.step ** 2)

    def test_degenerate_when_channel_ignores_second_user(self):
        beta = math.log(4.0)
        energies = np.zeros((2, 2, 2))
        for x_s in range(2):
            for y in range(2):
                energies[x_s, :, y] = 1.0 if x_s != y else 0.0
        spec = MacSpec(SourceSpec(np.zeros(2), beta), SourceSpec(np.zeros(2), beta),
                       EnsembleSpec(np.array([0.5, 0.5])), EnsembleSpec(np.array([0.5, 0.5])),
                       MacChannelSpec(energies, beta), Fraction(1))
        eps_mean = 0.2   # BSC(0.2) mean channel energy
        assert mac_phi_conditional_at(spec, eps_mean).value == pytest.approx(0.0, abs=1e-12)
        assert mac_phi_conditional_at(spec, 0.6).value == -math.inf


class TestMacMiUser:
    @pytest.mark.parametrize("m_s", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("m_t", [0.1, 0.3])
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_binary_additive_closed_form(self, m_s, m_t, p):
        spec = additive_mac(m_s, m_t, p)
        expected = h2(conv(conv(m_s, m_t), p)) - h2(conv(m_t, p))
        assert mac_mi_user(spec) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("m_s", [0.1, 0.37])
    def test_fair_coin_partner_hides_everything(self, m_s):
        assert mac_mi_user(additive_mac(m_s, 0.5, 0.2)) == pytest.approx(0.0, abs=1e-9)

    def test_fully_noisy_channel(self):
        assert mac_mi_user(additive_mac(0.2, 0.3, 0.499)) == pytest.approx(
            h2(conv(conv(0.2, 0.3), 0.499)) - h2(conv(0.3, 0.499)), abs=1e-9)

    def test_degenerate_partner_reduces_to_single_user(self):
        p = 0.2
        beta = math.log((1.0 - p) / p)
        energies = np.zeros((2, 2, 2))
        for x_s in range(2):
            for y in range(2):
                energies[x_s, :, y] = 1.0 if x_s != y else 0.0
        spec = MacSpec(SourceSpec(np.zeros(2), beta), SourceSpec(np.zeros(2), beta),
                       EnsembleSpec(np.array([0.5, 0.5])), EnsembleSpec(np.array([1.0, 0.0])),
                       MacChannelSpec(energies, beta), Fraction(1))
        single = SystemSpec(SourceSpec(np.zeros(2), beta),
                            ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        assert mac_mi_user(spec) == pytest.approx(
            mutual_information_rate(single), abs=1e-9)

    def test_symmetric_under_user_relabeling(self):
        m_s, m_t, p = 0.2, 0.35, 0.15
        spec = additive_mac(m_s, m_t, p)
        swapped = additive_mac(m_t, m_s, p)   # XOR channel is user-symmetric
        assert mac_mi_user(swapped) == pytest.approx(
            h2(conv(conv(m_s, m_t), p)) - h2(conv(m_s, p)), abs=1e-9)

    def test_phase_guard(self):
        # nearly noiseless channel: the combined system decodes reliably
        with pytest.raises(PhaseMismatch):
            mac_mi_user(additive_mac(0.5, 0.5, 1e-5, lam=4))


class TestMacOracle:
    def test_chain_rule_is_exact(self):
        spec = additive_mac(0.2, 0.3, 0.15)
        report = mac_oracle(spec, 3, seed=4)
        assert report.mi_joint == pytest.approx(
            report.mi_s + report.mi_t_given_s, abs=1e-12)

    def test_fair_coin_partner_suppresses_user_s_with_block_length(self):
        spec = additive_mac(0.2, 0.5, 0.1)
        means = []
        for num in (2, 4, 6):
            vals = [mac_oracle(spec, num, seed=s).mi_s for s in range(12)]
            means.append(float(np.mean(vals)))
        assert means[0] > means[1] > means[2]
        assert means[2] < 0.05

    def test_channel_ignoring_second_user_matches_single_user_oracle(self):
        p = 0.2
        beta = math.log((1.0 - p) / p)
        energies = np.zeros((2, 2, 2))
        for x_s in range(2):
            for y in range(2):
                energies[x_s, :, y] = 1.0 if x_s != y else 0.0
        spec = MacSpec(SourceSpec(np.zeros(2), beta), SourceSpec(np.zeros(2), beta),
                       EnsembleSpec(np.array([0.5, 0.5])), EnsembleSpec(np.array([0.5, 0.5])),
                       MacChannelSpec(energies, beta), Fraction(1))
        seed = 9
        report = mac_oracle(spec, 3, seed=seed)
        single = SystemSpec(SourceSpec(np.zeros(2), beta),
                            ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        code = draw_code(single, 3, derive_seed(seed, 1))
        assert report.mi_s == pytest.approx(exact_mi(code).mi_per_symbol, abs=1e-12)

    def test_deterministic(self):
        spec = additive_mac(0.2, 0.3, 0.15)
        assert mac_oracle(spec, 3, seed=1) == mac_oracle(spec, 3, seed=1)

    def test_informations_never_leave_their_range(self):
        # at N=1 many seeds draw codebooks for which I(T;Y|S) and I(S,T;Y)
        # are a rounding away from 0, and they came out as -5.55e-17
        spec = additive_mac(0.2, 0.3, 0.15)
        for seed in range(40):
            report = mac_oracle(spec, 1, seed=seed)
            assert report.mi_t_given_s >= 0.0, seed
            assert 0.0 <= report.mi_s <= report.mi_joint, seed


def _row_entropies(arr):
    safe = np.where(arr > 0.0, arr, 1.0)
    return -np.sum(np.where(arr > 0.0, arr * np.log(safe), 0.0), axis=-1)


def _block_prior(source, N):
    p = source.probabilities()
    idx = np.arange(source.alphabet_size ** N)
    out = np.ones(idx.size)
    for _ in range(N):
        out = out * p[idx % source.alphabet_size]
        idx = idx // source.alphabet_size
    return out


def full_array_mac_oracle(spec, N, seed):
    """Reference: W(y-block | s, t) for every message pair in one array."""
    n = int(spec.lam * N)
    books = []
    for index, (source, ensemble) in enumerate(
            [(spec.source_s, spec.ensemble_s), (spec.source_t, spec.ensemble_t)], 1):
        system = SystemSpec(source, ChannelSpec(np.zeros((ensemble.size, 2)), spec.beta),
                            ensemble, spec.lam)
        books.append(draw_code(system, N, derive_seed(seed, index)).codebook)
    book_s, book_t = books
    w = spec.channel.flattened().transition_matrix().reshape(*spec.channel.shape)
    cond = np.ones((book_s.shape[0], book_t.shape[0], 1))
    for i in range(n):
        step = w[book_s[:, i][:, None], book_t[:, i][None, :]]
        cond = (cond[:, :, :, None] * step[:, :, None, :]).reshape(*cond.shape[:2], -1)
    p_s = _block_prior(spec.source_s, N)
    p_t = _block_prior(spec.source_t, N)
    h_y = float(_row_entropies(np.einsum("s,t,sty->y", p_s, p_t, cond)))
    h_y_given_s = float(np.dot(p_s, _row_entropies(np.einsum("t,sty->sy", p_t, cond))))
    h_y_given_st = float(np.einsum("s,t,st->", p_s, p_t, _row_entropies(cond)))
    return ((h_y - h_y_given_s) / N, (h_y_given_s - h_y_given_st) / N,
            (h_y - h_y_given_st) / N)


def four_letter_source_mac():
    p = 0.15
    beta = math.log((1.0 - p) / p)
    base = additive_mac(0.2, 0.3, p)
    return MacSpec(SourceSpec(np.array([0.0, 0.4, 1.1, 0.7]), beta),
                   SourceSpec(np.array([0.0, 0.5]), beta),
                   base.ensemble_s, base.ensemble_t, base.channel, Fraction(1))


def zero_input_mac():
    # three S inputs, one never used; two T inputs; three outputs, one forbidden pair
    rng = np.random.default_rng(11)
    energies = rng.uniform(0.0, 2.0, size=(3, 2, 3))
    energies[1, 0, 2] = np.inf
    return MacSpec(SourceSpec(np.array([0.0, 0.3]), 1.0), SourceSpec(np.array([0.2, 0.0]), 1.0),
                   EnsembleSpec(np.array([0.6, 0.0, 0.4])), EnsembleSpec(np.array([0.25, 0.75])),
                   MacChannelSpec(energies, 1.0), Fraction(1))


class TestMacOracleAgainstFullArray:
    @pytest.mark.parametrize("make_spec", [
        pytest.param(lambda: additive_mac(0.2, 0.3, 0.15), id="binary-xor"),
        pytest.param(four_letter_source_mac, id="four-letter-source"),
        pytest.param(zero_input_mac, id="zero-probability-input"),
    ])
    @pytest.mark.parametrize("num", [1, 2, 3, 4, 6])
    def test_matches_full_array_enumeration(self, make_spec, num):
        spec = make_spec()
        report = mac_oracle(spec, num, seed=5)
        expected = full_array_mac_oracle(spec, num, seed=5)
        np.testing.assert_allclose(
            [report.mi_s, report.mi_t_given_s, report.mi_joint], expected, rtol=0, atol=1e-12)

    def test_memory_stays_within_three_chunks(self, traced_peak):
        # the full (|S|^N, |T|^N, |Y|^n) array alone would be 2^24 doubles
        spec = additive_mac(0.2, 0.3, 0.15)
        peak = traced_peak(mac_oracle, spec, 8, seed=5)
        assert peak <= 3 * oracle._CHUNK_CELLS * 8


class TestChannelMutualInformation:
    def test_bsc_capacity_at_uniform(self):
        w = bsc_channel(0.11).transition_matrix()
        assert channel_mutual_information(np.array([0.5, 0.5]), w) == pytest.approx(
            LN2 - h2(0.11), abs=1e-12)

    def test_zero_at_point_mass(self):
        w = bsc_channel(0.11).transition_matrix()
        assert channel_mutual_information(np.array([1.0, 0.0]), w) == pytest.approx(0.0, abs=1e-12)


class TestSecrecyCapacityBracket:
    def test_capacity_never_exceeds_gamma(self):
        # c_s <= Gamma(c_s) <= Gamma(0) on random ternary channels
        for seed in range(4):
            rng = np.random.default_rng([3, seed])
            spec = WiretapSpec(ChannelSpec(rng.uniform(0.0, 3.0, size=(3, 3)), 1.0),
                               ChannelSpec(rng.uniform(0.0, 3.0, size=(3, 3)), 1.0),
                               Fraction(1), LN2)
            c_s = secrecy_capacity(spec, resolution=60)
            assert c_s <= gamma(spec, 0.0, resolution=60).value, seed
            assert gamma(spec, c_s, resolution=60).value >= c_s, seed


class TestMacSharedTemperature:
    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e6, 1e13])
    def test_shared_beta_check_is_scale_free(self, c):
        energies = c * np.array([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]])
        half = EnsembleSpec(np.array([0.5, 0.5]))

        def mac(beta_t, beta_channel):
            return MacSpec(SourceSpec(c * np.array([0.0, 0.3]), 1.0 / c),
                           SourceSpec(c * np.array([0.2, 0.0]), beta_t), half, half,
                           MacChannelSpec(energies, beta_channel), Fraction(1))

        for beta_t, beta_channel in ((3.0 / c, 1.0 / c), (1.0 / c, 3.0 / c)):
            with pytest.raises(ValueError, match="share one inverse temperature"):
                mac(beta_t, beta_channel)
        near = (1.0 + 5e-13) / c
        mac(near, 1.0 / c)
        mac(1.0 / c, near)

    def test_beta_check_is_relative_to_beta(self):
        # kT = 1e-5 gives beta = 1/1e-5, one rounding away from the stated 1e5
        block = {"binary_source": {"q": 0.3, "kT": 1e-5},
                 "binary_source_t": {"q": 0.6, "kT": 1e-5},
                 "channel3": [[[0.0, 1e-5], [1e-5, 0.0]], [[1e-5, 0.0], [0.0, 1e-5]]],
                 "beta": 100000,
                 "lambda": {"num": 1, "den": 1}}
        assert 1.0 / 1e-5 != 100000
        spec = mac_from_dict({"mac": block})
        assert spec.beta == pytest.approx(1e5, rel=1e-15)
        # the single-user system at the same temperatures is accepted too
        system = system_from_dict({
            "binary_source": block["binary_source"],
            "channel": {"hamiltonian": [[0.0, 1e-5], [1e-5, 0.0]], "beta": 100000},
            "lambda": block["lambda"]})
        assert system.beta == spec.beta
