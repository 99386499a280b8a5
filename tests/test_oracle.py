"""Finite-size codebook oracle: determinism, exactness, Monte Carlo."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jscthermo import (
    ChannelSpec,
    EnsembleSpec,
    ImpossibleOutput,
    SourceSpec,
    SystemSpec,
    TooLarge,
    boltzmann_log_partition,
    derive_seed,
    draw_code,
    ensemble_stats,
    exact_mi,
    mc_mi,
    message_digits,
    mutual_information_rate,
    partition_split,
    posterior,
    posterior_energy_split,
    source_shannon_entropy,
)
from jscthermo import oracle
from jscthermo.models import logsumexp
from jscthermo.oracle import (_CHUNK_CELLS, _MC_STREAM_BASE, _log_w, _message_log_prior,
                              _message_source_energy, _output_cascade, _philox_raw,
                              _sample_letters, _uniforms)


def bsc_system(p, lam=1, m=0.5, source_energies=None):
    beta = math.log((1.0 - p) / p)
    energies = np.zeros(2) if source_energies is None else np.asarray(source_energies, float)
    return SystemSpec(SourceSpec(energies, beta),
                      ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta),
                      EnsembleSpec(np.array([1.0 - m, m])), Fraction(lam))


def noiseless_system(lam=2):
    channel = ChannelSpec(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1.0)
    return SystemSpec(SourceSpec(np.zeros(2), 1.0), channel,
                      EnsembleSpec(np.array([0.5, 0.5])), Fraction(lam))


def erasure_system(lam=1):
    """Binary input, output 0 / erased / 1; E = +inf for the crossed transitions."""
    channel = ChannelSpec(np.array([[0.0, 1.0, np.inf], [np.inf, 1.0, 0.0]]), 1.0)
    return SystemSpec(SourceSpec(np.array([0.0, 0.7]), 1.0), channel,
                      EnsembleSpec(np.array([0.4, 0.6])), Fraction(lam))


INJECTIVE_SEED = 0   # draw_code(noiseless_system(), N=3, seed=0) is injective


def philox_reference(key_hi, key_lo, count):
    """numpy.random.Philox keyed by (key_hi, key_lo), one generator per key."""
    return np.random.Philox(key=np.array([key_lo & 0xFFFFFFFFFFFFFFFF,
                                          key_hi & 0xFFFFFFFFFFFFFFFF],
                                         dtype=np.uint64)).random_raw(count)


def draw_code_per_codeword(system, N, seed):
    """The codebook drawn one codeword at a time from its own generator."""
    n = system.block_length(N)
    cum = np.cumsum(system.ensemble.coding_dist)
    cum[-1] = 1.0
    book = np.empty((system.source.alphabet_size ** N, n), dtype=np.int64)
    for msg in range(book.shape[0]):
        raw = philox_reference(seed, msg, n)
        book[msg] = np.searchsorted(cum, (raw >> np.uint64(11)) * (2.0 ** -53), side="right")
    return book


class TestPhilox:
    KEYS_LO = [0, 1, 7, 4095, (1 << 63) - 1, _MC_STREAM_BASE, _MC_STREAM_BASE + 999,
               (1 << 64) - 1]

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 25])
    @pytest.mark.parametrize("key_hi", [0, 12, -1, -7919, (1 << 63) + 3, (1 << 64) - 1])
    def test_matches_numpy_philox_bit_for_bit(self, key_hi, count):
        raw = _philox_raw(key_hi, np.array(self.KEYS_LO, dtype=np.uint64), count)
        assert raw.dtype == np.uint64
        assert raw.shape == (len(self.KEYS_LO), count)
        for row, key_lo in zip(raw, self.KEYS_LO):
            want = philox_reference(key_hi, key_lo, count)
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(_uniforms(key_hi, key_lo, count),
                                          (want >> np.uint64(11)) * (2.0 ** -53))

    def test_signed_key_lo_wraps_like_the_mask(self):
        np.testing.assert_array_equal(_philox_raw(3, np.array([-1, -2]), 5),
                                      _philox_raw(3, np.array([(1 << 64) - 1, (1 << 64) - 2],
                                                              dtype=np.uint64), 5))

    @pytest.mark.parametrize("N", [1, 4, 9])
    @pytest.mark.parametrize("coding", [[0.3, 0.7], [0.2, 0.5, 0.3]], ids=["binary", "ternary"])
    def test_codebook_matches_per_codeword_draw(self, coding, N):
        x = len(coding)
        system = SystemSpec(SourceSpec(np.array([0.0, 0.4]), 1.0),
                            ChannelSpec(np.ones((x, 2)) - np.eye(x, 2), 1.0),
                            EnsembleSpec(np.array(coding)), Fraction(1))
        for seed in (0, -5, 1 << 63):
            np.testing.assert_array_equal(draw_code(system, N, seed).codebook,
                                          draw_code_per_codeword(system, N, seed))


class TestDrawCode:
    def test_same_seed_is_bit_identical(self):
        system = bsc_system(0.2)
        a = draw_code(system, 6, seed=42)
        b = draw_code(system, 6, seed=42)
        np.testing.assert_array_equal(a.codebook, b.codebook)

    def test_different_seeds_differ(self):
        system = bsc_system(0.2)
        a = draw_code(system, 6, seed=1)
        b = draw_code(system, 6, seed=2)
        assert not np.array_equal(a.codebook, b.codebook)

    def test_degenerate_ensemble_gives_constant_codebook(self):
        system = bsc_system(0.2, m=0.0)
        code = draw_code(system, 4, seed=9)
        assert len({tuple(r) for r in code.codebook}) == 1

    def test_letter_frequency_within_four_sigma(self):
        system = bsc_system(0.2)
        code = draw_code(system, 8, seed=3)
        count = code.codebook.size
        freq = code.codebook.mean()
        sigma = math.sqrt(0.25 / count)
        assert abs(freq - 0.5) <= 4.0 * sigma

    def test_budget_guard(self):
        with pytest.raises(TooLarge):
            draw_code(bsc_system(0.2), 8, seed=0, budget=100)

    def test_block_length_follows_lambda(self):
        code = draw_code(bsc_system(0.2, lam=Fraction(3, 2)), 4, seed=0)
        assert code.n == 6


class TestPosterior:
    def test_noiseless_injective_is_point_mass(self):
        code = draw_code(noiseless_system(), 3, INJECTIVE_SEED)
        for msg in (0, 3, 7):
            y = code.codebook[msg]
            post = posterior(code, y)
            assert post[msg] == 1.0
            assert np.sum(post) == pytest.approx(1.0, abs=1e-15)

    def test_uninformative_channel_returns_prior(self):
        beta = 1.0
        channel = ChannelSpec(np.zeros((2, 2)), beta)   # W(y|x) = 1/2 always
        system = SystemSpec(SourceSpec(np.array([0.0, 0.9]), beta), channel,
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        code = draw_code(system, 3, seed=4)
        prior = np.exp(_message_log_prior(code))
        post = posterior(code, np.array([0, 1, 1]))
        np.testing.assert_allclose(post, prior, atol=1e-15)

    def test_matches_direct_four_term_computation(self):
        system = bsc_system(0.1)
        code = draw_code(system, 2, seed=3)
        y = np.array([0, 1])
        p = system.source.probabilities()
        w = system.channel.transition_matrix()
        direct = np.empty(4)
        for s in range(4):
            d = message_digits(2, 2, s)
            x = code.codebook[s]
            direct[s] = p[d[0]] * p[d[1]] * w[x[0], y[0]] * w[x[1], y[1]]
        direct /= direct.sum()
        np.testing.assert_allclose(posterior(code, y), direct, atol=1e-12)

    def test_impossible_output(self):
        code = draw_code(noiseless_system(), 3, INJECTIVE_SEED)
        used = {tuple(r) for r in code.codebook}
        free = next(tuple((k >> i) & 1 for i in range(5, -1, -1))
                    for k in range(64) if tuple((k >> i) & 1 for i in range(5, -1, -1)) not in used)
        with pytest.raises(ImpossibleOutput):
            posterior(code, np.array(free))


class TestPartitionSplit:
    def test_unreachable_alternatives_give_neg_inf(self):
        # noiseless channel: every message but the true one has zero likelihood
        system = noiseless_system(lam=1)
        code = draw_code(system, 1, seed=1)
        if code.codebook[0, 0] == code.codebook[1, 0]:
            pytest.skip("colliding codewords for this seed")
        y = code.codebook[0]
        _, log_ze = partition_split(code, 0, y)
        assert log_ze == -math.inf

    def test_symmetric_output_splits_uniformly(self):
        # all-identical codewords: posterior equals the uniform prior, so the
        # true term carries 1/|S|^N of the total weight
        system = bsc_system(0.2, m=0.0)
        code = draw_code(system, 3, seed=0)
        y = np.array([0, 1, 0])
        log_zc, log_ze = partition_split(code, 5, y)
        total = np.logaddexp(log_zc, log_ze)
        assert math.exp(log_zc - total) == pytest.approx(1.0 / 8.0, abs=1e-12)

    def test_additivity_against_log_partition(self):
        rng = np.random.default_rng(0)
        system = bsc_system(0.15, source_energies=[0.0, 1.0])
        code = draw_code(system, 4, seed=8)
        for _ in range(10):
            s0 = int(rng.integers(0, 16))
            y = rng.integers(0, 2, size=4)
            log_zc, log_ze = partition_split(code, s0, y)
            assert np.logaddexp(log_zc, log_ze) == pytest.approx(
                boltzmann_log_partition(code, y), abs=1e-12)

    def test_digit_string_addressing(self):
        system = bsc_system(0.15)
        code = draw_code(system, 3, seed=8)
        y = np.array([1, 0, 1])
        assert partition_split(code, 5, y) == partition_split(code, [1, 0, 1], y)


class TestExactMi:
    def test_noiseless_injective_reaches_source_entropy(self):
        code = draw_code(noiseless_system(), 3, INJECTIVE_SEED)
        report = exact_mi(code)
        assert report.h_s_given_y == 0.0
        assert report.mi_per_symbol == pytest.approx(report.h_s, abs=1e-13)

    def test_constant_codebook_carries_nothing(self):
        code = draw_code(bsc_system(0.2, m=0.0), 3, seed=0)
        assert exact_mi(code).mi_per_symbol == pytest.approx(0.0, abs=1e-12)

    def test_entropy_identity(self):
        code = draw_code(bsc_system(0.2, source_energies=[0.0, 1.0]), 6, seed=5)
        report = exact_mi(code)
        assert report.h_s - report.h_s_given_y == pytest.approx(
            report.mi_per_symbol, abs=1e-12)

    @pytest.mark.parametrize("system", [bsc_system(0.2), erasure_system()],
                             ids=["bsc", "erasure"])
    def test_matches_direct_posterior_enumeration(self, system):
        code = draw_code(system, 6, seed=7)
        report = exact_mi(code)
        joint = _output_cascade(_message_log_prior(code)[:, None],
                                _log_w(code), code.codebook)
        p_y = np.exp(joint).sum(axis=0)
        h_sy = 0.0
        e_chn = 0.0
        z_c = 0.0
        for y_idx in range(joint.shape[1]):
            if p_y[y_idx] == 0.0:
                continue
            post = np.exp(joint[:, y_idx]) / p_y[y_idx]
            ok = post > 0.0
            h_sy += p_y[y_idx] * (-np.sum(post[ok] * np.log(post[ok])))
            z_c += p_y[y_idx] * np.sum(post ** 2)
            y = np.array(message_digits(system.channel.out_size, code.n, y_idx))
            src_e, chn_e = posterior_energy_split(code, y)
            e_chn += p_y[y_idx] * chn_e
        assert report.h_s_given_y == pytest.approx(h_sy / code.N, abs=1e-12)
        assert report.energy_split_channel == pytest.approx(e_chn, abs=1e-12)
        assert report.z_c_fraction == pytest.approx(z_c, abs=1e-12)

    def test_enumeration_memory_is_bounded(self, traced_peak):
        # 4096 x 4096 pairs in four chunks; one joint buffer and one buffer
        # of exp(joint - peak), reused across chunks
        code = draw_code(bsc_system(0.2), 12, seed=4)
        peak = traced_peak(exact_mi, code)
        assert peak <= 2.5 * _CHUNK_CELLS * 8

    def test_budget_guard_suggests_monte_carlo(self):
        code = draw_code(bsc_system(0.2), 8, seed=0)
        with pytest.raises(TooLarge):
            exact_mi(code, budget=1000)


class TestPosteriorEnergySplit:
    def test_point_mass_returns_true_energies(self):
        code = draw_code(noiseless_system(), 3, INJECTIVE_SEED)
        msg = 5
        y = code.codebook[msg]
        src_e, chn_e = posterior_energy_split(code, y)
        assert src_e == 0.0    # uniform source has zero energies
        assert chn_e == 0.0    # noiseless channel, zero-energy transitions

    def test_matched_system_concentrates_near_q_and_p(self):
        q = p = 0.2
        beta = math.log((1.0 - p) / p)
        system = bsc_system(p, source_energies=[0.0, 1.0])
        assert system.source.probabilities()[1] == pytest.approx(q)
        agg = ensemble_stats(system, 8, num_seeds=24, base_seed=3)
        assert abs(agg.energy_split_source_mean - q) < 0.02
        assert abs(agg.energy_split_channel_mean - p) < 0.02


def mc_mi_per_trial(code, trials, seed):
    """mc_mi scored one trial at a time over every message, as a reference."""
    src = code.system.source
    cum_src = np.cumsum(src.probabilities())
    cum_src[-1] = 1.0
    w = code.system.channel.transition_matrix()
    cum_w = np.cumsum(w, axis=1)
    cum_w[:, -1] = 1.0
    log_w = _log_w(code)
    log_prior = _message_log_prior(code)
    e_src = _message_source_energy(code)
    e_c = code.system.channel.hamiltonian

    k = src.alphabet_size
    powers = k ** np.arange(code.N - 1, -1, -1, dtype=np.int64)
    samples = np.empty(trials)
    split_src = np.empty(trials)
    split_chn = np.empty(trials)
    truth_mass = np.empty(trials)
    for t in range(trials):
        u = _uniforms(seed, _MC_STREAM_BASE + t, code.N + code.n)
        s_digits = _sample_letters(cum_src, u[:code.N])
        idx = int(np.dot(s_digits, powers))
        x = code.codebook[idx]
        y = np.array([_sample_letters(cum_w[x[i]], u[code.N + i:code.N + i + 1])[0]
                      for i in range(code.n)], dtype=np.int64)
        loglik = log_w[code.codebook, y[None, :]].sum(axis=1)
        logits = log_prior + loglik
        norm = float(logsumexp(logits))
        samples[t] = norm - float(logits[idx])
        post = np.exp(logits - norm)
        truth_mass[t] = post[idx]
        ok = post > 0.0
        split_src[t] = float(np.dot(post[ok], e_src[ok]))
        e_chn = e_c[code.codebook, y[None, :]].sum(axis=1)
        split_chn[t] = float(np.dot(post[ok], e_chn[ok]))

    h_s = source_shannon_entropy(src)
    h_sy = float(samples.mean()) / code.N
    return oracle.OracleReport(
        h_s=h_s,
        h_s_given_y=h_sy,
        mi_per_symbol=h_s - h_sy,
        stderr=float(samples.std(ddof=1)) / math.sqrt(trials) / code.N,
        energy_split_source=float(split_src.mean()) / code.N,
        energy_split_channel=float(split_chn.mean()) / code.n,
        z_c_fraction=float(truth_mass.mean()),
    )


class TestMonteCarlo:
    @pytest.mark.parametrize("batch", [None, 16], ids=["default-batch", "batch-16"])
    @pytest.mark.parametrize("system, N", [(bsc_system(0.2, source_energies=[0.0, 0.6]), 10),
                                           (erasure_system(), 8)], ids=["bsc", "erasure"])
    def test_matches_per_trial_reference(self, monkeypatch, system, N, batch):
        # 257 trials leave the last batch partial: 128 + 128 + 1 for the
        # default batch on 1024 messages, 16 * 16 + 1 for batches of 16
        code = draw_code(system, N, seed=11)
        if batch is not None:
            monkeypatch.setattr(oracle, "_MC_BATCH_CELLS", batch * code.num_messages)
        got = dataclasses.asdict(mc_mi(code, 257, seed=4))
        want = dataclasses.asdict(mc_mi_per_trial(code, 257, seed=4))
        for field, value in want.items():
            assert got[field] == pytest.approx(value, abs=1e-12), field

    def test_batched_scoring_memory_is_bounded(self, traced_peak):
        # 32,768 messages; tables over coordinate blocks sized per output
        # letter with no cap would take about 25M cells (200 MB)
        code = draw_code(bsc_system(0.2), 15, seed=4)
        peak = traced_peak(mc_mi, code, 100, seed=5)
        assert peak <= 2 * _CHUNK_CELLS * 8

    def test_noiseless_estimate_is_exactly_zero(self):
        code = draw_code(noiseless_system(), 3, INJECTIVE_SEED)
        report = mc_mi(code, 150, seed=2)
        assert report.h_s_given_y == 0.0
        assert report.stderr == 0.0

    def test_agrees_with_exact_within_three_stderr(self):
        code = draw_code(bsc_system(0.2, source_energies=[0.0, 0.8]), 6, seed=6)
        exact = exact_mi(code)
        mc = mc_mi(code, 3000, seed=21)
        assert abs(mc.mi_per_symbol - exact.mi_per_symbol) <= 3.0 * mc.stderr

    def test_stderr_scales_with_root_trials(self):
        code = draw_code(bsc_system(0.25), 6, seed=13)
        base = mc_mi(code, 800, seed=1).stderr
        quad = mc_mi(code, 3200, seed=1).stderr
        assert 0.4 * base <= quad <= 0.6 * base

    def test_deterministic(self):
        code = draw_code(bsc_system(0.25), 5, seed=13)
        a = mc_mi(code, 300, seed=9)
        b = mc_mi(code, 300, seed=9)
        assert a == b

    def test_requires_minimum_trials(self):
        code = draw_code(bsc_system(0.25), 5, seed=13)
        with pytest.raises(ValueError):
            mc_mi(code, 50, seed=0)


@st.composite
def small_codes(draw):
    """A random source, coding law and channel, some transitions forbidden
    (E = +inf), with a codebook of N <= 6 and n <= 6."""
    k, x, y = (draw(st.integers(2, 3)) for _ in range(3))
    src = np.array(draw(st.lists(st.floats(0.0, 2.0), min_size=k, max_size=k)))
    energy = st.one_of(st.floats(0.0, 3.0), st.just(np.inf))
    chn = np.array(draw(st.lists(st.lists(energy, min_size=y, max_size=y),
                                 min_size=x, max_size=x)))
    # every input keeps at least one allowed output
    chn[np.arange(x), draw(st.lists(st.integers(0, y - 1), min_size=x, max_size=x))] = 0.0
    m = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=x, max_size=x)))
    lam = draw(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(2)]))
    N = draw(st.sampled_from([N for N in range(1, 7) if (lam * N).denominator == 1
                              and lam * N <= 6]))
    beta = draw(st.floats(0.5, 2.0))
    system = SystemSpec(SourceSpec(src, beta), ChannelSpec(chn, beta),
                        EnsembleSpec(m / m.sum()), lam)
    return draw_code(system, N, draw(st.integers(-1000, 1000)))


class TestMonteCarloAgreesWithExact:
    @settings(max_examples=10, derandomize=True, deadline=None, database=None)
    @given(small_codes(), st.integers(0, 1 << 20))
    def test_within_five_stderr(self, code, seed):
        exact = exact_mi(code)
        mc = mc_mi(code, 400, seed)
        assert abs(mc.mi_per_symbol - exact.mi_per_symbol) <= 5.0 * mc.stderr + 1e-12


class TestEnsembleStats:
    def test_deterministic_given_base_seed(self):
        system = bsc_system(0.2)
        a = ensemble_stats(system, 4, num_seeds=5, base_seed=11)
        b = ensemble_stats(system, 4, num_seeds=5, base_seed=11)
        assert a == b

    def test_single_seed_is_flagged_degenerate(self):
        agg = ensemble_stats(bsc_system(0.2), 4, num_seeds=1, base_seed=0)
        assert agg.degenerate
        assert agg.mi_var == 0.0

    def test_self_averaging_variance_shrinks(self):
        system = bsc_system(0.2)
        small = ensemble_stats(system, 4, num_seeds=40, base_seed=7)
        large = ensemble_stats(system, 8, num_seeds=40, base_seed=7)
        assert large.mi_var < small.mi_var

    def test_mean_tracks_rate_formula(self):
        system = bsc_system(0.2)
        agg = ensemble_stats(system, 10, num_seeds=20, base_seed=1)
        assert abs(agg.mi_mean - mutual_information_rate(system)) < 0.05

    def test_codebooks_are_drawn_within_the_budget(self, monkeypatch):
        seen = []
        real = oracle.draw_code

        def spy(system, N, seed, budget=None):
            seen.append(budget)
            return real(system, N, seed) if budget is None else real(system, N, seed, budget)

        monkeypatch.setattr(oracle, "draw_code", spy)
        ensemble_stats(bsc_system(0.2), 4, num_seeds=2, base_seed=0, budget=1000)
        assert seen == [1000, 1000]


class TestSeedDerivation:
    def test_distinct_and_stable(self):
        values = [derive_seed(7, k) for k in range(100)]
        assert len(set(values)) == 100
        assert derive_seed(7, 3) == values[3]
        assert all(0 <= v < 2 ** 64 for v in values)
