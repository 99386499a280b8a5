"""Sources, channels, ensembles, rate functions and parameter mappings."""

import math
from fractions import Fraction

import numpy as np
import pytest

from jscthermo import (
    ChannelSpec,
    EnsembleSpec,
    OutOfRange,
    SourceSpec,
    SpecError,
    SystemSpec,
    binary_convolution,
    binary_entropy,
    bias_from_field,
    channel_energy_range,
    channel_phi,
    channel_phi_at,
    crossover_from_energy,
    energy_from_crossover,
    field_from_bias,
    output_marginal,
    source_entropy_at,
    source_entropy_function,
    source_log_partition,
    source_shannon_entropy,
    system_from_dict,
    zeta,
    zeta_prime_neg,
)
from jscthermo import models
from jscthermo.models import _SLOPE_CAP, _TiltedFamily

LN2 = math.log(2.0)


def binary_source(q, beta=None):
    """Binary source with P(1) = q at the channel-compatible temperature."""
    beta = 1.0 if beta is None else beta
    e1 = math.log((1.0 - q) / q) / beta
    return SourceSpec(np.array([0.0, e1]), beta)


def bsc_system(p, lam=1, m=0.5, source=None):
    beta = math.log((1.0 - p) / p)
    channel = ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), beta)
    if source is None:
        source = SourceSpec(np.zeros(2), beta)
    else:
        source = source.retempered(beta)
    return SystemSpec(source, channel, EnsembleSpec(np.array([1.0 - m, m])), Fraction(lam))


class TestSourceBasics:
    def test_log_partition_uniform(self):
        src = SourceSpec(np.zeros(5), 1.0)
        assert source_log_partition(src, 0.0) == pytest.approx(math.log(5.0))

    def test_log_partition_binary(self):
        src = SourceSpec(np.array([0.0, 1.0]), 2.0)
        for b in (0.5, 1.0, 3.0):
            assert source_log_partition(src, b) == pytest.approx(math.log(1.0 + math.exp(-b)))

    def test_spin_form_partition_is_shift_invariant(self):
        # {-1,+1} energies are stored shifted to {0,2}; the partition function
        # picks up exp(-beta*shift), the distribution does not change
        src = SourceSpec(np.array([-1.0, 1.0]), 1.5)
        np.testing.assert_array_equal(src.hamiltonian, [0.0, 2.0])
        b = 1.5
        assert source_log_partition(src, b) + b == pytest.approx(math.log(2.0 * math.cosh(b)))
        plain = SourceSpec(np.array([0.0, 2.0]), 1.5)
        np.testing.assert_allclose(src.probabilities(), plain.probabilities())

    def test_shannon_entropy_closed_forms(self):
        assert source_shannon_entropy(SourceSpec(np.zeros(3), 2.0)) == pytest.approx(math.log(3.0))
        assert source_shannon_entropy(binary_source(0.2)) == pytest.approx(binary_entropy(0.2))
        assert source_shannon_entropy(binary_source(0.5 - 1e-9)) == pytest.approx(LN2, abs=1e-8)

    def test_shannon_entropy_equals_direct_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            src = SourceSpec(rng.uniform(0.0, 3.0, rng.integers(2, 6)), rng.uniform(0.2, 4.0))
            p = src.probabilities()
            direct = -np.sum(p * np.log(p))
            assert source_shannon_entropy(src) == pytest.approx(direct, abs=1e-12)


class TestSourceEntropyFunction:
    def test_binary_is_h2(self):
        sig = source_entropy_function(SourceSpec(np.array([0.0, 1.0]), 1.0), 2049)
        np.testing.assert_allclose(sig.values, binary_entropy(sig.grid), atol=1e-12)

    @pytest.mark.parametrize("n_check", [20, 200])
    def test_type_counting_bound(self, n_check):
        # ln C(N, k) <= N*h2(k/N) <= ln C(N, k) + ln(N+1)
        sig = source_entropy_function(SourceSpec(np.array([0.0, 1.0]), 1.0))
        for k in range(n_check + 1):
            eps = k / n_check
            exact = math.log(math.comb(n_check, k)) / n_check
            val = sig(eps)
            assert exact - 1e-12 <= val <= exact + math.log(n_check + 1.0) / n_check

    def test_unique_ground_state_endpoint(self):
        sig = source_entropy_function(SourceSpec(np.array([0.0, 1.0, 2.0]), 1.0))
        assert sig(0.0) == 0.0

    def test_degenerate_levels_endpoint_multiplicity(self):
        sig = source_entropy_function(SourceSpec(np.array([0.0, 0.0, 1.0]), 1.0))
        assert sig(0.0) == pytest.approx(LN2)
        assert sig(1.0) == 0.0

    def test_uniform_mean_energy_gives_full_entropy(self):
        src = SourceSpec(np.array([0.0, 0.4, 1.1, 2.0]), 1.0)
        sig = source_entropy_function(src)
        mean_uniform = float(src.hamiltonian.mean())
        assert sig(mean_uniform) == pytest.approx(math.log(4.0), abs=1e-7)

    def test_entropy_matches_curve_at_thermal_energy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            src = SourceSpec(rng.uniform(0.0, 2.0, 4), rng.uniform(0.3, 3.0))
            sig = source_entropy_function(src)
            eps = src.mean_energy()
            assert abs(sig(eps) - source_shannon_entropy(src)) <= 2.0 * sig.step

    def test_pointwise_evaluator_matches_table(self):
        src = SourceSpec(np.array([0.0, 0.7, 1.3]), 1.0)
        sig = source_entropy_function(src)
        # the table linearly interpolates exact samples: O(step^2) error
        for eps in (0.1, 0.5, 0.9, 1.2):
            point = source_entropy_at(src, eps)
            assert point.value == pytest.approx(sig(eps), abs=100.0 * sig.step ** 2)

    def test_degenerate_source_single_point(self):
        sig = source_entropy_function(SourceSpec(np.zeros(3), 1.0))
        assert sig.values[0] == pytest.approx(math.log(3.0))
        assert np.all(np.isneginf(sig.values[1:]))


class TestOutputMarginal:
    def test_symmetric_channel_uniform_input(self):
        system = bsc_system(0.2)
        q = output_marginal(system.ensemble, system.channel)
        np.testing.assert_allclose(q, [0.5, 0.5], atol=1e-15)

    def test_bsc_bernoulli_input(self):
        for m, p in [(0.1, 0.2), (0.3, 0.05), (0.25, 0.4)]:
            system = bsc_system(p, m=m)
            q = output_marginal(system.ensemble, system.channel)
            assert q[1] == pytest.approx(binary_convolution(m, p), abs=1e-12)

    def test_identity_channel(self):
        channel = ChannelSpec(np.array([[0.0, np.inf], [np.inf, 0.0]]), 1.0)
        ens = EnsembleSpec(np.array([0.3, 0.7]))
        np.testing.assert_allclose(output_marginal(ens, channel), [0.3, 0.7])


class TestZeta:
    def test_zero_tilt(self):
        assert zeta(bsc_system(0.13), 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_bsc_fair_coin_closed_form(self):
        system = bsc_system(0.2)
        for t in (-1.0, 0.0, 0.7, 2.5):
            assert zeta(system, t) == pytest.approx(
                math.log((1.0 + math.exp(-t)) / 2.0), abs=1e-12)

    def test_convex_in_t(self):
        system = bsc_system(0.1, m=0.3)
        ts = np.linspace(-3.0, 3.0, 61)
        vals = np.array([zeta(system, t) for t in ts])
        assert np.all(np.diff(vals, 2) >= -1e-10)

    def test_dominant_energy_is_crossover(self):
        for p in (0.05, 0.2, 0.45):
            assert zeta_prime_neg(bsc_system(p)) == pytest.approx(p, abs=1e-12)

    def test_large_beta_reaches_ground_state(self):
        assert zeta_prime_neg(bsc_system(0.2), 60.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_difference(self):
        system = bsc_system(0.17, m=0.28)
        b = system.beta
        step = 1e-4
        fd = -(zeta(system, b + step) - zeta(system, b - step)) / (2.0 * step)
        assert zeta_prime_neg(system) == pytest.approx(fd, abs=1e-6)


class TestChannelPhi:
    def test_bsc_fair_coin_is_h2_minus_ln2(self):
        phi = channel_phi(bsc_system(0.2), 2049)
        np.testing.assert_allclose(phi.values, binary_entropy(phi.grid) - LN2, atol=1e-10)

    @pytest.mark.parametrize("m", [0.1, 0.3])
    @pytest.mark.parametrize("p", [0.05, 0.2, 0.45])
    def test_bernoulli_ensemble_closed_form(self, m, p):
        system = bsc_system(p, m=m)
        val = channel_phi_at(system, p).value
        assert -val == pytest.approx(
            binary_entropy(binary_convolution(m, p)) - binary_entropy(p), abs=1e-9)

    def test_nonpositive_with_zero_max_at_mean(self):
        system = bsc_system(0.23, m=0.4)
        phi = channel_phi(system)
        finite = phi.values[np.isfinite(phi.values)]
        assert np.max(finite) <= 1e-12
        mean = zeta_prime_neg(system, 0.0)
        assert channel_phi_at(system, mean).value == pytest.approx(0.0, abs=1e-12)
        assert np.max(finite) >= -1e-6  # grid point adjacent to the mean

    def test_slope_inverts_dominant_energy(self):
        system = bsc_system(0.2, m=0.3)
        eps = zeta_prime_neg(system)
        assert channel_phi_at(system, eps).slope == pytest.approx(system.beta, abs=1e-9)

    def test_round_trip_with_zeta(self):
        # zeta(t) = sup over the energy grid of [phi(eps) - eps*t]
        system = bsc_system(0.2, m=0.3)
        phi = channel_phi(system)
        mask = phi.finite_mask
        eps = phi.grid[mask]
        vals = phi.values[mask]
        for t in (-1.5, -0.3, 0.0, 0.8, 2.0):
            rebuilt = float(np.max(vals - eps * t))
            assert rebuilt == pytest.approx(zeta(system, t), abs=5e-7)

    def test_point_mass_ensemble_collapses_range(self):
        # with one deterministic letter the per-letter energy concentrates at
        # the output-weighted mean; everything else is unreachable
        channel = ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        system = SystemSpec(SourceSpec(np.zeros(2), 1.0), channel,
                            EnsembleSpec(np.array([1.0, 0.0])), Fraction(1))
        lo, hi = channel_energy_range(system)
        p = 1.0 / (1.0 + math.e)
        assert lo == pytest.approx(p, abs=1e-12)
        assert hi == pytest.approx(p, abs=1e-12)
        assert channel_phi_at(system, p).value == pytest.approx(0.0, abs=1e-12)
        assert channel_phi_at(system, 0.9).value == -math.inf

    def test_skewed_ensemble_shrinks_reachable_range(self):
        # letter 1 never drawn: against output y the only reachable energy is
        # E(0, y), so the range is the Q-mean and phi is finite only there
        channel = ChannelSpec(np.array([[0.0, 2.0], [2.0, 0.0]]), 1.0)
        full = SystemSpec(SourceSpec(np.zeros(2), 1.0), channel,
                          EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        lo_full, hi_full = channel_energy_range(full)
        assert lo_full == 0.0
        assert hi_full == 2.0
        phi = channel_phi(full)
        assert np.isfinite(phi(0.05))
        assert np.isfinite(phi(1.95))

    def test_degenerate_channel_energy(self):
        channel = ChannelSpec(np.zeros((2, 2)), 1.0)
        system = SystemSpec(SourceSpec(np.zeros(2), 1.0), channel,
                            EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))
        assert channel_phi_at(system, 0.0).value == pytest.approx(0.0, abs=1e-14)
        assert channel_phi_at(system, 0.4).value == -math.inf


class TestParameterMappings:
    def test_half_crossover_is_zero_energy(self):
        assert energy_from_crossover(0.5, 1.3) == 0.0
        assert crossover_from_energy(0.0, 2.0) == 0.5

    def test_half_bias_is_zero_field(self):
        assert field_from_bias(0.5, 0.7) == 0.0
        assert bias_from_field(0.0, 1.1) == 0.5

    def test_round_trips(self):
        rng = np.random.default_rng(123)
        for _ in range(100):
            p = rng.uniform(0.01, 0.99)
            q = rng.uniform(0.01, 0.99)
            k_t = rng.uniform(0.1, 5.0)
            assert crossover_from_energy(energy_from_crossover(p, k_t), k_t) == pytest.approx(p, abs=1e-12)
            assert bias_from_field(field_from_bias(q, k_t), k_t) == pytest.approx(q, abs=1e-12)

    def test_specific_round_trip(self):
        assert crossover_from_energy(energy_from_crossover(0.11, 1.0), 1.0) == pytest.approx(0.11, abs=1e-12)

    def test_out_of_range(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(OutOfRange):
                energy_from_crossover(bad, 1.0)
            with pytest.raises(OutOfRange):
                field_from_bias(bad, 1.0)


class TestBinaryConvolution:
    def test_identity_and_absorbing(self):
        assert binary_convolution(0.0, 0.37) == 0.37
        assert binary_convolution(0.5, 0.9) == 0.5
        assert binary_convolution(0.1, 0.2) == pytest.approx(0.26)

    def test_commutative_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b, c = rng.uniform(0.0, 1.0, 3)
            assert binary_convolution(a, b) == pytest.approx(binary_convolution(b, a), abs=1e-15)
            left = binary_convolution(binary_convolution(a, b), c)
            right = binary_convolution(a, binary_convolution(b, c))
            assert left == pytest.approx(right, abs=1e-12)


class TestSystemSpec:
    def test_lambda_must_divide_block(self):
        system = bsc_system(0.1, lam=Fraction(3, 2))
        assert system.block_length(4) == 6
        with pytest.raises(ValueError):
            system.block_length(3)

    def test_betas_must_match(self):
        source = SourceSpec(np.zeros(2), 1.0)
        channel = ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), 2.0)
        with pytest.raises(ValueError):
            SystemSpec(source, channel, EnsembleSpec(np.array([0.5, 0.5])), Fraction(1))

    def test_hashable_and_equal(self):
        a = bsc_system(0.2, m=0.3)
        b = bsc_system(0.2, m=0.3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != bsc_system(0.21, m=0.3)

    def test_equal_specs_hash_equal_across_signed_zeros(self):
        a, b = EnsembleSpec(np.array([1.0, 0.0])), EnsembleSpec(np.array([1.0, -0.0]))
        assert a != b or hash(a) == hash(b)

    def test_equality_compares_shape_and_type(self):
        row = ChannelSpec(np.array([[0.0, 1.0, 1.0, 0.0]]), 1.0)
        square = ChannelSpec(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        assert row != square
        assert SourceSpec(np.array([0.0, 1.0]), 1.0) != EnsembleSpec(np.array([0.5, 0.5]))

    @pytest.mark.parametrize("c", [1e-13, 1.0, 1e6, 1e13])
    def test_shared_beta_check_is_scale_free(self, c):
        source = SourceSpec(c * np.array([0.0, 0.7]), 1.0 / c)
        energies = c * np.array([[0.0, 1.5], [1.5, 0.0]])
        ensemble = EnsembleSpec(np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="share one inverse temperature"):
            SystemSpec(source, ChannelSpec(energies, 3.0 / c), ensemble, Fraction(1))
        SystemSpec(source, ChannelSpec(energies, (1.0 + 5e-13) / c), ensemble, Fraction(1))


class TestJsonIngestion:
    def test_bsc_convenience(self):
        system = system_from_dict({
            "binary_source": {"q": 0.5},
            "bsc": {"p": 0.1},
            "ensemble": {"m": [0.5, 0.5]},
            "lambda": {"num": 1, "den": 1},
        })
        w = system.channel.transition_matrix()
        assert w[0, 1] == pytest.approx(0.1, abs=1e-12)
        assert w[1, 0] == pytest.approx(0.1, abs=1e-12)
        assert system.lambda_value == 1.0

    def test_binary_source_bias(self):
        system = system_from_dict({
            "binary_source": {"q": 0.2},
            "bsc": {"p": 0.2},
            "lambda": {"num": 2, "den": 1},
        })
        np.testing.assert_allclose(system.source.probabilities(), [0.8, 0.2], atol=1e-12)
        # default ensemble is the fair coin
        np.testing.assert_allclose(system.ensemble.coding_dist, [0.5, 0.5])

    def test_explicit_blocks(self):
        system = system_from_dict({
            "source": {"hamiltonian": [0.0, 1.0, 2.0], "beta": 0.8},
            "channel": {"hamiltonian": [[0.0, 1.5], [1.5, 0.0]], "beta": 0.8},
            "ensemble": {"m": [0.25, 0.75]},
            "lambda": {"num": 3, "den": 2},
        })
        assert system.source.alphabet_size == 3
        assert system.lam == Fraction(3, 2)

    def test_missing_lambda_names_field(self):
        with pytest.raises(SpecError) as err:
            system_from_dict({"binary_source": {"q": 0.5}, "bsc": {"p": 0.1}})
        assert "lambda" in str(err.value)

    def test_bad_probability_named(self):
        with pytest.raises(SpecError) as err:
            system_from_dict({
                "binary_source": {"q": 1.5}, "bsc": {"p": 0.1},
                "lambda": {"num": 1, "den": 1},
            })
        assert "q" in str(err.value)

    def test_forbidden_transition_string(self):
        system = system_from_dict({
            "binary_source": {"q": 0.5},
            "channel": {"hamiltonian": [[0.0, "inf"], ["inf", 0.0]], "beta": 1.0},
            "lambda": {"num": 1, "den": 1},
        })
        w = system.channel.transition_matrix()
        np.testing.assert_allclose(w, np.eye(2))


class TestTiltedFamily:
    LOG_W = np.array([math.log(0.5), -math.inf, math.log(0.3), math.log(0.2)])  # input 1: no mass
    ENERGIES = np.array([[0.0, 1.0, np.inf, 2.0],
                         [5.0, 0.0, 1.0, 9.0],
                         [1.0, np.inf, 0.0, 0.5],
                         [2.0, 0.5, 1.5, 0.0]])
    Q = np.array([0.4, 0.35, 0.25, 0.0])                # output 3 never occurs

    def loop_reference(self, t):
        """Per-output sums of zeta(t) and its tilted mean energy."""
        zeta_t = mean = 0.0
        for y in range(self.ENERGIES.shape[1]):
            if self.Q[y] == 0.0:
                continue
            ok = np.isfinite(self.ENERGIES[:, y]) & np.isfinite(self.LOG_W)
            e = self.ENERGIES[ok, y]
            logits = self.LOG_W[ok] - t * e
            z = math.log(sum(math.exp(v) for v in logits))
            zeta_t += self.Q[y] * z
            mean += self.Q[y] * float(np.exp(logits - z) @ e)
        return zeta_t, mean

    def test_matches_per_output_loop(self):
        from jscthermo.models import _TiltedFamily
        family = _TiltedFamily(self.LOG_W, self.ENERGIES, self.Q)
        ts = np.array([-3.0, -0.5, 0.0, 0.7, 4.0])
        ref = np.array([self.loop_reference(t) for t in ts])
        np.testing.assert_allclose(family.log_mgf(ts), ref[:, 0], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(family.mean(ts), ref[:, 1], rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(family.tilt(ref[:, 1]), ts, rtol=1e-9, atol=1e-12)
        # input 1's zero energy at output 1 carries no mass and does not count
        assert (family.eps_lo, family.eps_hi) == pytest.approx(
            (0.35 * 0.5, 0.4 * 2.0 + 0.35 * 1.0 + 0.25 * 1.5))

    def test_output_without_compatible_input(self):
        from jscthermo import IncompatibleSupport
        from jscthermo.models import _TiltedFamily
        energies = self.ENERGIES.copy()
        energies[[0, 2, 3], 2] = np.inf
        with pytest.raises(IncompatibleSupport, match="output 2"):
            _TiltedFamily(self.LOG_W, energies, self.Q)


def bisection_tilt(family, targets):
    """The 110-step bisection over +-_SLOPE_CAP/scale that the Newton tilt
    solver replaced, kept as its reference."""
    cap = _SLOPE_CAP / family.scale
    lo = np.full(targets.shape, -cap)
    hi = np.full(targets.shape, cap)
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        too_high = family.mean(mid) > targets
        lo, hi = np.where(too_high, mid, lo), np.where(too_high, hi, mid)
    return 0.5 * (lo + hi)


def random_family(rng, kind, scale):
    if kind == "source":
        k = int(rng.integers(2, 7))
        return _TiltedFamily(np.zeros(k), scale * rng.uniform(0.0, 3.0, (k, 1)), [1.0])
    # 4 inputs, input 0 without mass; 4 outputs, output 3 never occurs
    energies = scale * rng.uniform(0.0, 3.0, (4, 4))
    energies[rng.random((4, 4)) < 0.3] = np.inf
    energies[np.arange(1, 5) % 3 + 1, np.arange(4)] = scale * rng.uniform(0.0, 3.0, 4)
    log_w = np.concatenate([[-np.inf], np.log(rng.dirichlet(np.ones(3)))])
    q = np.concatenate([rng.dirichlet(np.ones(3)), [0.0]])
    return _TiltedFamily(log_w, energies, q)


class TestTiltSolver:
    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    @pytest.mark.parametrize("kind", ["source", "channel"])
    def test_matches_bisection(self, kind, scale):
        rng = np.random.default_rng(17)
        for _ in range(8):
            family = random_family(rng, kind, scale)
            span = family.eps_hi - family.eps_lo
            fractions = np.concatenate([[1e-9, 1e-6], np.linspace(0.0, 1.0, 41)[1:-1],
                                        [1.0 - 1e-6, 1.0 - 1e-9]])
            targets = family.eps_lo + span * fractions
            ts = family.tilt(targets)
            ref = bisection_tilt(family, targets)
            # the mean is known to a few ulps of the energy scale, so a root
            # is pinned down only to that error over the slope -variance
            var = family._moments(ref)[1]
            noise = 4.0 * np.finfo(float).eps * family.scale / var
            assert np.all(np.abs(ts - ref) <= 1e-9 * np.abs(ref) + noise)
            reached = np.abs(ref) < 0.999 * _SLOPE_CAP / family.scale
            residual = np.abs(family.mean(ts) - targets)[reached]
            assert np.all(residual <= 1e-12 * family.scale)
            assert np.all(np.diff(ts[reached]) < 0.0)

    def test_knot_table_stays_within_cell_budget(self, monkeypatch, traced_peak):
        # 64 x 64 cells: the table of 259 knot tilts in one pass would hold
        # 1.06M cells per temporary, 65 times the budget set here
        monkeypatch.setattr(models, "_CELL_BUDGET", 1 << 14)
        rng = np.random.default_rng(5)
        family = _TiltedFamily(np.log(rng.dirichlet(np.ones(64))),
                               rng.uniform(0.0, 3.0, (64, 64)), rng.dirichlet(np.ones(64)))
        targets = family.eps_lo + (family.eps_hi - family.eps_lo) * np.array([0.2, 0.5, 0.8])
        peak = traced_peak(family.tilt, targets)
        assert peak <= 8 * models._CELL_BUDGET * 8
