"""Finite-size ground truth for randomly drawn joint source-channel codes.

Codebooks are drawn with a counter-based generator, Philox-4x64-10 (Salmon et
al., SC'11), with one stream per codeword index and one per Monte Carlo
trial, so the same (system, N, seed) always rebuilds the same code on any
platform and under any parallel schedule.  The streams are evaluated for many
keys at once in numpy uint64 arithmetic and give the same bits as
numpy.random.Philox.  Mutual information and posterior statistics are computed
by exhaustive enumeration over messages and channel outputs, or by seeded
Monte Carlo when enumeration is out of budget.  All partition arithmetic runs
in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ImpossibleOutput, TooLarge
from .models import SystemSpec, logsumexp, source_shannon_entropy
from .tabulated import NEG_INF

DEFAULT_ENUM_BUDGET = 1 << 26   # (message, output) pairs
_CHUNK_CELLS = 1 << 22          # matrix cells processed per chunk
_MC_STREAM_BASE = 1 << 63       # Monte Carlo streams live above codeword streams
_MC_BATCH_CELLS = 1 << 17       # (trial, message) cells scored per batch
_DRAW_CELLS = 1 << 17           # codebook letters drawn per chunk

# Philox-4x64 round multipliers and key bumps; np.uint64 throughout keeps the
# arithmetic in wrapping uint64 under every numpy promotion rule
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_BUMP0 = np.uint64(0x9E3779B97F4A7C15)
_PHILOX_BUMP1 = np.uint64(0xBB67AE8584CAA73B)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def derive_seed(base: int, index: int) -> int:
    """Documented 64-bit stream split: splitmix64 of base + index*golden."""
    x = (base + index * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mulhilo(m: np.uint64, x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    carry = (((m_lo * x_lo) >> _SHIFT32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)) >> _SHIFT32
    return m * x, m_hi * x_hi + (hi_lo >> _SHIFT32) + (lo_hi >> _SHIFT32) + carry


def _philox_raw(key_hi: int, key_lo, count: int) -> np.ndarray:
    """First `count` words of numpy.random.Philox(key=[lo, key_hi]) for each lo.

    Philox-4x64-10 evaluated for every key in key_lo at once; the result is
    uint64 with shape np.shape(key_lo) + (count,).
    """
    k0 = np.asarray(key_lo).astype(np.uint64)[..., None]
    k1 = np.full_like(k0, key_hi & 0xFFFFFFFFFFFFFFFF)
    blocks = -(-count // 4)
    # numpy.random.Philox bumps its counter before each block of four words
    c0 = np.arange(1, blocks + 1, dtype=np.uint64) + np.zeros_like(k0)
    c1 = c2 = c3 = np.zeros_like(c0)
    for r in range(10):
        if r:
            k0 = k0 + _PHILOX_BUMP0
            k1 = k1 + _PHILOX_BUMP1
        lo0, hi0 = _mulhilo(_PHILOX_M0, c0)
        lo1, hi1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=-1)
    return words.reshape(c0.shape[:-1] + (4 * blocks,))[..., :count]


def _uniforms(key_hi: int, key_lo, count: int) -> np.ndarray:
    """53-bit uniforms from the Philox streams keyed by (key_hi, each key_lo)."""
    return (_philox_raw(key_hi, key_lo, count) >> np.uint64(11)) * (2.0 ** -53)


def _sample_letters(cumulative: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    return np.searchsorted(cumulative, uniforms, side="right").astype(np.int64)


def message_digits(alphabet: int, length: int, index: int) -> np.ndarray:
    """Most-significant-first base-`alphabet` digits of a message index."""
    digits = np.empty(length, dtype=np.int64)
    for i in range(length - 1, -1, -1):
        digits[i] = index % alphabet
        index //= alphabet
    return digits


@dataclass(frozen=True)
class CodeInstance:
    """A concrete random codebook s -> x(s), fully determined by its seed."""

    system: SystemSpec
    N: int
    n: int
    seed: int
    codebook: np.ndarray   # shape (|S|^N, n), channel-input letters

    def __post_init__(self):
        book = np.asarray(self.codebook, dtype=np.int64)
        book.setflags(write=False)
        object.__setattr__(self, "codebook", book)

    @property
    def num_messages(self) -> int:
        return int(self.codebook.shape[0])


@dataclass(frozen=True)
class OracleReport:
    """Exact or Monte-Carlo information quantities, per source symbol."""

    h_s: float
    h_s_given_y: float
    mi_per_symbol: float
    stderr: float
    energy_split_source: float
    energy_split_channel: float
    z_c_fraction: float


@dataclass(frozen=True)
class AggregateReport:
    """Across-codebook mean and variance of the oracle quantities."""

    num_seeds: int
    mi_mean: float
    mi_var: float
    h_s_given_y_mean: float
    energy_split_source_mean: float
    energy_split_channel_mean: float
    z_c_fraction_mean: float
    degenerate: bool


def draw_code(system: SystemSpec, N: int, seed: int,
              budget: int = DEFAULT_ENUM_BUDGET) -> CodeInstance:
    """Draw the i.i.d. codebook deterministically from (system, N, seed)."""
    n = system.block_length(N)
    num = system.source.alphabet_size ** N
    if num * n > budget:
        raise TooLarge(f"codebook table {num}x{n} exceeds budget {budget}")
    cum = np.cumsum(system.ensemble.coding_dist)
    cum[-1] = 1.0
    book = np.empty((num, n), dtype=np.int64)
    rows = max(1, _DRAW_CELLS // max(n, 1))
    for a in range(0, num, rows):
        b = min(a + rows, num)
        book[a:b] = _sample_letters(cum, _uniforms(seed, np.arange(a, b), n))
    return CodeInstance(system, N, n, seed, book)


def _source_digit_table(code: CodeInstance) -> np.ndarray:
    """Digits of every message, shape (num_messages, N)."""
    k = code.system.source.alphabet_size
    idx = np.arange(code.num_messages)
    digits = np.empty((code.num_messages, code.N), dtype=np.int64)
    for i in range(code.N - 1, -1, -1):
        digits[:, i] = idx % k
        idx = idx // k
    return digits


def _message_log_prior(code: CodeInstance) -> np.ndarray:
    src = code.system.source
    logp = np.log(src.probabilities())
    return logp[_source_digit_table(code)].sum(axis=1)


def _message_source_energy(code: CodeInstance) -> np.ndarray:
    src = code.system.source
    return src.hamiltonian[_source_digit_table(code)].sum(axis=1)


def _log_w(code: CodeInstance) -> np.ndarray:
    w = code.system.channel.transition_matrix()
    return np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)


def _boltzmann_energies(code: CodeInstance, y: np.ndarray) -> np.ndarray:
    """E_S(s) + E_C(x(s), y) for every message, +inf where forbidden."""
    e_c = code.system.channel.hamiltonian
    chan = e_c[code.codebook, y[None, :]].sum(axis=1)
    return _message_source_energy(code) + chan


def _check_output(code: CodeInstance, y) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (code.n,):
        raise ValueError(f"output must have length n={code.n}")
    if (y < 0).any() or (y >= code.system.channel.out_size).any():
        raise ValueError("output symbol out of range")
    return y


def posterior(code: CodeInstance, y) -> np.ndarray:
    """Exact posterior over all messages given the output block y."""
    y = _check_output(code, y)
    log_w = _log_w(code)
    loglik = log_w[code.codebook, y[None, :]].sum(axis=1)
    logits = _message_log_prior(code) + loglik
    norm = float(logsumexp(logits))
    if not math.isfinite(norm):
        raise ImpossibleOutput("output has zero likelihood under every message")
    return np.exp(logits - norm)


def boltzmann_log_partition(code: CodeInstance, y) -> float:
    """log sum over messages of exp(-beta * [E_S(s) + E_C(x(s), y)])."""
    y = _check_output(code, y)
    energies = _boltzmann_energies(code, y)
    finite = np.isfinite(energies)
    if not finite.any():
        return NEG_INF
    return float(logsumexp(-code.system.beta * energies[finite]))


def partition_split(code: CodeInstance, s0, y) -> Tuple[float, float]:
    """(log Z_c, log Z_e): the true message's Boltzmann term and the rest.

    s0 may be a message index or a digit string of length N.
    """
    y = _check_output(code, y)
    if np.isscalar(s0):
        idx = int(s0)
    else:
        s0 = np.asarray(s0, dtype=np.int64)
        k = code.system.source.alphabet_size
        idx = 0
        for d in s0:
            idx = idx * k + int(d)
    energies = _boltzmann_energies(code, y)
    b = code.system.beta
    log_zc = float(-b * energies[idx]) if math.isfinite(energies[idx]) else NEG_INF
    others = np.delete(energies, idx)
    finite = np.isfinite(others)
    log_ze = float(logsumexp(-b * others[finite])) if finite.any() else NEG_INF
    return log_zc, log_ze


def posterior_energy_split(code: CodeInstance, y) -> Tuple[float, float]:
    """Posterior-mean per-particle source and channel energies given y."""
    y = _check_output(code, y)
    post = posterior(code, y)
    e_src = _message_source_energy(code)
    e_chn = code.system.channel.hamiltonian[code.codebook, y[None, :]].sum(axis=1)
    ok = post > 0.0
    return (float(np.dot(post[ok], e_src[ok])) / code.N,
            float(np.dot(post[ok], e_chn[ok])) / code.n)


def _output_cascade(values: np.ndarray, per_letter: np.ndarray,
                    letters: np.ndarray) -> np.ndarray:
    """Accumulate per_letter[letters[:, i], y_i] over all output blocks.

    values has shape (chunk, 1); the result has shape (chunk, |Y|^n) with
    output blocks enumerated most-significant-digit first.
    """
    for i in range(letters.shape[1]):
        step = per_letter[letters[:, i]]
        values = (values[:, :, None] + step[:, None, :]).reshape(values.shape[0], -1)
    return values


def exact_mi(code: CodeInstance, budget: int = DEFAULT_ENUM_BUDGET) -> OracleReport:
    """Mutual information and posterior statistics by full enumeration."""
    out_size = code.system.channel.out_size
    num_y = out_size ** code.n
    num_s = code.num_messages
    if num_s * num_y > budget:
        raise TooLarge(f"enumeration {num_s}x{num_y} exceeds budget {budget}; use mc_mi")

    log_w = _log_w(code)
    log_prior = _message_log_prior(code)
    chunk = min(num_s, max(1, _CHUNK_CELLS // num_y))
    floor = np.finfo(float).min
    # each chunk's joint is (prior + first half) + second half, from two
    # cascades over |Y|^(n/2) outputs, written into buffers reused across chunks
    half = code.n // 2
    joint_buf = np.empty(chunk * num_y)
    e_buf = np.empty(chunk * num_y)

    # one pass over message chunks; with e = exp(joint - peak) per output y,
    # sum e gives P(y), sum e^2 gives sum_s P(s,y)^2 and sum e*joint gives
    # sum_s P(s,y) ln P(s,y)
    log_py = np.full(num_y, NEG_INF)
    log_py_sq = np.full(num_y, NEG_INF)
    mean_log_joint = 0.0
    for a in range(0, num_s, chunk):
        letters = code.codebook[a:a + chunk]
        rows = letters.shape[0]
        head = _output_cascade(log_prior[a:a + rows, None], log_w, letters[:, :half])
        tail = _output_cascade(np.zeros((rows, 1)), log_w, letters[:, half:])
        joint = joint_buf[:rows * num_y].reshape(rows, num_y)
        np.add(head[:, :, None], tail[:, None, :], out=joint.reshape(rows, head.shape[1], -1))
        peak = np.max(joint, axis=0)
        peak[~np.isfinite(peak)] = 0.0
        e = np.subtract(joint, peak, out=e_buf[:rows * num_y].reshape(rows, num_y))
        np.exp(e, out=e)
        with np.errstate(divide="ignore"):
            log_py = np.logaddexp(log_py, np.log(np.sum(e, axis=0)) + peak)
            log_py_sq = np.logaddexp(log_py_sq,
                                     np.log(np.einsum("sy,sy->y", e, e)) + 2.0 * peak)
        # e = 0 wherever joint = -inf; the finite floor keeps e * joint at 0 there
        np.maximum(joint, floor, out=joint)
        mean_log_joint += float(np.dot(np.exp(peak), np.einsum("sy,sy->y", e, joint)))
    py_mask = np.isfinite(log_py)
    h_y = float(-np.sum(np.exp(log_py[py_mask]) * log_py[py_mask]))
    # truth mass: sum_y P(y) sum_s post(s|y)^2 = sum_y sum_s P(s,y)^2 / P(y)
    z_c_fraction = float(np.sum(np.exp(log_py_sq[py_mask] - log_py[py_mask])))
    # H(S|Y) = -E[ln P(S,Y)] - H(Y), both taken under the exact joint
    h_s_given_y_total = -mean_log_joint - h_y

    # posterior-mean channel energy: under the exact joint the posterior
    # average over outputs collapses to the transmitted pair's mean, which is
    # a per-coordinate sum for a memoryless channel
    e_c = code.system.channel.hamiltonian
    w = code.system.channel.transition_matrix()
    row_mean_energy = np.sum(np.where(w > 0.0, w * np.where(np.isfinite(e_c), e_c, 0.0), 0.0), axis=1)
    prior = np.exp(log_prior)
    chan_energy = float(np.dot(prior, row_mean_energy[code.codebook].sum(axis=1)))

    # conditional output entropy is a per-letter sum under memorylessness
    letter_entropy = -np.sum(np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0), axis=1)
    h_y_given_s = float(np.dot(prior, letter_entropy[code.codebook].sum(axis=1)))

    h_s = source_shannon_entropy(code.system.source)
    src_energy = float(np.dot(prior, _message_source_energy(code)))
    return OracleReport(
        h_s=h_s,
        h_s_given_y=h_s_given_y_total / code.N,
        mi_per_symbol=max(0.0, (h_y - h_y_given_s) / code.N),   # rounding can dip below 0
        stderr=0.0,
        energy_split_source=src_energy / code.N,
        energy_split_channel=chan_energy / code.n,
        z_c_fraction=z_c_fraction,
    )


def _likelihood_tables(code: CodeInstance, log_w: np.ndarray) -> list:
    """Log-likelihood tables over consecutive coordinate blocks of the code.

    Returns (start, size, table) triples; table[v, s] is the sum over the block's
    coordinates i of ln W(y_i | x_i(s)), where v numbers the block's output
    letters most-significant first.  Blocks are as few as fit in
    max(_CHUNK_CELLS, |Y| * n * num_messages) cells, one coordinate each at
    worst.
    """
    num_s, n = code.codebook.shape
    out_size = log_w.shape[1]
    cap = max(_CHUNK_CELLS, out_size * n * num_s) // num_s   # table rows in all
    for count in range(1, n + 1):
        sizes = [(n + count - 1 - k) // count for k in range(count)]
        if sum(out_size ** size for size in sizes) <= cap:
            break
    tables, start = [], 0
    for size in sizes:
        block = _output_cascade(np.zeros((num_s, 1)), log_w, code.codebook[:, start:start + size])
        tables.append((start, size, np.ascontiguousarray(block.T)))
        start += size
    return tables


def mc_mi(code: CodeInstance, trials: int, seed: int) -> OracleReport:
    """Monte Carlo estimate of the exact_mi quantities.

    Each trial draws (s0, y) from the true joint law on its own counter
    stream and scores -ln posterior(s0 | y), an unbiased sample of the total
    conditional entropy.  Trials are scored in batches, each row on its own,
    so the result does not depend on the batch size.
    """
    if trials < 100:
        raise ValueError("need at least 100 trials")
    src = code.system.source
    channel = code.system.channel
    cum_src = np.cumsum(src.probabilities())
    cum_src[-1] = 1.0
    cum_w = np.cumsum(channel.transition_matrix(), axis=1)
    cum_w[:, -1] = 1.0
    log_w = _log_w(code)
    log_prior = _message_log_prior(code)
    e_src = _message_source_energy(code)
    # W = exp(-beta E) / Z_x, so a message's channel energy given y is
    # -(ln W(y | x(s)) + sum_i ln Z_{x_i(s)}) / beta: the likelihood tables
    # serve for both
    log_z = logsumexp(-channel.beta * channel.hamiltonian, axis=1)
    msg_log_z = log_z[code.codebook].sum(axis=1)
    tables = _likelihood_tables(code, log_w)
    floor = np.finfo(float).min

    k = src.alphabet_size
    powers = k ** np.arange(code.N - 1, -1, -1, dtype=np.int64)
    out_powers = channel.out_size ** np.arange(code.n - 1, -1, -1, dtype=np.int64)
    batch = max(1, _MC_BATCH_CELLS // code.num_messages)
    samples = np.empty(trials)
    split_src = np.empty(trials)
    split_chn = np.empty(trials)
    truth_mass = np.empty(trials)
    for a in range(0, trials, batch):
        stop = min(a + batch, trials)
        streams = np.uint64(_MC_STREAM_BASE) + np.arange(a, stop, dtype=np.uint64)
        u = _uniforms(seed, streams, code.N + code.n)
        # counting cumulative weights <= u is searchsorted(side="right")
        idx = (cum_src <= u[:, :code.N, None]).sum(axis=-1) @ powers
        y = (cum_w[code.codebook[idx]] <= u[:, code.N:, None]).sum(axis=-1)
        loglik = np.zeros((stop - a, code.num_messages))
        for start, size, table in tables:
            v = y[:, start:start + size] @ out_powers[code.n - size:]
            loglik += table[v]
        logits = loglik + log_prior
        norm = logsumexp(logits, axis=1)
        rows = np.arange(stop - a)
        samples[a:stop] = norm - logits[rows, idx]
        post = np.exp(logits - norm[:, None])
        truth_mass[a:stop] = post[rows, idx]
        split_src[a:stop] = np.einsum("ts,s->t", post, e_src)
        # minus the channel energy times beta; post = 0 wherever it is -inf,
        # and the finite floor keeps post * (-inf) at 0 there
        loglik += msg_log_z
        np.maximum(loglik, floor, out=loglik)
        split_chn[a:stop] = -np.einsum("ts,ts->t", post, loglik) / channel.beta

    h_s = source_shannon_entropy(src)
    h_sy = float(samples.mean()) / code.N
    stderr = float(samples.std(ddof=1)) / math.sqrt(trials) / code.N
    return OracleReport(
        h_s=h_s,
        h_s_given_y=h_sy,
        mi_per_symbol=h_s - h_sy,
        stderr=stderr,
        energy_split_source=float(split_src.mean()) / code.N,
        energy_split_channel=float(split_chn.mean()) / code.n,
        z_c_fraction=float(truth_mass.mean()),
    )


def ensemble_stats(system: SystemSpec, N: int, num_seeds: int, base_seed: int,
                   budget: int = DEFAULT_ENUM_BUDGET) -> AggregateReport:
    """Mean and variance of exact_mi across independently drawn codebooks."""
    if num_seeds < 1:
        raise ValueError("need at least one seed")
    reports = [exact_mi(draw_code(system, N, derive_seed(base_seed, k), budget), budget)
               for k in range(num_seeds)]
    mi = np.array([r.mi_per_symbol for r in reports])
    return AggregateReport(
        num_seeds=num_seeds,
        mi_mean=float(mi.mean()),
        mi_var=float(mi.var(ddof=1)) if num_seeds > 1 else 0.0,
        h_s_given_y_mean=float(np.mean([r.h_s_given_y for r in reports])),
        energy_split_source_mean=float(np.mean([r.energy_split_source for r in reports])),
        energy_split_channel_mean=float(np.mean([r.energy_split_channel for r in reports])),
        z_c_fraction_mean=float(np.mean([r.z_c_fraction for r in reports])),
        degenerate=num_seeds == 1,
    )
