"""Sequential Monte Carlo execution of the certification protocol.

Runs the n-round CHSH test against pluggable device models, in the standard
mode (test rounds are measured, the rest pass through) or the modified mode
(untested states are projected onto a pair of Jordan blocks and twirled in
their normal-form frame, so the kept states are Bell-diagonal two-qubit
states with the source's correlations). Also provides abort
probabilities (the exact binomial tail for a model with an `exact_score`, a
Monte Carlo estimate otherwise) and the statistical check that the modified
protocol leaves the classical statistics unchanged.

`run_protocol` asks the model for its `Source` every round and appends shared
rows: a test row from a fixed table of 16, an untested row one per block pair.
A source fills lazily: its cumulative tables, all `chsh.born_probabilities`
(test outcomes, block pairs and test outcomes given a pair), and the kept
states, which `kept_states` reads. Every model builds its sources once: a
drift round mixes the tables of two. Only whether a round draws a block pair
depends on the mode. All trials run on one seed schedule.

Randomness: every draw comes from a stream derived from the master seed and a
purpose tag, with the round index as the position in the stream. A stream is
numpy's `default_rng(SeedSequence([seed, purpose]))` (PCG64) bit for bit, but
computed here in numpy integer arithmetic, a tile at a time (`_draw`), and an
exact abort probability (`rates.binomial_tail`) is summed in `math` alone, so
this module never loads `numpy.random`. Identical (model, params, mode, seed)
always give identical transcripts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import accumulate, chain, product, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .chsh import (Strategy, born_probabilities, deterministic_strategy, optimal_strategy,
                   winning_probability)
from .quantum import (
    MAGIC_BASIS,
    MAXIMALLY_MIXED,
    TwoQubitState,
    ValidationError,
    bell_diagonal_state,
    block_projectors,
    jordan_blocks,
    twirl,  # not called here; perfbench/tracing.py counts it by this name
    werner_state,
)
from .rates import ProtocolParams, _whole, binomial_tail

# purpose tags for the derived randomness streams
_STREAM_TEST = 0
_STREAM_INPUT = 1
_STREAM_OUTCOME = 2
_STREAM_BLOCK = 4
_STREAM_TRIAL = 6

_Z95 = 1.959963984540054
MODES = ("standard", "modified")  # of run_protocol; the CLI's --protocol reads them too


class DeviceModel:
    """Base class for sequential devices.

    A model maps (round index, classical history) to this round's `Source`:
    the source state and the two pairs of binary observables. It may consult
    only the classical content of the history: measured states are gone and
    unmeasured states are out of the devices' reach.

    `run_protocol` and `kept_states` call `prepare_round` once per round, in
    order, from round 0, so it may count incrementally. Build each source once
    and return it again, so its cached tables serve every round. A model that
    defines `exact_score()` declares that it wins each round independently
    with probability gamma * score, which gives it an exact abort probability.
    """

    def prepare_round(self, i, history) -> Source:
        raise NotImplementedError


class HonestIIDDevice(DeviceModel):
    """Plays a fixed strategy every round, so its `exact_score` is the strategy's."""

    def __init__(self, strategy: Strategy):
        self._source = Source(strategy)

    def prepare_round(self, i, history):
        return self._source

    def exact_score(self) -> float:
        return winning_probability(self._source.strategy)


class ClassicalDeterministicDevice(HonestIIDDevice):
    """Local deterministic table: outputs a_x and b_y regardless of inputs' partner."""

    def __init__(self, a0: int, a1: int, b0: int, b1: int):
        super().__init__(deterministic_strategy(a0, a1, b0, b1))


class MemorySwitcherDevice(DeviceModel):
    """Alternates two strategies based on the parity of past test rounds."""

    def __init__(self, even_strategy: Strategy, odd_strategy: Strategy):
        self._sources = (Source(even_strategy), Source(odd_strategy))
        self._tests_so_far = 0

    def prepare_round(self, i, history):
        # relies on the in-order calls promised in DeviceModel's docstring
        self._tests_so_far = 0 if i == 0 else self._tests_so_far + history[-1].t
        return self._sources[self._tests_so_far % 2]


class NoisyDriftDevice(DeviceModel):
    """Werner source whose noise xi_start in [0, 1] moves by a finite xi_slope
    per round, clamped to [0, 1]. Each round mixes two sources built once, of
    |Phi+><Phi+| and I/4 under the optimal observables, as `werner_state` does."""

    def __init__(self, xi_start: float, xi_slope: float):
        werner_state(xi_start)  # the one check of xi_start
        if not math.isfinite(xi_slope):
            raise ValidationError(f"xi_slope={xi_slope} is not finite")
        self.xi_start = xi_start
        self.xi_slope = xi_slope
        self._ends = (Source(optimal_strategy()), Source(optimal_strategy(MAXIMALLY_MIXED)))

    def prepare_round(self, i, history):
        return _Mixture(min(max(self.xi_start + self.xi_slope * i, 0.0), 1.0), *self._ends)


class RoundRecord(NamedTuple):
    """Classical registers of one round, in transcript column order; None
    encodes the unset symbol."""

    t: int
    x: int | None = None
    y: int | None = None
    a: int | None = None
    b: int | None = None
    w: int | None = None
    c: int | None = None
    d: int | None = None


# every test row, at index 4 * (2x + y) + 2a + b, with its CHSH win w
_TEST_ROWS = tuple(RoundRecord(1, x, y, a, b, int(a ^ b == x & y))
                   for x, y, a, b in product((0, 1), repeat=4))


@dataclass
class Transcript:
    """One run: its classical rows and abort decision, compared by value."""

    rounds: list[RoundRecord]
    params: ProtocolParams
    win_count: int
    seed: int = 0
    mode: str = "standard"

    @property
    def aborted(self) -> bool:
        """The abort rule: fewer wins than `params.min_wins`."""
        return self.win_count < self.params.min_wins

    def lines(self):
        """The CSV text a line at a time, without newlines: the parameters and
        verdict, the column names, then each round's row as it is asked for."""
        p = self.params
        yield (
            f"# n={p.n} gamma={p.gamma!r} omega_exp={p.omega_exp!r} "
            f"delta_est={p.delta_est!r} seed={self.seed} mode={self.mode} "
            f"aborted={self.aborted} win_count={self.win_count}"
        )
        yield ",".join(("i", *RoundRecord._fields))
        text = {}  # the cells of each distinct register tuple; a run has few
        for i, r in enumerate(self.rounds):
            if r not in text:
                text[r] = ",".join("" if v is None else str(v) for v in r)
            yield f"{i},{text[r]}"


# numpy's SeedSequence (its bit_generator.pyx, pool of four words)
# and PCG64 (a 128-bit LCG with XSL-RR output), reproduced bit for bit
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TILE = 4096  # states drawn per step: 32 KB uint64 arrays


def _seed_words(entropy: list[int], words: int) -> list[int]:
    """`SeedSequence(entropy).generate_state(words)` for non-negative ints."""
    data = []
    for v in entropy:
        data.append(v & _M32)
        while v > _M32:
            v >>= 32
            data.append(v & _M32)
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v ^= h
        h = h * 0x931E8875 & _M32
        v = v * h & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(data[i] if i < len(data) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for v in data[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(v))
    h, state = 0x8B51F9DD, []
    for i in range(words):
        v = pool[i % 4] ^ h
        h = h * 0x58F38DED & _M32
        v = v * h & _M32
        state.append(v ^ v >> 16)
    return state


@cache
def _jump_sums():
    """T[i] = 1 + M + ... + M^i mod 2**128 for i < _TILE, as a read-only
    uint64 array whose rows are the high and low words, built on the first
    draw by the recurrence T[0] = 1, T[i] = M T[i - 1] + 1. Since (M - 1)
    T[j - 1] = M^j - 1, the state j steps after s is M^j s + inc T[j - 1] =
    s + (s' - s) T[j - 1], where s' = M s + inc is the state one step after s."""
    sums = list(accumulate(range(1, _TILE), lambda t, _: t * _PCG_MULT + 1 & _M128, initial=1))
    words = np.array([[t >> 64 for t in sums], [t & _M64 for t in sums]], np.uint64)
    words.setflags(write=False)
    return words


def _mul_add128(x, y: int, z: int):
    """The word rows x times y plus z, mod 2**128, as (high, low) uint64
    words; the words wrap as arrays, so no overflow warns."""
    xh, xl = x
    x1, x0 = xl >> 32, xl & _M32
    yh, yl, y1, y0 = map(np.uint64, (y >> 64, y & _M64, y >> 32 & _M32, y & _M32))
    # the high word of xl * yl from 32-bit halves; neither sum reaches 2**64
    t = x0 * y1 + (x0 * y0 >> 32)
    u = x1 * y0 + (t & _M32)
    hi, lo = x1 * y1 + (t >> 32) + (u >> 32) + xl * yh + xh * yl, xl * yl
    low = np.uint64(z & _M64)
    lo += low
    hi += np.uint64(z >> 64)
    hi += lo < low  # the carry out of each low word
    return hi, lo


def _draw(seed: int, purpose: int, n: int, convert):
    """The first n outputs of numpy's `default_rng(SeedSequence([seed,
    purpose]))`, yielded a tile at a time: each tile's outputs, `convert`ed,
    as one list of at most `_TILE` values. A tile's states are computed when
    it is asked for, by jump-ahead from its first state."""
    w = _seed_words([seed, purpose], 8)
    # generate_state(4, uint64) gives the seed state and, shifted, the increment
    state = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
    inc = (w[5] << 97 | w[4] << 65 | w[7] << 33 | w[6] << 1 | 1) & _M128
    s = (inc + state) * _PCG_MULT + inc & _M128
    sums = _jump_sums()
    for start in range(0, n, _TILE):
        k = min(n - start, _TILE)
        hi, lo = _mul_add128(sums[:, :k], (s * (_PCG_MULT - 1) + inc) & _M128, s)
        s = int(hi[-1]) << 64 | int(lo[-1])
        x, r = hi ^ lo, hi >> 58  # XSL-RR: fold, rotate by the top six bits
        yield convert(x >> r | x << (64 - r & 63)).tolist()


def _uniform(u):
    """`Generator.random`: the top 53 bits of an output over 2**53."""
    return (u >> 11) * 2.0**-53


def _input_code(u):
    """2x + y for the row (x, y) of `Generator.integers(0, 2, (n, 2))` that an
    output draws: bits 31 and 63, the top bits of its two 32-bit halves."""
    return u >> 30 & 2 | u >> 63


def _cumulative(probs) -> list[float]:
    """Left-to-right running sums of `probs`, the last raised to infinity, so
    that `bisect_right(table, u)` draws as a left-to-right scan does: the
    first k whose sum exceeds u, or the last index when u reaches the total."""
    table = list(accumulate(probs))
    table[-1] = math.inf
    return table


@lru_cache(maxsize=1)
def _geometry(obs):
    """Jordan blocks and block projectors per party of `obs`, which alone fix
    them: sources on one set of observables share them; the last set's is kept."""
    blocks = [jordan_blocks(*pair) for pair in obs]
    return blocks, tuple(block_projectors(b) for b in blocks)


class Source:
    """A checked `Strategy` and what a round reads from it (cumulative Born tables,
    block-pair distribution, kept states), each computed on first use and cached."""

    def __init__(self, strategy: Strategy):
        self.strategy, self.state = strategy, strategy.state
        self.obs = (strategy.alice_observables, strategy.bob_observables)
        self._cdfs, self._kept = {}, {}

    geometry = cached_property(lambda self: _geometry(self.obs))

    @cached_property
    def pair_cdf(self) -> list[float]:
        """`_cumulative` block-pair distribution, row-major over (c, d)."""
        _, (qa, qb) = self.geometry
        return _cumulative(born_probabilities(self.state, qa, qb).tolist())

    def sample_pair(self, u: float) -> tuple[int, int]:
        """Block pair (c, d) drawn with the uniform variate u."""
        (_, bb), _ = self.geometry
        return divmod(bisect_right(self.pair_cdf, u), len(bb))

    def outcome_cdf(self, x: int, y: int, pair=None) -> list[float]:
        """`_cumulative` Born table over (a, b) for inputs (x, y) and, if given,
        the block pair: outcome projectors times block projectors (they commute)."""
        key = (x, y, pair)
        if key not in self._cdfs:
            left, right = self.obs[0][x].projectors, self.obs[1][y].projectors
            if pair is not None:
                _, (qa, qb) = self.geometry
                left = [p @ qa[pair[0]] for p in left]
                right = [p @ qb[pair[1]] for p in right]
            self._cdfs[key] = _cumulative(born_probabilities(self.state, left, right).tolist())
        return self._cdfs[key]

    def kept(self, pair=None) -> TwoQubitState | None:
        """State kept by an untested round. With no pair: the raw source, or
        None unless it is a two-qubit state. With a block pair (c, d): the
        source reduced to the two block bases, turned locally to its
        Horodecki normal form (a diagonal correlation matrix) and twirled:
        the Bell-diagonal state of the eigenvalues of its real part in the
        magic basis, the largest on Phi+ and the rest descending, an order
        local Cliffords reach. No unitary is recorded, so the state given the
        transcript is that average and none is sampled."""
        if pair not in self._kept:
            if pair is None:
                two_qubit = self.state.shape == (4, 4)
                self._kept[None] = TwoQubitState(self.state) if two_qubit else None
            else:
                (ba, bb), _ = self.geometry
                # columns of each factor are the two block vectors
                iso = np.kron(ba[pair[0]].block_basis.T, bb[pair[1]].block_basis.T)
                m = iso.conj().T @ self.state @ iso
                tr = np.trace(m).real
                if tr <= 1e-15:
                    raise ValidationError(f"block pair {pair} has vanishing probability")
                lam = np.linalg.eigvalsh((MAGIC_BASIS.conj().T @ m @ MAGIC_BASIS).real / tr)
                rest = np.maximum(lam[2::-1], 0.0)  # all but the largest, descending
                self._kept[pair] = bell_diagonal_state([1 - rest.sum(), *rest])
        return self._kept[pair]


class _Mixture(Source):
    """The source (1 - xi) a + xi b of two sources with the same observables:
    a's Jordan geometry, tables that mix the ends' cached cumulative ones (the
    last entry kept infinite), and a state mixed when a kept state reads it."""

    def __init__(self, xi, a, b):
        self.xi, self.a, self.b, self.obs, self._kept = xi, a, b, a.obs, {}

    geometry = property(lambda self: self.a.geometry)
    pair_cdf = property(lambda self: self._mix(self.a.pair_cdf, self.b.pair_cdf))
    state = property(lambda self: (1 - self.xi) * self.a.state + self.xi * self.b.state)

    def outcome_cdf(self, x, y, pair=None):
        return self._mix(self.a.outcome_cdf(x, y, pair), self.b.outcome_cdf(x, y, pair))

    def _mix(self, p, q):
        return [*((1 - self.xi) * s + self.xi * t for s, t in zip(p[:-1], q)), math.inf]


def run_protocol(
    model: DeviceModel,
    params: ProtocolParams,
    mode: str = "standard",
    seed: int = 0,
    project_test_rounds: bool = False,
) -> Transcript:
    """Execute the n-round protocol sequentially and apply the abort rule.

    In modified mode, non-test rounds measure the Jordan block indices (c, d);
    `kept_states` gives the twirled two-qubit state each one keeps. With
    `project_test_rounds` the projection is also applied before test-round
    measurements, which must leave the classical statistics unchanged.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown protocol mode {mode!r}")
    seed = _whole(seed, "seed", 0)
    n = params.n
    modified = mode == "modified"

    streams = (
        _draw(seed, _STREAM_TEST, n, lambda u: _uniform(u) < params.gamma),
        _draw(seed, _STREAM_INPUT, n, _input_code),
        _draw(seed, _STREAM_OUTCOME, n, _uniform),
        _draw(seed, _STREAM_BLOCK, n, _uniform) if modified else repeat(repeat(None)),
    )
    untested = {None: RoundRecord(0)}  # one shared untested row per block pair
    rounds, win_count = [], 0
    # each round's (t, xy, u, u_pair): the streams read in lockstep, a tile at a time
    for t, xy, u, u_pair in chain.from_iterable(map(zip, *streams)):
        source = model.prepare_round(len(rounds), rounds)
        draws_pair = modified and (project_test_rounds or not t)
        pair = source.sample_pair(u_pair) if draws_pair else None
        if t:
            k = bisect_right(source.outcome_cdf(xy >> 1, xy & 1, pair), u)
            row = _TEST_ROWS[4 * xy + k]
            win_count += row.w
        elif pair in untested:
            row = untested[pair]
        else:
            row = untested[pair] = RoundRecord(0, c=pair[0], d=pair[1])
        rounds.append(row)

    return Transcript(
        rounds=rounds,
        params=params,
        win_count=win_count,
        seed=seed,
        mode=mode,
    )


def kept_states(model: DeviceModel, transcript: Transcript) -> list[TwoQubitState | None]:
    """Per row, `Source.kept` at the recorded block pair (none in standard
    mode), or None for a test round. Steps a fresh `model` as `run_protocol`
    does, with the transcript's earlier rows as history."""
    kept, history = [], []
    for i, r in enumerate(transcript.rounds):
        source = model.prepare_round(i, history)
        kept.append(None if r.t else source.kept(None if r.c is None else (r.c, r.d)))
        history.append(r)
    return kept


def _trial_seed(seed: int, trial: int) -> int:
    return _seed_words([seed, _STREAM_TRIAL, trial], 1)[0]


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion. At 0 successes its lower
    end is 0 and at `trials` its upper end is 1, exactly, as rounding would
    otherwise leave them about 1e-18 inside."""
    z = _Z95
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == trials else min(center + half, 1.0)
    return (lo, hi)


def estimate_abort_probability(
    model: DeviceModel,
    params: ProtocolParams,
    trials: int,
    seed: int = 0,
) -> tuple[float, tuple[float, float]]:
    """Abort probability of the protocol, with a 95% interval.

    A model with an `exact_score` declares that it wins each round
    independently with probability gamma * score, so the result is the exact
    binomial tail `rates.binomial_tail` with the interval (p, p); `trials` and
    `seed` are checked but unused. Any other model gives the abort frequency
    over `trials` runs of the seed schedule, with a Wilson interval.
    """
    trials = _whole(trials, "trials", 1)
    seed = _whole(seed, "seed", 0)
    if hasattr(model, "exact_score"):
        p = binomial_tail(params.n, params.gamma * model.exact_score(), params.min_wins)
        return p, (p, p)
    runs = (run_protocol(model, params, "standard", _trial_seed(seed, k)) for k in range(trials))
    aborts = sum(tr.aborted for tr in runs)
    return aborts / trials, wilson_interval(aborts, trials)


def run_trials(
    model: DeviceModel,
    params: ProtocolParams,
    trials: int,
    seed: int = 0,
    mode: str = "standard",
) -> tuple[Transcript, float, tuple[float, float]]:
    """Trial 0 of the schedule that `estimate_abort_probability` runs, in `mode`,
    then that function's estimate and interval."""
    seed = _whole(seed, "seed", 0)
    trials = _whole(trials, "trials", 1)
    first = run_protocol(model, params, mode, _trial_seed(seed, 0))
    return first, *estimate_abort_probability(model, params, trials, seed)


_REGISTERS = RoundRecord._fields[:6]


def _register_counts(transcripts):
    """Counts of each register's values, None for the unset symbol, and of
    aborted runs, reading the transcripts one at a time."""
    counts, aborts = {name: Counter() for name in _REGISTERS}, 0
    for tr in transcripts:
        for k, c in enumerate(counts.values()):
            c.update(map(itemgetter(k), tr.rounds))
        aborts += tr.aborted
    return counts, aborts


def check_statistics_equivalence(
    model: DeviceModel,
    params: ProtocolParams,
    trials: int,
    seed: int = 0,
) -> dict:
    """Compare classical statistics of standard vs modified runs.

    Both modes run on the same derived seed schedule; the modified runs also
    project before test-round measurements so the comparison exercises the
    projection rather than bypassing it. Marginal frequencies of each register
    must agree within 3 sigma (pooled binomial), and the abort frequencies
    must have overlapping Wilson intervals.
    """
    seed = _whole(seed, "seed", 0)
    trials = _whole(trials, "trials", 1)
    c1, ab1 = _register_counts(run_protocol(model, params, "standard", _trial_seed(seed, k))
                               for k in range(trials))
    c2, ab2 = _register_counts(run_protocol(model, params, "modified", _trial_seed(seed, k),
                                            project_test_rounds=True) for k in range(trials))
    n1 = n2 = trials * params.n
    registers = {}
    for name in _REGISTERS:
        for v in sorted(c1[name].keys() | c2[name].keys(), key=str):
            k1, k2 = c1[name][v], c2[name][v]
            f1, f2 = k1 / n1, k2 / n2
            pooled = (k1 + k2) / (n1 + n2)
            sigma = math.sqrt(max(pooled * (1 - pooled), 0.0) * (1 / n1 + 1 / n2))
            ok = abs(f1 - f2) <= 3 * sigma + 1e-12
            label = f"{name}={'bot' if v is None else v}"
            registers[label] = {"standard": f1, "modified": f2, "sigma": sigma, "passed": ok}
    i1, i2 = wilson_interval(ab1, trials), wilson_interval(ab2, trials)
    abort_ok = i1[0] <= i2[1] and i2[0] <= i1[1]
    return {
        "trials": trials,
        "passed": abort_ok and all(r["passed"] for r in registers.values()),
        "registers": registers,
        "abort": {"standard": i1, "modified": i2, "passed": abort_ok},
    }
