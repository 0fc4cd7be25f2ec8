"""Sequential Monte Carlo execution of the certification protocol.

Runs the n-round CHSH test against pluggable device models, in the standard
mode (test rounds are measured, the rest pass through) or the modified mode
(untested states are projected onto a pair of Jordan blocks and twirled, so
the kept states are Bell-diagonal two-qubit states). Also provides empirical
abort-probability estimates and the statistical check that the modified
protocol leaves the classical statistics unchanged.

`run_protocol` is one loop over a lazily filled `_Source` per (state,
observables): cumulative Born tables from `chsh.born_probabilities`, the
cumulative block-pair distribution and the kept states. Only whether a round
draws a block pair depends on the mode. All trials run on one seed schedule.

Randomness: every draw comes from a stream derived from the master seed and a
purpose tag via numpy's SeedSequence, with the round index as the position in
the stream. Identical (model, params, mode, seed) always give identical
transcripts.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, count, islice
from operator import attrgetter

import numpy as np

from .chsh import Strategy, born_probabilities, winning_probability
from .quantum import (
    TwoQubitState,
    ValidationError,
    block_projectors,
    jordan_blocks,
    twirl,
    werner_state,
)
from .rates import ProtocolParams

# purpose tags for the derived randomness streams
_STREAM_TEST = 0
_STREAM_INPUT = 1
_STREAM_OUTCOME = 2
_STREAM_BLOCK = 4
_STREAM_TRIAL = 6
_STREAM_ABORT = 7

_Z95 = 1.959963984540054


class DeviceModel:
    """Base class for sequential devices.

    A model maps (round index, classical history) to this round's source state
    and the two pairs of binary observables. It may consult only the classical
    content of the history: measured states are gone and unmeasured states are
    out of the devices' reach. `iid` marks models whose behavior ignores the
    round and history entirely, which unlocks caching and bulk sampling.

    `run_protocol` calls `prepare_round` once per round, in order, from round
    0 (an iid model only at round 0), so a model may count incrementally.
    When a round returns the same objects as the round before, the cached
    source is reused, so a model must not mutate what it has returned.
    """

    iid = False

    def prepare_round(self, i, history, rng):
        raise NotImplementedError


class HonestIIDDevice(DeviceModel):
    """Plays a fixed strategy every round."""

    iid = True

    def __init__(self, strategy: Strategy):
        self.strategy = strategy

    def prepare_round(self, i, history, rng):
        s = self.strategy
        return s.state, s.alice_observables, s.bob_observables

    def exact_score(self) -> float:
        return winning_probability(self.strategy).omega


class ClassicalDeterministicDevice(HonestIIDDevice):
    """Local deterministic table: outputs a_x and b_y regardless of inputs' partner."""

    def __init__(self, a0: int, a1: int, b0: int, b1: int):
        from .chsh import deterministic_strategy

        super().__init__(deterministic_strategy(a0, a1, b0, b1))


class MemorySwitcherDevice(DeviceModel):
    """Alternates two strategies based on the parity of past test rounds."""

    def __init__(self, even_strategy: Strategy, odd_strategy: Strategy):
        self.even_strategy = even_strategy
        self.odd_strategy = odd_strategy
        self._tests_so_far = 0

    def prepare_round(self, i, history, rng):
        # relies on the in-order calls promised in DeviceModel's docstring
        self._tests_so_far = 0 if i == 0 else self._tests_so_far + history[-1].t
        s = self.even_strategy if self._tests_so_far % 2 == 0 else self.odd_strategy
        return s.state, s.alice_observables, s.bob_observables


class NoisyDriftDevice(DeviceModel):
    """Werner source whose noise grows linearly with the round index."""

    def __init__(self, xi_start: float, xi_slope: float):
        from .chsh import optimal_strategy

        self.xi_start = xi_start
        self.xi_slope = xi_slope
        opt = optimal_strategy()
        self._observables = (opt.alice_observables, opt.bob_observables)

    def prepare_round(self, i, history, rng):
        xi = min(max(self.xi_start + self.xi_slope * i, 0.0), 1.0)
        return werner_state(xi).matrix, self._observables[0], self._observables[1]


@dataclass
class RoundRecord:
    """Classical registers of one round; None encodes the unset symbol."""

    t: int
    x: int | None = None
    y: int | None = None
    a: int | None = None
    b: int | None = None
    w: int | None = None
    c: int | None = None
    d: int | None = None
    kept_state: TwoQubitState | None = field(default=None, compare=False, repr=False)


@dataclass
class Transcript:
    rounds: list[RoundRecord]
    params: ProtocolParams
    aborted: bool
    win_count: int
    seed: int = 0
    mode: str = "standard"

    def serialize(self) -> str:
        p = self.params
        lines = [
            f"# n={p.n} gamma={p.gamma!r} omega_exp={p.omega_exp!r} "
            f"delta_est={p.delta_est!r} seed={self.seed} mode={self.mode} "
            f"aborted={self.aborted} win_count={self.win_count}",
            "i,t,x,y,a,b,w,c,d",
        ]

        def cell(v):
            return "" if v is None else str(v)

        for i, r in enumerate(self.rounds):
            lines.append(
                f"{i},{r.t},{cell(r.x)},{cell(r.y)},{cell(r.a)},{cell(r.b)},"
                f"{cell(r.w)},{cell(r.c)},{cell(r.d)}"
            )
        return "\n".join(lines) + "\n"


def _stream(seed: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), purpose]))


def _cumulative(probs) -> list[float]:
    """Left-to-right running sums of `probs`, the last raised to infinity, so
    that `bisect_right(table, u)` draws as a left-to-right scan does: the
    first k whose sum exceeds u, or the last index when u reaches the total."""
    table = list(accumulate(probs))
    table[-1] = math.inf
    return table


class _Source:
    """One round's state and observables. What a round reads from them
    (cumulative Born tables, block-pair distribution, kept states) is computed
    on first use and cached; IID models reuse one source for the whole run,
    other models for as long as they return the same objects. The Jordan
    geometry depends on the observables only, so it is taken over from
    `previous` when that source has built it for the same observable objects."""

    def __init__(self, state, alice_obs, bob_obs, previous=None):
        self.state = np.asarray(state, dtype=complex)
        self.obs = (alice_obs, bob_obs)
        self._cdfs, self._kept = {}, {}
        same_obs = previous is not None and all(p is q for p, q in zip(previous.obs, self.obs))
        if same_obs and "geometry" in vars(previous):
            self.geometry = previous.geometry

    @cached_property
    def geometry(self):
        """Jordan blocks and block projectors per party."""
        blocks = [jordan_blocks(*obs) for obs in self.obs]
        return blocks, tuple(block_projectors(b) for b in blocks)

    @cached_property
    def pair_cdf(self) -> list[float]:
        """`_cumulative` block-pair distribution, row-major over (c, d)."""
        _, (qa, qb) = self.geometry
        joint = [np.trace(np.kron(pc, qd) @ self.state).real for pc in qa for qd in qb]
        joint = np.clip(joint, 0.0, None)
        return _cumulative((joint / joint.sum()).tolist())

    def sample_pair(self, u: float) -> tuple[int, int]:
        """Block pair (c, d) drawn with the uniform variate u."""
        (_, bb), _ = self.geometry
        return divmod(bisect_right(self.pair_cdf, u), len(bb))

    def outcome_cdf(self, x: int, y: int, pair=None) -> list[float]:
        """`_cumulative` Born table over (a, b) for inputs (x, y), projected
        onto the block pair first when one is given."""
        key = (x, y, pair)
        if key not in self._cdfs:
            state = self.state
            if pair is not None:
                _, (qa, qb) = self.geometry
                op = np.kron(qa[pair[0]], qb[pair[1]])
                rho = op @ state @ op
                tr = np.trace(rho).real
                state = rho / tr if tr > 1e-15 else rho
            self._cdfs[key] = _cumulative(born_probabilities(state, *self.obs, x, y).tolist())
        return self._cdfs[key]

    def kept(self, pair=None) -> TwoQubitState | None:
        """State kept by an untested round. With no pair: the raw source, or
        None unless it is a two-qubit state. With a block pair (c, d): the
        source reduced to the two block bases and twirled. The twirl unitary
        is never recorded, so the state given the transcript is the
        Bell-diagonal average and no unitary is sampled."""
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
                self._kept[pair] = twirl(TwoQubitState(m / tr))
        return self._kept[pair]


def run_protocol(
    model: DeviceModel,
    params: ProtocolParams,
    mode: str = "standard",
    seed: int = 0,
    record_kept_states: bool = True,
    project_test_rounds: bool = False,
) -> Transcript:
    """Execute the n-round protocol sequentially and apply the abort rule.

    In modified mode, non-test rounds measure the Jordan block indices (c, d),
    project accordingly and keep the twirled two-qubit state. With
    `project_test_rounds` the projection is also applied before test-round
    measurements, which must leave the classical statistics unchanged.
    """
    if mode not in ("standard", "modified"):
        raise ValidationError(f"unknown protocol mode {mode!r}")
    n = params.n
    modified = mode == "modified"

    test_draws = (_stream(seed, _STREAM_TEST).random(n) < params.gamma).tolist()
    input_draws = _stream(seed, _STREAM_INPUT).integers(0, 2, size=(n, 2)).tolist()
    outcome_draws = _stream(seed, _STREAM_OUTCOME).random(n).tolist()
    block_draws = _stream(seed, _STREAM_BLOCK).random(n).tolist()

    source = built_from = None
    rounds = []
    win_count = 0
    for i in range(n):
        if source is None or not model.iid:
            prepared = model.prepare_round(i, rounds, None)
            # same objects, same source; by identity, as arrays lack a usable ==
            if built_from is None or any(p is not q for p, q in zip(prepared, built_from)):
                source, built_from = _Source(*prepared, previous=source), prepared
        t = 1 if test_draws[i] else 0
        pair = None
        if modified and (project_test_rounds or not t):
            pair = source.sample_pair(block_draws[i])
        if t:
            x, y = input_draws[i]
            k = bisect_right(source.outcome_cdf(x, y, pair), outcome_draws[i])
            a, b = k >> 1, k & 1
            w = 1 if (a ^ b) == (x & y) else 0
            win_count += w
            rounds.append(RoundRecord(t=1, x=x, y=y, a=a, b=b, w=w))
        else:
            kept = source.kept(pair) if record_kept_states else None
            c, d = pair if pair else (None, None)
            rounds.append(RoundRecord(t=0, c=c, d=d, kept_state=kept))

    return Transcript(
        rounds=rounds,
        params=params,
        aborted=win_count < params.threshold,
        win_count=win_count,
        seed=seed,
        mode=mode,
    )


def _trial_seed(seed: int, trial: int) -> int:
    ss = np.random.SeedSequence([int(seed), _STREAM_TRIAL, trial])
    return int(ss.generate_state(1)[0])


def _transcripts(model, params, seed, mode="standard", **options):
    """The trial schedule, run on demand: trial k = 0, 1, ... is `run_protocol`
    in `mode` with seed `_trial_seed(seed, k)` and no kept states, looked up
    at each trial so that a wrapper on the module attribute sees every run."""
    for trial in count():
        yield run_protocol(
            model, params, mode, _trial_seed(seed, trial), record_kept_states=False, **options
        )


def _bulk_sampled(model) -> bool:
    """Whether abort estimates draw the model's win counts in bulk."""
    return model.iid and hasattr(model, "exact_score")


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% score interval for a binomial proportion."""
    z = _Z95
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def estimate_abort_probability(
    model: DeviceModel,
    params: ProtocolParams,
    trials: int,
    seed: int = 0,
) -> tuple[float, tuple[float, float]]:
    """Empirical abort frequency over independent trials, with a Wilson interval.

    For IID models the per-trial win count is drawn in bulk from its exact
    distribution (a binomial number of test rounds, then binomial wins at the
    model's exact score), which matches a full sequential run in distribution
    at a fraction of the cost. Other models are run round by round.
    """
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if _bulk_sampled(model):
        omega = model.exact_score()
        rng = _stream(seed, _STREAM_ABORT)
        wins = rng.binomial(rng.binomial(params.n, params.gamma, size=trials), omega)
        aborts = int(np.count_nonzero(wins < params.threshold))
    else:
        aborts = sum(tr.aborted for tr in islice(_transcripts(model, params, seed), trials))
    return aborts / trials, wilson_interval(aborts, trials)


def run_trials(
    model: DeviceModel,
    params: ProtocolParams,
    trials: int,
    seed: int = 0,
    mode: str = "standard",
) -> tuple[Transcript, float, tuple[float, float]]:
    """Trial 0 of the schedule that `estimate_abort_probability` runs, in
    `mode` and without kept states, followed by that function's estimate and
    interval. A standard-mode trial 0 is also the estimate's first trial and
    is run once."""
    runs = _transcripts(model, params, seed, mode)
    first = next(runs)
    if mode != "standard" or trials < 1 or _bulk_sampled(model):
        return first, *estimate_abort_probability(model, params, trials, seed)
    aborts = sum((tr.aborted for tr in islice(runs, trials - 1)), first.aborted)
    return first, aborts / trials, wilson_interval(aborts, trials)


_REGISTERS = ("t", "x", "y", "a", "b", "w")


def _register_counts(transcripts):
    """Counts of each register's values, None for the unset symbol, and of
    aborted runs, reading the transcripts one at a time."""
    counts, aborts = {name: Counter() for name in _REGISTERS}, 0
    for tr in transcripts:
        for name, c in counts.items():
            c.update(map(attrgetter(name), tr.rounds))
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
    if trials == 0:
        return {"trials": 0, "passed": True, "registers": {}}
    c1, ab1 = _register_counts(islice(_transcripts(model, params, seed), trials))
    c2, ab2 = _register_counts(
        islice(_transcripts(model, params, seed, "modified", project_test_rounds=True), trials)
    )
    n1 = n2 = trials * params.n
    registers = {}
    passed = True
    for name in _REGISTERS:
        for v in sorted(c1[name].keys() | c2[name].keys(), key=str):
            k1, k2 = c1[name][v], c2[name][v]
            f1, f2 = k1 / n1, k2 / n2
            pooled = (k1 + k2) / (n1 + n2)
            sigma = math.sqrt(max(pooled * (1 - pooled), 0.0) * (1 / n1 + 1 / n2))
            ok = abs(f1 - f2) <= 3 * sigma + 1e-12
            label = f"{name}={'bot' if v is None else v}"
            registers[label] = {"standard": f1, "modified": f2, "sigma": sigma, "passed": ok}
            passed = passed and ok
    i1, i2 = wilson_interval(ab1, trials), wilson_interval(ab2, trials)
    abort_ok = i1[0] <= i2[1] and i2[0] <= i1[1]
    passed = passed and abort_ok
    return {
        "trials": trials,
        "passed": passed,
        "registers": registers,
        "abort": {"standard": i1, "modified": i2, "passed": abort_ok},
    }
