import dataclasses
import math
import subprocess
import sys
import textwrap
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diecert.chsh import (
    BETA_MAX,
    OMEGA_CLASSICAL,
    OMEGA_MAX,
    Strategy,
    deterministic_strategy,
    optimal_strategy,
    winning_probability,
)
from diecert.quantum import (
    MAXIMALLY_MIXED,
    PHI_PLUS,
    Observable,
    SIGMA_X,
    SIGMA_Z,
    ValidationError,
    bell_spectrum,
    twirl,
    werner_state,
)
from diecert.rates import ProtocolParams, binomial_tail, completeness_bound
from diecert.simulate import (
    MODES,
    ClassicalDeterministicDevice,
    DeviceModel,
    HonestIIDDevice,
    MemorySwitcherDevice,
    NoisyDriftDevice,
    RoundRecord,
    Source,
    check_statistics_equivalence,
    estimate_abort_probability,
    kept_states,
    run_protocol,
    run_trials,
    wilson_interval,
)
from diecert.simulate import (
    _TILE,
    _cumulative,
    _draw,
    _input_code,
    _jump_sums,
    _trial_seed,
    _uniform,
)

from oracles import observables_from_blocks, transcript_text
from test_chsh import DIRECTIONS, ENTRIES, _reflection, random_density


def make_params(n=5000, gamma=0.5, omega_exp=0.8, delta_est=0.05):
    return ProtocolParams(n=n, gamma=gamma, omega_exp=omega_exp, delta_est=delta_est)


def honest():
    return HonestIIDDevice(optimal_strategy())


def tail_oracle(n: int, p: float, min_wins: int) -> Fraction:
    """P(W < min_wins) for W ~ Binomial(n, p), in exact rational arithmetic.

    With p = a / d and b = d - a, it sums comb(n, k) a^k b^(n-k) over
    k < min_wins and divides by d^n. Each term is an integer, so the step
    from term k to term k + 1, times (n - k) a / ((k + 1) b), divides
    exactly."""
    a, d = Fraction(p).as_integer_ratio()
    b, term, total = d - a, (d - a) ** n, 0
    for k in range(n + 1):
        if not k < min_wins:
            break
        total += term
        term = term * (n - k) * a // ((k + 1) * b)
    return Fraction(total, d**n)


def exact_abort(model, params) -> Fraction:
    """The abort probability of an iid model, by `tail_oracle`."""
    return tail_oracle(params.n, params.gamma * model.exact_score(), params.min_wins)


def close_to(got: float, want: Fraction) -> bool:
    """`got` within 1e-12 relative of `want`, in exact arithmetic."""
    return abs(Fraction(got) - want) <= want * Fraction(1, 10**12)


def poisson_binomial_below(probs, min_wins):
    """P(W < min_wins) for W the number of successes in independent trials
    with success probabilities `probs`: a DP over the counts below min_wins,
    in the arithmetic of `probs`."""
    dist = [1 if k == 0 else 0 for k in range(min_wins)]
    for p in probs:
        dist = [q * (1 - p) + (dist[k - 1] * p if k else 0) for k, q in enumerate(dist)]
    return sum(dist)


def drift_win_probabilities(model, n, gamma) -> list[float]:
    """gamma * omega(xi_i) for the n rounds of a `NoisyDriftDevice`, with
    omega(xi) = 1/2 + (1 - xi) sqrt(2)/4, the optimal score on a Werner state."""
    xis = (min(max(model.xi_start + model.xi_slope * i, 0.0), 1.0) for i in range(n))
    return [gamma * (0.5 + (1 - xi) * math.sqrt(2) / 4) for xi in xis]


def memory_abort_probability(scores, gamma, n, min_wins):
    """P(W < min_wins) for a `MemorySwitcherDevice` whose strategies score
    `scores` (even, odd): a DP over (wins below min_wins, parity of the test
    rounds so far), in the arithmetic of its inputs."""
    counts = range(min_wins)
    dist = [[1 if k == 0 else 0 for k in counts], [0 for k in counts]]
    for _ in range(n):
        new = [[q * (1 - gamma) for q in row] for row in dist]
        for parity, row in enumerate(dist):
            win, lose = gamma * scores[parity], gamma * (1 - scores[parity])
            flipped = new[1 - parity]
            for k, q in enumerate(row):
                flipped[k] += q * lose
                if k + 1 < len(row):
                    flipped[k + 1] += q * win
        dist = new
    return sum(dist[0]) + sum(dist[1])


# the models `diecert simulate --model` builds, at --xi 0.1 for honest,
# --table 1,0,1,1 for classical and the default --xi otherwise
CLI_MODELS = {
    "honest": lambda: HonestIIDDevice(optimal_strategy(werner_state(0.1).matrix)),
    "classical": lambda: ClassicalDeterministicDevice(1, 0, 1, 1),
    "memory": lambda: MemorySwitcherDevice(optimal_strategy(),
                                           optimal_strategy(werner_state(0.5).matrix)),
    "drift": lambda: NoisyDriftDevice(0.0, 1e-3),
}


_DIAGONAL = (SIGMA_Z + SIGMA_X) / math.sqrt(2)
# (first, second) observable of each block: angles pi/4 and pi/2
BLOCK_OBSERVABLES = ((SIGMA_Z, _DIAGONAL), (SIGMA_Z, SIGMA_X))


class BlockPairDevice(DeviceModel):
    """Two 4-dimensional devices sharing a mixture over two Jordan blocks.

    Each block carries an embedded two-qubit state. Alice always measures it
    with the block's (first, second) observables in `BLOCK_OBSERVABLES`; only
    Bob's per-block pairs, `bob`, can vary, and by default they are the same.
    The modified protocol should resolve the block pair and keep a
    Bell-diagonal two-qubit state."""

    def __init__(self, weights=(0.3, 0.7), noises=(0.0, 0.4), bob=BLOCK_OBSERVABLES):
        embeds = [np.zeros((4, 2), dtype=complex) for _ in range(2)]
        for k in range(2):
            embeds[k][2 * k : 2 * k + 2] = np.eye(2)
        state = np.zeros((16, 16), dtype=complex)
        for k, (wgt, xi) in enumerate(zip(weights, noises)):
            iso = np.kron(embeds[k], embeds[k])
            state += wgt * iso @ werner_state(xi).matrix @ iso.conj().T
        # per-block angles differ so the blocks stay spectrally separated;
        # a first observable of sigma_z on each block pins the reduction
        # frame to the embedding itself. Block indices come out sorted by
        # angle, so give block 0 the smaller angle.
        self.source = Source(Strategy(state, self._lift(BLOCK_OBSERVABLES, embeds),
                                      self._lift(bob, embeds)))
        self.weights = weights
        self.noises = noises

    @staticmethod
    def _lift(blocks, embeds):
        """The party's two observables, each the sum of its embedded blocks."""
        return tuple(Observable(sum(e @ pair[k] @ e.conj().T for pair, e in zip(blocks, embeds)))
                     for k in range(2))

    def prepare_round(self, i, history):
        return self.source


class RebuiltDrift(DeviceModel):
    """Drift that builds a new, checked source of `werner_state(xi).matrix`
    under the optimal observables every round, so every table comes from the
    Born rule: the reference for `NoisyDriftDevice`, whose rounds mix two end
    sources built once."""

    def __init__(self, xi_start, xi_slope):
        self.xi_start, self.xi_slope = xi_start, xi_slope

    def prepare_round(self, i, history):
        xi = min(max(self.xi_start + self.xi_slope * i, 0.0), 1.0)
        return Source(optimal_strategy(werner_state(xi).matrix))


def counting(monkeypatch, name):
    """Replace `simulate.<name>` by a wrapper that records each call's
    arguments in the returned list."""
    import diecert.simulate as sim

    calls, real = [], getattr(sim, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim, name, counted)
    return calls


class TestRunProtocol:
    def test_deterministic_replay(self):
        p = make_params(n=400)
        t1 = run_protocol(honest(), p, seed=7)
        t2 = run_protocol(honest(), p, seed=7)
        assert transcript_text(t1) == transcript_text(t2)

    def test_seed_changes_transcript(self):
        p = make_params(n=400)
        t1 = run_protocol(honest(), p, seed=7)
        t2 = run_protocol(honest(), p, seed=8)
        assert transcript_text(t1) != transcript_text(t2)

    def test_transcripts_compare_by_value(self):
        p = make_params(n=400)
        run = run_protocol(honest(), p, "modified", seed=7)
        assert run == run_protocol(honest(), p, "modified", seed=7)
        assert run != run_protocol(honest(), p, "modified", seed=8)

    def test_register_layout(self):
        p = make_params(n=300)
        tr = run_protocol(honest(), p, mode="modified", seed=1)
        assert len(tr.rounds) == 300
        wins = 0
        for r in tr.rounds:
            if r.t:
                assert None not in (r.x, r.y, r.a, r.b, r.w)
                assert r.c is None and r.d is None
                assert r.w == (1 if (r.a ^ r.b) == (r.x & r.y) else 0)
                wins += r.w
            else:
                assert (r.x, r.y, r.a, r.b, r.w) == (None,) * 5
                assert r.c is not None and r.d is not None
        assert tr.win_count == wins
        assert tr.aborted == (wins < p.min_wins)

    def test_honest_score_concentrates(self):
        p = make_params(n=20000, gamma=0.5)
        tr = run_protocol(honest(), p, seed=3)
        tested = sum(r.t for r in tr.rounds)
        assert tested / p.n == pytest.approx(0.5, abs=0.02)
        assert tr.win_count / tested == pytest.approx(OMEGA_MAX, abs=0.01)

    def test_classical_device_capped(self):
        p = make_params(n=20000, gamma=1.0, delta_est=0.0, omega_exp=0.75)
        best = ClassicalDeterministicDevice(0, 0, 0, 0)
        tr = run_protocol(best, p, seed=5)
        assert tr.win_count / p.n == pytest.approx(OMEGA_CLASSICAL, abs=0.01)

    @pytest.mark.parametrize("table", list(product((0, 1), repeat=4)))
    def test_classical_tables_run_in_modified_mode(self, table):
        a_out, b_out = table[:2], table[2:]
        dev = ClassicalDeterministicDevice(*table)
        for project in (False, True):
            tr = run_protocol(
                dev, make_params(n=200), "modified", seed=6, project_test_rounds=project
            )
            for r, state in zip(tr.rounds, kept_states(dev, tr)):
                if r.t:
                    assert (r.a, r.b) == (a_out[r.x], b_out[r.y])
                    assert r.w == (1 if (r.a ^ r.b) == (r.x & r.y) else 0)
                else:
                    assert (r.c, r.d) == (0, 0)
                    bell_spectrum(state)  # raises if off-diagonal

    def test_memory_switcher_mixes_strategies(self):
        p = make_params(n=20000, gamma=0.5)
        dev = MemorySwitcherDevice(
            optimal_strategy(),
            optimal_strategy(werner_state(1.0).matrix),
        )
        tr = run_protocol(dev, p, seed=9)
        tested = sum(r.t for r in tr.rounds)
        # alternates a maximal strategy with a coin flip: mean near the middle
        assert tr.win_count / tested == pytest.approx(
            (OMEGA_MAX + 0.5) / 2, abs=0.02
        )

    def test_memory_switcher_follows_test_parity(self):
        even = optimal_strategy()
        odd = optimal_strategy(werner_state(1.0).matrix)
        tr = run_protocol(MemorySwitcherDevice(even, odd), make_params(n=300), seed=5)
        dev = MemorySwitcherDevice(even, odd)
        for _ in range(2):  # round 0 starts the count afresh
            for i in range(len(tr.rounds)):
                source = dev.prepare_round(i, tr.rounds[:i])
                tests = sum(r.t for r in tr.rounds[:i])
                assert source.state is (even if tests % 2 == 0 else odd).state

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    def test_every_round_asks_the_model(self, mode):
        # an honest device whose subclass changes its table each round: the
        # rows follow the table of their own round, not round 0's
        tables = ((0, 0, 0, 0), (1, 0, 1, 1))

        class Alternating(HonestIIDDevice):
            odd = Source(deterministic_strategy(*tables[1]))

            def prepare_round(self, i, history):
                return self.odd if i % 2 else super().prepare_round(i, history)

        dev = Alternating(deterministic_strategy(*tables[0]))
        tr = run_protocol(dev, make_params(n=300), mode, seed=8, project_test_rounds=True)
        tested = [(i % 2, r) for i, r in enumerate(tr.rounds) if r.t]
        assert {odd for odd, _ in tested} == {0, 1}
        for odd, r in tested:
            assert (r.a, r.b) == (tables[odd][r.x], tables[odd][2 + r.y])

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("model", [honest, BlockPairDevice])
    def test_rows_are_shared(self, model, mode):
        p = make_params(n=2000, gamma=0.5)
        tr = run_protocol(model(), p, mode, seed=14)
        tested = [r for r in tr.rounds if r.t]
        untested = [r for r in tr.rounds if not r.t]
        pairs = {(r.c, r.d) for r in untested}
        assert len({id(r) for r in tested}) <= 16
        assert len({id(r) for r in untested}) == len(pairs)
        assert mode == "modified" or pairs == {(None, None)}
        assert all(r.w == int(r.a ^ r.b == r.x & r.y) for r in tested)
        assert tr.win_count == sum(r.w for r in tested)
        copied = dataclasses.replace(tr, rounds=[RoundRecord(*r) for r in tr.rounds])
        assert copied == tr == run_protocol(model(), p, mode, seed=14)

    def test_drift_device_degrades(self):
        p = ProtocolParams(n=4000, gamma=1.0, omega_exp=0.75, delta_est=0.0)
        tr = run_protocol(NoisyDriftDevice(0.0, 1 / 4000), p, seed=2)
        early = sum(r.w for r in tr.rounds[:1000])
        late = sum(r.w for r in tr.rounds[-1000:])
        assert early > late

    def test_abort_rule(self):
        impossible = ProtocolParams(
            n=1000, gamma=0.5, omega_exp=OMEGA_MAX, delta_est=0.0
        )
        assert run_protocol(honest(), impossible, seed=1).aborted
        generous = make_params(n=1000, gamma=0.5, omega_exp=0.76, delta_est=0.05)
        assert not run_protocol(honest(), generous, seed=1).aborted

    def test_drift_device_builds_jordan_geometry_once(self, monkeypatch):
        # a new noise every round, two end sources on the optimal observables:
        # one jordan_blocks call per party for the first model, and no round
        # and no second model on those observables makes another
        import diecert.simulate as sim

        sim._geometry.cache_clear()
        calls = counting(monkeypatch, "jordan_blocks")
        for n, want in ((200, 2), (400, 0)):
            calls.clear()
            run_protocol(NoisyDriftDevice(0.0, 1e-3), make_params(n=n), "modified", seed=6)
            assert len(calls) == want

    def test_sources_rebuilt_every_round_share_one_jordan_geometry(self, monkeypatch):
        # a new source every round, all on the shared optimal observables
        import diecert.simulate as sim

        sim._geometry.cache_clear()
        calls = counting(monkeypatch, "jordan_blocks")
        for n, want in ((200, 2), (400, 0)):
            calls.clear()
            run_protocol(RebuiltDrift(0.0, 1e-3), make_params(n=n), "modified", seed=6)
            assert len(calls) == want

    def test_geometry_cache_keeps_one_set_of_observables(self):
        import diecert.simulate as sim

        for model in (honest(), RebuiltDrift(0.0, 1e-3), ClassicalDeterministicDevice(1, 0, 1, 1)):
            run_protocol(model, make_params(n=100), "modified", seed=6)
            assert sim._geometry.cache_info().currsize == 1
        assert sim._geometry.cache_info().maxsize == 1

    def test_sources_on_other_observables_keep_their_own_geometry(self):
        # the cache keeps one set of observables, so sources that alternate
        # between two sets each hold the geometry of their own
        sources = [Source(optimal_strategy()), Source(deterministic_strategy(1, 0, 1, 1))]
        for source in [*sources, *sources]:
            (ba, bb), _ = source.geometry
            for blocks, pair in zip((ba, bb), source.obs):
                for got, want in zip(observables_from_blocks(blocks), pair):
                    assert np.allclose(got, want.matrix, atol=1e-10)

    def test_memory_switcher_builds_born_tables_once_per_strategy(self, monkeypatch):
        calls = counting(monkeypatch, "born_probabilities")
        dev = MemorySwitcherDevice(
            optimal_strategy(), optimal_strategy(werner_state(1.0).matrix)
        )
        run_protocol(dev, make_params(n=2000), seed=5)
        assert len(calls) <= 8  # one per (x, y) for each of the two strategies

    def test_drift_device_in_standard_mode_builds_no_jordan_geometry(self, monkeypatch):
        import diecert.simulate as sim

        def forbidden(*args):
            raise AssertionError("jordan_blocks called in standard mode")

        monkeypatch.setattr(sim, "jordan_blocks", forbidden)
        run_protocol(NoisyDriftDevice(0.0, 1e-3), make_params(n=200), seed=6)

    def test_standard_mode_draws_no_block_pairs(self, monkeypatch):
        import diecert.simulate as sim

        purposes = []
        real = sim._draw

        def recorded(seed, purpose, n, convert):
            purposes.append(purpose)
            return real(seed, purpose, n, convert)

        monkeypatch.setattr(sim, "_draw", recorded)
        run_protocol(honest(), make_params(n=50), seed=3)
        assert purposes and sim._STREAM_BLOCK not in purposes
        run_protocol(honest(), make_params(n=50), mode="modified", seed=3)
        assert sim._STREAM_BLOCK in purposes

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run_protocol(honest(), make_params(n=10), mode="hybrid")

    def test_base_model_plays_nothing(self):
        with pytest.raises(NotImplementedError):
            DeviceModel().prepare_round(0, [])

    def test_standard_mode_has_no_block_registers(self):
        tr = run_protocol(honest(), make_params(n=200), mode="standard", seed=4)
        assert all(r.c is None and r.d is None for r in tr.rounds)

    @pytest.mark.parametrize("seed", [3, 2026])
    @pytest.mark.parametrize("model", list(CLI_MODELS))
    def test_mode_changes_only_the_untested_rows(self, model, seed):
        p = make_params(n=1500, gamma=0.5, omega_exp=0.8, delta_est=0.02)
        std = run_protocol(CLI_MODELS[model](), p, "standard", seed)
        mod = run_protocol(CLI_MODELS[model](), p, "modified", seed)
        assert [r[:6] for r in std.rounds] == [r[:6] for r in mod.rounds]
        assert (std.win_count, std.aborted) == (mod.win_count, mod.aborted)
        for r in mod.rounds:
            assert (r.c, r.d) == (None, None) if r.t else None not in (r.c, r.d)


class TestKeptStates:
    def test_modified_kept_states_are_bell_diagonal(self):
        p = make_params(n=200)
        tr = run_protocol(honest(), p, mode="modified", seed=11)
        for r, state in zip(tr.rounds, kept_states(honest(), tr)):
            if r.t == 0:
                bell_spectrum(state)  # raises if off-diagonal

    def test_werner_source_keeps_werner_spectrum(self):
        # measuring sigma_z / sigma_x on both sides keeps the reduction frame
        # aligned with the computational basis, so the kept spectrum is the
        # source's own Bell spectrum
        xi = 0.3
        strat = Strategy(
            state=werner_state(xi).matrix,
            alice_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
            bob_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
        )
        dev = HonestIIDDevice(strat)
        tr = run_protocol(dev, make_params(n=100), mode="modified", seed=12)
        expected = [1 - 3 * xi / 4, xi / 4, xi / 4, xi / 4]
        for r, state in zip(tr.rounds, kept_states(dev, tr)):
            if r.t == 0:
                assert np.allclose(bell_spectrum(state).as_array(), expected, atol=1e-10)

    def test_block_pair_device_resolves_blocks(self):
        dev = BlockPairDevice()
        p = make_params(n=2000, gamma=0.2)
        tr = run_protocol(dev, p, mode="modified", seed=13)
        seen = {}
        for r, state in zip(tr.rounds, kept_states(dev, tr)):
            if r.t == 0:
                assert r.c in (0, 1) and r.d in (0, 1)
                seen[(r.c, r.d)] = seen.get((r.c, r.d), 0) + 1
                spec = bell_spectrum(state).as_array()
                xi = dev.noises[r.c]
                expected = [1 - 3 * xi / 4, xi / 4, xi / 4, xi / 4]
                assert r.c == r.d  # the source never mixes blocks across parties
                assert np.allclose(spec, expected, atol=1e-10)
        kept_total = sum(seen.values())
        assert seen[(0, 0)] / kept_total == pytest.approx(dev.weights[0], abs=0.05)

    def test_block_pair_of_zero_weight_has_no_kept_state(self):
        source = BlockPairDevice(weights=(1.0, 0.0)).prepare_round(0, [])
        with pytest.raises(ValidationError, match=r"block pair \(1, 1\) has vanishing probability"):
            source.kept((1, 1))

    def test_standard_mode_keeps_the_source_and_test_rounds_nothing(self):
        dev = HonestIIDDevice(optimal_strategy(werner_state(0.1).matrix))
        tr = run_protocol(dev, make_params(n=200), seed=4)
        kept = kept_states(dev, tr)
        assert len(kept) == len(tr.rounds)
        for r, state in zip(tr.rounds, kept):
            if r.t:
                assert state is None
            else:
                assert np.allclose(state.matrix, werner_state(0.1).matrix)

    @pytest.mark.parametrize("model", ["honest", "memory", "drift"])
    def test_steps_the_model_as_run_protocol_does(self, model, monkeypatch):
        cls = type(CLI_MODELS[model]())
        calls, real = [], cls.prepare_round

        def recorded(self, i, history):
            calls.append((i, list(history)))
            return real(self, i, history)

        monkeypatch.setattr(cls, "prepare_round", recorded)
        tr = run_protocol(CLI_MODELS[model](), make_params(n=300), "modified", seed=5)
        ran = calls.copy()
        calls.clear()
        kept_states(CLI_MODELS[model](), tr)
        assert calls == ran
        assert [i for i, _ in ran] == list(range(300))
        assert all(history == tr.rounds[:i] for i, history in ran)


def _table(cdf):
    """The probabilities behind a `_cumulative` table, the last one up to a total of 1."""
    return np.diff([0.0, *cdf[:-1], 1.0])


class TestProjectedTables:
    """Sum over (c, d) of p(c, d) p(a, b | x, y, c, d) = p(a, b | x, y): the
    modified protocol's projection leaves the test statistics as they were,
    exactly, not only within the 3 sigma of `check_statistics_equivalence`."""

    @staticmethod
    def _check(source):
        (ba, bb), _ = source.geometry
        weights = _table(source.pair_cdf)
        pairs = product(range(len(ba)), range(len(bb)))
        # a pair of weight below 1e-13 moves the sum by less than that
        kept = [(w, pair) for w, pair in zip(weights, pairs) if w >= 1e-13]
        for x, y in product((0, 1), repeat=2):
            mixed = sum(w * _table(source.outcome_cdf(x, y, pair)) for w, pair in kept)
            assert np.max(np.abs(mixed - _table(source.outcome_cdf(x, y)))) <= 1e-12

    @given(st.floats(0, 1))
    def test_werner_source(self, xi):
        self._check(Source(optimal_strategy(werner_state(xi).matrix)))

    @pytest.mark.parametrize("table", list(product((0, 1), repeat=4)))
    def test_classical_table(self, table):
        self._check(Source(deterministic_strategy(*table)))

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1))
    def test_block_pair_source(self, weight, xi0, xi1):
        self._check(BlockPairDevice((weight, 1 - weight), (xi0, xi1)).source)


class TestDriftMixture:
    """Each drift round mixes two end sources built once, |Phi+><Phi+| and I/4
    under the optimal observables; `RebuiltDrift`, a new source every round,
    is the reference."""

    @staticmethod
    def _tables(source):
        """The block-pair table, then every test-outcome table, pair or none."""
        (ba, bb), _ = source.geometry
        pairs = [None, *product(range(len(ba)), range(len(bb)))]
        return [source.pair_cdf, *(source.outcome_cdf(x, y, pair)
                                   for x, y in product((0, 1), repeat=2) for pair in pairs)]

    @given(st.floats(0, 1))
    @example(0.0)
    @example(1.0)
    def test_round_source_matches_a_rebuild(self, xi):
        mixed = NoisyDriftDevice(xi, 0.0).prepare_round(0, [])
        rebuilt = RebuiltDrift(xi, 0.0).prepare_round(0, [])
        for got, want in zip(self._tables(mixed), self._tables(rebuilt), strict=True):
            assert len(got) == len(want) and got[-1] == want[-1] == math.inf
            assert all(abs(a - b) <= 1e-15 for a, b in zip(got[:-1], want[:-1]))
        assert np.array_equal(mixed.state, werner_state(xi).matrix)
        for pair in (None, (0, 0)):
            assert np.array_equal(mixed.kept(pair).matrix, rebuilt.kept(pair).matrix)

    @pytest.mark.parametrize("xi, end", [(0.0, PHI_PLUS), (1.0, MAXIMALLY_MIXED)])
    def test_end_noise_reads_the_end_tables_exactly(self, xi, end):
        mixed = NoisyDriftDevice(xi, 0.0).prepare_round(0, [])
        assert self._tables(mixed) == self._tables(Source(Strategy(end, *mixed.obs)))

    # the second and third settings clamp at 0 after 300 rounds and at 1 after 100
    @pytest.mark.parametrize("xi_start, xi_slope", [(0.01, 2e-4), (0.3, -1e-3), (0.9, 1e-3)])
    @pytest.mark.parametrize("mode", MODES)
    def test_run_matches_a_rebuild(self, mode, xi_start, xi_slope):
        p = make_params(n=400, gamma=0.5, omega_exp=0.8, delta_est=0.02)
        run = run_protocol(NoisyDriftDevice(xi_start, xi_slope), p, mode, seed=3)
        assert run == run_protocol(RebuiltDrift(xi_start, xi_slope), p, mode, seed=3)
        got = kept_states(NoisyDriftDevice(xi_start, xi_slope), run)
        want = kept_states(RebuiltDrift(xi_start, xi_slope), run)
        for a, b in zip(got, want, strict=True):
            assert a is b is None or np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("mode", MODES)
    def test_born_rule_calls_do_not_grow_with_n(self, mode, monkeypatch):
        born = counting(monkeypatch, "born_probabilities")
        werner = counting(monkeypatch, "werner_state")
        counts = []
        for n in (200, 400):
            born.clear()
            werner.clear()
            run_protocol(NoisyDriftDevice(0.0, 1e-3), make_params(n=n), mode, seed=6)
            counts.append((len(born), len(werner)))
        assert counts[0] == counts[1]
        assert counts[0][1] == 1  # the check of xi_start


# Hermitian with trace 1 but eigenvalue 1/4 - 1/sqrt(2) < 0: played as a
# source it would be a Popescu-Rohrlich box, winning every round
PR_BOX = (np.eye(4) + math.sqrt(2) * (np.kron(SIGMA_X, SIGMA_X) + np.kron(SIGMA_Z, SIGMA_Z))) / 4
NON_STATES = {"pr-box": (PR_BOX, "negative eigenvalue"), "trace-12": (3 * np.eye(4), "trace")}


class TestSourcesAreStates:
    """A source is a checked `Strategy`, so no route plays a non-state and
    none wins CHSH above Tsirelson's bound."""

    @pytest.mark.parametrize("route", [
        lambda opt, m: Source(Strategy(m, opt.alice_observables, opt.bob_observables)),
        lambda opt, m: Source(dataclasses.replace(opt, state=m)),
        lambda opt, m: HonestIIDDevice(dataclasses.replace(opt, state=m)),
        lambda opt, m: MemorySwitcherDevice(opt, dataclasses.replace(opt, state=m)),
        lambda opt, m: Source(optimal_strategy(m)),
    ], ids=["source", "replace", "honest", "memory", "optimal"])
    @pytest.mark.parametrize("matrix, message", NON_STATES.values(), ids=NON_STATES)
    def test_every_route_refuses_a_non_state(self, route, matrix, message):
        with pytest.raises(ValidationError, match=message):
            route(optimal_strategy(), matrix)

    @pytest.mark.parametrize("build", [
        lambda opt, m: Strategy(m, opt.alice_observables, opt.bob_observables),
        lambda opt, m: optimal_strategy(m),
    ], ids=["strategy", "optimal"])
    def test_a_checked_strategy_ignores_later_writes_to_its_array(self, build):
        # a complex array was the strategy's own state before, so a PR box
        # written into it after the check won every test round
        m = np.array(PHI_PLUS, dtype=complex)
        strategy = build(optimal_strategy(), m)
        m[:] = PR_BOX
        assert winning_probability(strategy) == pytest.approx(OMEGA_MAX, abs=1e-12)
        with pytest.raises(ValueError, match="read-only"):
            strategy.state[:] = PR_BOX
        rounds = run_protocol(HonestIIDDevice(strategy), make_params(n=20_000), seed=1).rounds
        wins = [r.w for r in rounds if r.t == 1]
        assert abs(sum(wins) / len(wins) - OMEGA_MAX) < 0.02

    def test_a_source_takes_only_a_strategy(self):
        # the route from a bare matrix and observables, which played PR_BOX, is gone
        opt = optimal_strategy()
        with pytest.raises(TypeError):
            Source(PR_BOX, opt.alice_observables, opt.bob_observables)

    def test_a_source_reads_its_strategy(self):
        opt = optimal_strategy()
        source = Source(opt)
        assert source.strategy is opt and source.state is opt.state
        assert source.obs == (opt.alice_observables, opt.bob_observables)

    @given(ENTRIES, DIRECTIONS)
    def test_no_source_beats_tsirelson(self, entries, directions):
        a0, a1, b0, b1 = (_reflection(v) for v in directions)
        source = Source(Strategy(random_density(entries), (a0, a1), (b0, b1)))
        score = sum(_table(source.outcome_cdf(x, y))[2 * a + b] / 4
                    for x, y, a, b in product((0, 1), repeat=4) if a ^ b == x & y)
        assert score <= OMEGA_MAX + 1e-12


class TestWilsonInterval:
    def test_reference_value(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.236593090512564, abs=1e-12)
        assert hi == pytest.approx(0.763406909487436, abs=1e-12)

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        for k, n in ((0, 20), (3, 17), (20, 20), (0, 100), (0, 200), (0, 1000), (1000, 1000)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0 <= lo <= hi <= 1


class TestExactTail:
    @pytest.mark.parametrize("n", [1, 7, 60])
    @pytest.mark.parametrize("p", [0.05, 0.375, OMEGA_MAX])
    def test_matches_fraction_oracle(self, n, p):
        # at or below 0, on either side of the mean n * p, at the ceilings of
        # fractional thresholds, n itself and above it
        for min_wins in (-2, 0, 1, 3, round(0.3 * n), math.ceil(0.3 * n + 0.5),
                         round(0.6 * n), math.ceil(0.6 * n + 0.25), round(0.9 * n),
                         math.ceil(0.9 * n + 0.5), n, n + 1):
            assert close_to(binomial_tail(n, p, min_wins), tail_oracle(n, p, min_wins))

    @given(
        st.one_of(
            st.floats(0.0, 0.29).map(
                lambda xi: HonestIIDDevice(optimal_strategy(werner_state(xi).matrix))),
            st.tuples(*[st.integers(0, 1)] * 4).map(lambda t: ClassicalDeterministicDevice(*t)),
        ),
        st.integers(1, 10**5),
        st.floats(1e-3, 1.0),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_within_hoeffding_bound(self, model, n, gamma, at, width):
        # whenever the model's score is at least omega_exp
        score = model.exact_score()
        assume(score >= OMEGA_CLASSICAL)
        omega_exp = min(OMEGA_CLASSICAL + at * (score - OMEGA_CLASSICAL), score)
        delta = width * omega_exp * gamma
        assume(omega_exp * gamma - delta > 0)
        params = ProtocolParams(n=n, gamma=gamma, omega_exp=omega_exp, delta_est=delta)
        est, interval = estimate_abort_probability(model, params, trials=1)
        assert interval == (est, est)
        assert 0.0 <= est <= completeness_bound(n, delta)

    def test_stops_early_at_the_largest_simulate_n(self):
        # tails that underflow to 0 and to 1 as well as ones near the mean; a
        # sum that ran through every one of the 10**7 terms would take seconds
        n, p = 10**7, 0.5 * OMEGA_MAX
        start = time.perf_counter()
        assert binomial_tail(n, p, math.ceil(n * (p - 0.05))) == 0.0
        assert binomial_tail(n, p, math.ceil(n * (p + 0.05))) == 1.0
        assert 0.4 < binomial_tail(n, p, math.ceil(n * p)) < 0.6
        assert 0.4 < binomial_tail(n, p, math.ceil(n * p + 0.5)) < 0.6
        assert time.perf_counter() - start < 1.0


class TestAbortEstimation:
    def test_honest_rarely_aborts(self):
        p = ProtocolParams(n=10**5, gamma=0.05, omega_exp=0.85, delta_est=0.005)
        est, (lo, hi) = estimate_abort_probability(honest(), p, trials=2000, seed=21)
        assert lo == est == hi
        assert est <= completeness_bound(p.n, p.delta_est)

    def test_dishonest_always_aborts(self):
        p = ProtocolParams(n=10**4, gamma=0.5, omega_exp=0.85, delta_est=0.01)
        cheat = ClassicalDeterministicDevice(0, 0, 0, 0)
        est, interval = estimate_abort_probability(cheat, p, trials=500, seed=22)
        assert close_to(est, exact_abort(cheat, p)) and interval == (est, est)
        assert 1 - 1e-15 < est <= 1.0

    def test_fast_path_matches_sequential(self):
        # the exact value must lie inside the Wilson interval of round-by-round
        # runs of the same device, which estimate the same law by sampling
        p = ProtocolParams(n=2000, gamma=0.5, omega_exp=0.85, delta_est=0.002)
        exact, exact_iv = estimate_abort_probability(honest(), p, trials=4000, seed=23)
        assert close_to(exact, exact_abort(honest(), p)) and exact_iv == (exact, exact)

        class SlowHonest(DeviceModel):
            """The honest source, with no `exact_score` to declare its law."""

            source = Source(optimal_strategy())

            def prepare_round(self, i, history):
                return self.source

        slow, slow_iv = estimate_abort_probability(SlowHonest(), p, trials=120, seed=23)
        assert slow_iv[0] <= exact <= slow_iv[1]

    def test_deterministic(self):
        p = ProtocolParams(n=10**4, gamma=0.1, omega_exp=0.84, delta_est=0.01)
        a = estimate_abort_probability(honest(), p, trials=100, seed=5)
        b = estimate_abort_probability(honest(), p, trials=100, seed=5)
        assert a == b

    @pytest.mark.parametrize("mode, trials", [("standard", 3), ("modified", 4)])
    def test_run_trials_runs_standard_trial_zero_once(self, mode, trials, monkeypatch):
        # trial 0 in `mode`, then the estimate's own `trials` runs: a
        # standard-mode trial 0 is not shared with the estimate
        model, p = NoisyDriftDevice(0.0, 1e-3), make_params(n=200)
        expected = estimate_abort_probability(model, p, trials, seed=9)
        calls = counting(monkeypatch, "run_protocol")
        first, *estimate = run_trials(model, p, trials, seed=9, mode=mode)
        assert len(calls) == 1 + trials
        assert tuple(estimate) == expected
        assert first.mode == mode

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            estimate_abort_probability(honest(), make_params(), trials=0)

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    @pytest.mark.parametrize("trials", [0, -3])
    def test_run_trials_rejects_trials_before_any_run(self, trials, mode, monkeypatch):
        import diecert.simulate as sim

        def forbidden(*args, **kwargs):
            raise AssertionError("run_protocol called")

        monkeypatch.setattr(sim, "run_protocol", forbidden)
        with pytest.raises(ValidationError, match="trials"):
            run_trials(NoisyDriftDevice(0.0, 1e-3), make_params(n=3000), trials, mode=mode)


# a seed is a non-negative integer: each of these must raise ValidationError,
# not run at int(seed) or reach numpy's own ValueError
BAD_SEEDS = [1.5, True, -1]


def _drift_brute_force(probs, min_wins) -> Fraction:
    """`poisson_binomial_below` by summing every win pattern in exact arithmetic."""
    probs, total = [Fraction(p) for p in probs], Fraction(0)
    for wins in product((0, 1), repeat=len(probs)):
        if sum(wins) < min_wins:
            total += math.prod(p if w else 1 - p for p, w in zip(probs, wins))
    return total


def _memory_brute_force(scores, gamma, n, min_wins) -> Fraction:
    """`memory_abort_probability` by summing every sequence of idle, won and
    lost rounds in exact arithmetic."""
    scores, gamma, total = [Fraction(v) for v in scores], Fraction(gamma), Fraction(0)
    for rounds in product((None, 1, 0), repeat=n):
        prob, parity, wins = Fraction(1), 0, 0
        for won in rounds:
            if won is None:
                prob *= 1 - gamma
            else:
                prob *= gamma * (scores[parity] if won else 1 - scores[parity])
                wins, parity = wins + won, 1 - parity
        if wins < min_wins:
            total += prob
    return total


_PROBABILITY = st.floats(0, 1)


class TestSequentialAbortOracles:
    """The exact abort probabilities of the drift and memory models, test
    oracles for their sequential estimates, against exhaustive sums."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 8), _PROBABILITY, _PROBABILITY,
           st.floats(-0.2, 0.2), st.integers(-1, 9))
    def test_drift_dp_matches_brute_force(self, n, gamma, xi_start, xi_slope, min_wins):
        probs = drift_win_probabilities(NoisyDriftDevice(xi_start, xi_slope), n, gamma)
        assert close_to(poisson_binomial_below(probs, min_wins),
                        _drift_brute_force(probs, min_wins))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 8), st.tuples(_PROBABILITY, _PROBABILITY), _PROBABILITY,
           st.integers(-1, 9))
    def test_memory_dp_matches_brute_force(self, n, scores, gamma, min_wins):
        assert close_to(memory_abort_probability(scores, gamma, n, min_wins),
                        _memory_brute_force(scores, gamma, n, min_wins))

    def test_memory_dp_of_equal_scores_is_the_binomial_tail(self):
        # with one score the parity is idle, so the wins are binomial
        params = make_params(n=300, gamma=0.4, omega_exp=0.8, delta_est=0.02)
        score = winning_probability(optimal_strategy(werner_state(0.2).matrix))
        got = memory_abort_probability((score, score), params.gamma, params.n, params.min_wins)
        assert close_to(got, tail_oracle(params.n, params.gamma * score, params.min_wins))


class TestSeedValidation:
    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_run_protocol(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            run_protocol(honest(), make_params(n=10), seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    @pytest.mark.parametrize("model", [honest, lambda: NoisyDriftDevice(0.0, 1e-3)])
    def test_run_trials_and_estimate(self, seed, model):
        p = make_params(n=10)
        with pytest.raises(ValidationError, match="seed"):
            run_trials(model(), p, trials=2, seed=seed)
        with pytest.raises(ValidationError, match="seed"):
            estimate_abort_probability(model(), p, trials=2, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    @pytest.mark.parametrize("trials", [0, 1])
    def test_check_statistics_equivalence(self, seed, trials):
        # the seed is checked first, as run_trials checks it, so it is named
        # even beside a trial count of 0, which is bad too
        with pytest.raises(ValidationError, match="seed"):
            check_statistics_equivalence(honest(), make_params(n=10), trials, seed)

    def test_numpy_integer_seed_is_its_int(self):
        p = make_params(n=300)
        run = run_protocol(honest(), p, seed=np.int64(7))
        assert run == run_protocol(honest(), p, seed=7)
        assert type(run.seed) is int and "seed=7 " in transcript_text(run)
        assert estimate_abort_probability(honest(), p, 5, np.uint32(7)) == \
            estimate_abort_probability(honest(), p, 5, 7)


# a count is a whole number: each of these must raise ValidationError naming
# the argument, not run at int(value), be ignored or reach islice's ValueError
BAD_COUNTS = [1.5, 10.0, True, -1, 0]


class TestCountValidation:
    @pytest.mark.parametrize("n", BAD_COUNTS)
    def test_protocol_params_n(self, n):
        with pytest.raises(ValidationError, match=f"^n={n!r} "):
            make_params(n=n)

    @pytest.mark.parametrize("trials", BAD_COUNTS)
    @pytest.mark.parametrize("model", [honest, lambda: NoisyDriftDevice(0.0, 1e-3)])
    @pytest.mark.parametrize("entry", [estimate_abort_probability, run_trials,
                                       check_statistics_equivalence])
    def test_trials(self, entry, model, trials):
        with pytest.raises(ValidationError, match=f"^trials={trials!r} "):
            entry(model(), make_params(n=10), trials)

    def test_numpy_integer_n_is_its_int(self):
        assert type(make_params(n=np.int64(10)).n) is int


class TestStatisticsEquivalence:
    def test_honest_device_passes(self):
        p = make_params(n=20000, gamma=0.5, omega_exp=0.8, delta_est=0.05)
        report = check_statistics_equivalence(honest(), p, trials=2, seed=31)
        assert report["passed"]
        assert report["abort"]["passed"]
        assert all(v["passed"] for v in report["registers"].values())

    def test_block_pair_device_passes(self):
        p = make_params(n=4000, gamma=0.5, omega_exp=0.8, delta_est=0.05)
        report = check_statistics_equivalence(BlockPairDevice(), p, trials=2, seed=32)
        assert report["passed"]

    def test_rejects_negative_trials_before_any_run(self, monkeypatch):
        import diecert.simulate as sim

        def forbidden(*args, **kwargs):
            raise AssertionError("run_protocol called")

        monkeypatch.setattr(sim, "run_protocol", forbidden)
        with pytest.raises(ValidationError):
            check_statistics_equivalence(honest(), make_params(), trials=-1)


class TestTranscriptSerialization:
    def test_header_and_rows(self):
        p = make_params(n=20)
        tr = run_protocol(honest(), p, seed=2)
        text = transcript_text(tr)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# n=20 ")
        assert "seed=2" in lines[0]
        assert lines[1] == "i,t,x,y,a,b,w,c,d"
        assert len(lines) == 22

    def test_numpy_numbers_write_the_python_header(self):
        # stored as Python numbers, so every repr in the header round-trips
        p = ProtocolParams(n=np.int64(20), gamma=np.float64(0.5), omega_exp=np.float64(0.8),
                           delta_est=np.float32(0.05))
        twin = ProtocolParams(n=20, gamma=0.5, omega_exp=0.8, delta_est=float(np.float32(0.05)))
        text = transcript_text(run_protocol(honest(), p, seed=3))
        assert text == transcript_text(run_protocol(honest(), twin, seed=3))
        assert text.startswith("# n=20 gamma=0.5 omega_exp=0.8 delta_est=0.05000000074505806 ")

    def test_unset_cells_are_empty(self):
        p = make_params(n=50, gamma=0.2)
        tr = run_protocol(honest(), p, seed=3)
        for line in transcript_text(tr).strip().split("\n")[2:]:
            i, t, rest = line.split(",", 2)
            if t == "0":
                assert rest == ",,,,,,"

    def test_round_trip_fields(self):
        p = make_params(n=100, gamma=0.5)
        tr = run_protocol(honest(), p, mode="modified", seed=4)
        lines = transcript_text(tr).strip().split("\n")[2:]
        for line, r in zip(lines, tr.rounds):
            cells = line.split(",")
            assert cells[1] == str(r.t)
            if r.t == 0:
                assert cells[7] == str(r.c) and cells[8] == str(r.d)


def _scan(probs, u):
    """Reference draw: the first k whose left-to-right running sum exceeds u."""
    acc = 0.0
    for k, p in enumerate(probs):
        acc += p
        if u < acc:
            return k
    return len(probs) - 1


@st.composite
def _table_and_variate(draw):
    weights = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(1e-9, 1.0),
                            min_size=1, max_size=16))
    assume(sum(weights) > 0)
    # totals of one and just under it
    scale = draw(st.sampled_from([1.0, 1 - 2**-53, 1 - 1e-12, 1 - 1e-6])) / sum(weights)
    probs = [w * scale for w in weights]
    sums = list(accumulate(probs))
    u = draw(
        st.floats(0.0, 1.0, exclude_max=True)
        | st.sampled_from(sums)  # exactly on a running sum
        | st.sampled_from([math.nextafter(c, 0.0) for c in sums])
        | st.floats(sums[-1], max(sums[-1], 1.0))  # at or above the total
    )
    return probs, u


class TestDraw:
    @given(_table_and_variate())
    def test_cumulative_draw_breaks_ties_as_left_to_right_scan(self, case):
        probs, u = case
        assert bisect_right(_cumulative(probs), u) == _scan(probs, u)


def _numpy_stream(seed, purpose):
    return np.random.default_rng(np.random.SeedSequence([seed, purpose]))


# one-word, boundary and multi-word seeds (more than the four-word pool of
# SeedSequence once the purpose and trial words are added)
_SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70]) | st.integers(
    0, 2**70
)
_LENGTHS = st.sampled_from(
    [1, 2, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE - 1, 2 * _TILE, 2 * _TILE + 1]
) | st.integers(1, 3 * _TILE)


class TestStreams:
    """`_draw` reproduces numpy's default generator bit for bit, a tile at a time."""

    @given(_SEEDS, st.sampled_from([0, 1, 2, 4]), _LENGTHS)
    def test_uniforms_equal_generator_random(self, seed, purpose, n):
        tiles = list(_draw(seed, purpose, n, _uniform))
        assert all(type(tile) is list for tile in tiles)
        assert [len(tile) for tile in tiles] == [min(_TILE, n - k) for k in range(0, n, _TILE)]
        assert list(chain.from_iterable(tiles)) == _numpy_stream(seed, purpose).random(n).tolist()

    @given(_SEEDS, st.sampled_from([0, 1, 2, 4]), _LENGTHS)
    def test_input_codes_equal_generator_integers(self, seed, purpose, n):
        rows = _numpy_stream(seed, purpose).integers(0, 2, size=(n, 2)).tolist()
        codes = chain.from_iterable(_draw(seed, purpose, n, _input_code))
        assert [[k >> 1, k & 1] for k in codes] == rows

    @pytest.mark.parametrize("mode", ["standard", "modified"])
    def test_run_holds_its_transcript_and_a_tile_of_draws(self, mode):
        # n-long draw lists would peak near 10 MB here, against 1.6 MB kept
        model = honest()
        _jump_sums()
        run_protocol(model, make_params(n=100), mode, seed=1)  # builds the source's tables
        tracemalloc.start()
        try:
            tr = run_protocol(model, make_params(n=200_000), mode, seed=3)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tr.rounds) == 200_000
        assert peak < kept + 2 * 2**20

    @given(_SEEDS, st.integers(0, 2**40))
    def test_trial_seed_equals_seed_sequence(self, seed, trial):
        words = np.random.SeedSequence([seed, 6, trial]).generate_state(1)
        assert _trial_seed(seed, trial) == int(words[0])


def test_simulate_never_loads_numpy_random():
    """Every model, in both protocols, draws its streams and gets its abort
    probability without numpy.random."""
    program = textwrap.dedent("""
        import contextlib, io, sys
        import numpy
        if "numpy.random" in sys.modules:
            print("preloaded")
            sys.exit()
        from diecert import cli
        common = ["--n", "300", "--gamma", "0.5", "--omega-exp", "0.8",
                  "--delta-est", "0.02", "--trials", "3", "--seed", "5"]
        models = (["drift", "--xi", "0.02", "--xi-slope", "1e-4"], ["memory", "--xi", "0.6"],
                  ["honest", "--xi", "0.05"], ["classical", "--table", "1,0,1,1"])
        with contextlib.redirect_stdout(io.StringIO()):
            for model in models:
                for protocol in ("standard", "modified"):
                    assert cli.main(["simulate", "--model", *model, "--protocol", protocol,
                                     *common]) == 0
        print("numpy.random" in sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "preloaded":
        pytest.skip("this numpy loads numpy.random on import")
    assert proc.stdout.strip() == "False"
