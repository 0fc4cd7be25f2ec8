import math
from bisect import bisect_right
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diecert.chsh import (
    BETA_MAX,
    OMEGA_CLASSICAL,
    OMEGA_MAX,
    Strategy,
    optimal_measurement_strategy,
    optimal_strategy,
)
from diecert.quantum import (
    Observable,
    SIGMA_X,
    SIGMA_Z,
    ValidationError,
    bell_spectrum,
    twirl,
    werner_spectrum,
    werner_state,
)
from diecert.rates import ProtocolParams, completeness_bound
from diecert.simulate import (
    ClassicalDeterministicDevice,
    DeviceModel,
    HonestIIDDevice,
    MemorySwitcherDevice,
    NoisyDriftDevice,
    check_statistics_equivalence,
    estimate_abort_probability,
    run_protocol,
    run_trials,
    wilson_interval,
)
from diecert.simulate import _cumulative


def make_params(n=5000, gamma=0.5, omega_exp=0.8, delta_est=0.05):
    return ProtocolParams(n=n, gamma=gamma, omega_exp=omega_exp, delta_est=delta_est)


def honest():
    return HonestIIDDevice(optimal_strategy())


class BlockPairDevice(DeviceModel):
    """Two 4-dimensional devices sharing a mixture over two Jordan blocks.

    Each block carries an embedded two-qubit state measured with the optimal
    observables, so the modified protocol should resolve the block pair and
    keep a Bell-diagonal two-qubit state."""

    iid = True

    def __init__(self, weights=(0.3, 0.7), noises=(0.0, 0.4)):
        embeds = [np.zeros((4, 2), dtype=complex) for _ in range(2)]
        for k in range(2):
            embeds[k][2 * k : 2 * k + 2] = np.eye(2)
        state = np.zeros((16, 16), dtype=complex)
        for k, (wgt, xi) in enumerate(zip(weights, noises)):
            iso = np.kron(embeds[k], embeds[k])
            state += wgt * iso @ werner_state(xi).matrix @ iso.conj().T
        self.state = state
        # per-block angles differ so the blocks stay spectrally separated;
        # the first observable is sigma_z on each block, which pins the
        # reduction frame to the embedding itself. Block indices come out
        # sorted by angle, so give block 0 the smaller angle.
        s = 1 / math.sqrt(2)
        second = [s * (SIGMA_Z + SIGMA_X), SIGMA_X]
        obs0 = self._lift([SIGMA_Z, SIGMA_Z], embeds)
        obs1 = self._lift(second, embeds)
        self.alice_obs = (Observable(obs0), Observable(obs1))
        self.bob_obs = (Observable(obs0), Observable(obs1))
        self.weights = weights
        self.noises = noises

    @staticmethod
    def _lift(blocks2, embeds):
        return sum(e @ m @ e.conj().T for m, e in zip(blocks2, embeds))

    def prepare_round(self, i, history, rng):
        return self.state, self.alice_obs, self.bob_obs


class TestRunProtocol:
    def test_deterministic_replay(self):
        p = make_params(n=400)
        t1 = run_protocol(honest(), p, seed=7)
        t2 = run_protocol(honest(), p, seed=7)
        assert t1.serialize() == t2.serialize()

    def test_seed_changes_transcript(self):
        p = make_params(n=400)
        t1 = run_protocol(honest(), p, seed=7)
        t2 = run_protocol(honest(), p, seed=8)
        assert t1.serialize() != t2.serialize()

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
        assert tr.aborted == (wins < p.threshold)

    def test_honest_score_concentrates(self):
        p = make_params(n=20000, gamma=0.5)
        tr = run_protocol(honest(), p, seed=3, record_kept_states=False)
        tested = sum(r.t for r in tr.rounds)
        assert tested / p.n == pytest.approx(0.5, abs=0.02)
        assert tr.win_count / tested == pytest.approx(OMEGA_MAX, abs=0.01)

    def test_classical_device_capped(self):
        p = make_params(n=20000, gamma=1.0, delta_est=0.0, omega_exp=0.75)
        best = ClassicalDeterministicDevice(0, 0, 0, 0)
        tr = run_protocol(best, p, seed=5, record_kept_states=False)
        assert tr.win_count / p.n == pytest.approx(OMEGA_CLASSICAL, abs=0.01)

    @pytest.mark.parametrize("table", list(product((0, 1), repeat=4)))
    def test_classical_tables_run_in_modified_mode(self, table):
        a_out, b_out = table[:2], table[2:]
        dev = ClassicalDeterministicDevice(*table)
        for project in (False, True):
            tr = run_protocol(
                dev, make_params(n=200), "modified", seed=6, project_test_rounds=project
            )
            for r in tr.rounds:
                if r.t:
                    assert (r.a, r.b) == (a_out[r.x], b_out[r.y])
                    assert r.w == (1 if (r.a ^ r.b) == (r.x & r.y) else 0)
                else:
                    assert (r.c, r.d) == (0, 0)
                    bell_spectrum(r.kept_state)  # raises if off-diagonal

    def test_memory_switcher_mixes_strategies(self):
        p = make_params(n=20000, gamma=0.5)
        dev = MemorySwitcherDevice(
            optimal_strategy(),
            optimal_measurement_strategy(werner_state(1.0)),
        )
        tr = run_protocol(dev, p, seed=9, record_kept_states=False)
        tested = sum(r.t for r in tr.rounds)
        # alternates a maximal strategy with a coin flip: mean near the middle
        assert tr.win_count / tested == pytest.approx(
            (OMEGA_MAX + 0.5) / 2, abs=0.02
        )

    def test_memory_switcher_follows_test_parity(self):
        even = optimal_strategy()
        odd = optimal_measurement_strategy(werner_state(1.0))
        tr = run_protocol(MemorySwitcherDevice(even, odd), make_params(n=300), seed=5)
        dev = MemorySwitcherDevice(even, odd)
        for _ in range(2):  # round 0 starts the count afresh
            for i in range(len(tr.rounds)):
                state, _, _ = dev.prepare_round(i, tr.rounds[:i], None)
                tests = sum(r.t for r in tr.rounds[:i])
                assert state is (even if tests % 2 == 0 else odd).state

    def test_drift_device_degrades(self):
        p = ProtocolParams(n=4000, gamma=1.0, omega_exp=0.75, delta_est=0.0)
        tr = run_protocol(
            NoisyDriftDevice(0.0, 1 / 4000), p, seed=2, record_kept_states=False
        )
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
        # a new Werner state every round, the same observables throughout
        import diecert.simulate as sim

        calls = []
        real = sim.jordan_blocks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sim, "jordan_blocks", counted)
        run_protocol(NoisyDriftDevice(0.0, 1e-3), make_params(n=200), "modified", seed=6)
        assert len(calls) == 2  # one per party

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            run_protocol(honest(), make_params(n=10), mode="hybrid")

    def test_standard_mode_has_no_block_registers(self):
        tr = run_protocol(honest(), make_params(n=200), mode="standard", seed=4)
        assert all(r.c is None and r.d is None for r in tr.rounds)


class TestKeptStates:
    def test_modified_kept_states_are_bell_diagonal(self):
        p = make_params(n=200)
        tr = run_protocol(honest(), p, mode="modified", seed=11)
        for r in tr.rounds:
            if r.t == 0:
                bell_spectrum(r.kept_state)  # raises if off-diagonal

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
        expected = werner_spectrum(xi).as_array()
        for r in tr.rounds:
            if r.t == 0:
                assert np.allclose(
                    bell_spectrum(r.kept_state).as_array(), expected, atol=1e-10
                )

    def test_block_pair_device_resolves_blocks(self):
        dev = BlockPairDevice()
        p = make_params(n=2000, gamma=0.2)
        tr = run_protocol(dev, p, mode="modified", seed=13)
        seen = {}
        for r in tr.rounds:
            if r.t == 0:
                assert r.c in (0, 1) and r.d in (0, 1)
                seen[(r.c, r.d)] = seen.get((r.c, r.d), 0) + 1
                spec = bell_spectrum(r.kept_state).as_array()
                expected = werner_spectrum(dev.noises[r.c]).as_array()
                assert r.c == r.d  # the source never mixes blocks across parties
                assert np.allclose(spec, expected, atol=1e-10)
        kept_total = sum(seen.values())
        assert seen[(0, 0)] / kept_total == pytest.approx(dev.weights[0], abs=0.05)

    def test_record_kept_states_flag(self):
        tr = run_protocol(
            honest(), make_params(n=100), "modified", seed=1, record_kept_states=False
        )
        assert all(r.kept_state is None for r in tr.rounds)


class TestWilsonInterval:
    def test_reference_value(self):
        lo, hi = wilson_interval(5, 10)
        assert lo == pytest.approx(0.236593090512564, abs=1e-12)
        assert hi == pytest.approx(0.763406909487436, abs=1e-12)

    def test_zero_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        for k, n in ((0, 20), (3, 17), (20, 20)):
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi
            assert 0 <= lo <= hi <= 1


class TestAbortEstimation:
    def test_honest_rarely_aborts(self):
        p = ProtocolParams(n=10**5, gamma=0.05, omega_exp=0.85, delta_est=0.005)
        est, (lo, hi) = estimate_abort_probability(honest(), p, trials=2000, seed=21)
        assert lo - 1e-9 <= est <= hi + 1e-9
        assert est <= completeness_bound(p.n, p.delta_est) + 0.01

    def test_dishonest_always_aborts(self):
        p = ProtocolParams(n=10**4, gamma=0.5, omega_exp=0.85, delta_est=0.01)
        cheat = ClassicalDeterministicDevice(0, 0, 0, 0)
        est, _ = estimate_abort_probability(cheat, p, trials=500, seed=22)
        assert est == 1.0

    def test_fast_path_matches_sequential(self):
        # moderate abort probability: the bulk-sampled estimate and the
        # round-by-round runs must agree within their joint uncertainty
        p = ProtocolParams(n=2000, gamma=0.5, omega_exp=0.85, delta_est=0.002)
        fast, fast_iv = estimate_abort_probability(honest(), p, trials=4000, seed=23)

        class SlowHonest(HonestIIDDevice):
            iid = False

        slow, slow_iv = estimate_abort_probability(
            SlowHonest(optimal_strategy()), p, trials=120, seed=23
        )
        assert fast_iv[0] <= slow_iv[1] and slow_iv[0] <= fast_iv[1]

    def test_deterministic(self):
        p = ProtocolParams(n=10**4, gamma=0.1, omega_exp=0.84, delta_est=0.01)
        a = estimate_abort_probability(honest(), p, trials=100, seed=5)
        b = estimate_abort_probability(honest(), p, trials=100, seed=5)
        assert a == b

    @pytest.mark.parametrize("mode, runs", [("standard", 3), ("modified", 4)])
    def test_run_trials_runs_standard_trial_zero_once(self, mode, runs, monkeypatch):
        import diecert.simulate as sim

        calls = []
        real = sim.run_protocol

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        model, p = NoisyDriftDevice(0.0, 1e-3), make_params(n=200)
        expected = estimate_abort_probability(model, p, trials=3, seed=9)
        monkeypatch.setattr(sim, "run_protocol", counted)
        first, *estimate = run_trials(model, p, trials=3, seed=9, mode=mode)
        assert len(calls) == runs
        assert tuple(estimate) == expected
        assert first.mode == mode
        assert all(r.kept_state is None for r in first.rounds)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValidationError):
            estimate_abort_probability(honest(), make_params(), trials=0)


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

    def test_zero_trials_edge(self):
        report = check_statistics_equivalence(honest(), make_params(), trials=0)
        assert report["passed"] and report["trials"] == 0


class TestTranscriptSerialization:
    def test_header_and_rows(self):
        p = make_params(n=20)
        tr = run_protocol(honest(), p, seed=2)
        text = tr.serialize()
        lines = text.strip().split("\n")
        assert lines[0].startswith("# n=20 ")
        assert "seed=2" in lines[0]
        assert lines[1] == "i,t,x,y,a,b,w,c,d"
        assert len(lines) == 22

    def test_unset_cells_are_empty(self):
        p = make_params(n=50, gamma=0.2)
        tr = run_protocol(honest(), p, seed=3)
        for line in tr.serialize().strip().split("\n")[2:]:
            i, t, rest = line.split(",", 2)
            if t == "0":
                assert rest == ",,,,,,"

    def test_round_trip_fields(self):
        p = make_params(n=100, gamma=0.5)
        tr = run_protocol(honest(), p, mode="modified", seed=4)
        lines = tr.serialize().strip().split("\n")[2:]
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
