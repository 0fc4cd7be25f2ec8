import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diecert.chsh import (
    BETA_MAX,
    OMEGA_CLASSICAL,
    OMEGA_MAX,
    Strategy,
    beta_from_omega,
    born_probabilities,
    check_score,
    deterministic_strategy,
    optimal_strategy,
    winning_probability,
)
from diecert.quantum import (
    MAXIMALLY_MIXED,
    PHI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    Observable,
    ValidationError,
    werner_state,
)

from oracles import SIGMA_Y, chsh_value


class TestScoreConversions:
    def test_constants(self):
        assert BETA_MAX == pytest.approx(2 * math.sqrt(2), abs=1e-15)
        assert OMEGA_MAX == pytest.approx(0.5 + BETA_MAX / 8, abs=1e-15)
        assert OMEGA_CLASSICAL == 0.75

    def test_round_trip(self):
        for beta in (-2.8, 0, 1.5, 2, 2.5, BETA_MAX):
            assert beta_from_omega(0.5 + beta / 8) == pytest.approx(beta, abs=1e-12)

    def test_classical_point(self):
        assert beta_from_omega(OMEGA_CLASSICAL) == 2


class TestCheckScore:
    @given(st.floats(OMEGA_CLASSICAL, OMEGA_MAX))
    def test_returns_a_score_in_range(self, omega):
        assert check_score("omega", omega) == omega

    @given(st.floats(0, 1e-12))
    def test_reads_a_score_rounded_past_either_end_as_that_end(self, past):
        assert check_score("omega", OMEGA_CLASSICAL - past) == OMEGA_CLASSICAL
        assert check_score("omega", OMEGA_MAX + past) == OMEGA_MAX

    @pytest.mark.parametrize("omega", [OMEGA_CLASSICAL - 2e-12, OMEGA_MAX + 2e-12])
    def test_refuses_a_score_past_either_end(self, omega):
        with pytest.raises(ValidationError, match="outside"):
            check_score("omega", omega)


def outcome_table(strategy, x, y):
    """p(a, b | x, y) as a 2x2 array, from the parties' outcome projectors."""
    return born_probabilities(
        strategy.state,
        strategy.alice_observables[x].projectors,
        strategy.bob_observables[y].projectors,
    ).reshape(2, 2)


class TestOutcomeProbabilities:
    def test_normalized_and_nonnegative(self):
        strat = optimal_strategy()
        for x, y in product((0, 1), repeat=2):
            probs = outcome_table(strat, x, y)
            assert probs.shape == (2, 2)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1, abs=1e-12)

    def test_uniform_marginals_at_optimum(self):
        strat = optimal_strategy()
        for x, y in product((0, 1), repeat=2):
            probs = outcome_table(strat, x, y)
            assert np.allclose(probs.sum(axis=1), [0.5, 0.5], atol=1e-12)
            assert np.allclose(probs.sum(axis=0), [0.5, 0.5], atol=1e-12)

    def test_deterministic_point_mass(self):
        probs = outcome_table(deterministic_strategy(1, 0, 0, 1), 0, 1)
        assert probs[1, 1] == pytest.approx(1, abs=1e-12)


class TestWinningProbability:
    def test_optimal_strategy_attains_maximum(self):
        omega = winning_probability(optimal_strategy())
        assert type(omega) is float
        assert omega == pytest.approx(OMEGA_MAX, abs=1e-12)
        assert beta_from_omega(omega) == pytest.approx(BETA_MAX, abs=1e-12)

    def test_chsh_value_matches_game_score(self):
        for strat in (optimal_strategy(), deterministic_strategy(0, 0, 0, 0)):
            assert chsh_value(strat) == pytest.approx(
                beta_from_omega(winning_probability(strat)), abs=1e-10
            )

    def test_deterministic_bound(self):
        tables = product((0, 1), repeat=4)
        scores = [winning_probability(deterministic_strategy(*t)) for t in tables]
        assert len(scores) == 16
        assert max(scores) == pytest.approx(OMEGA_CLASSICAL, abs=1e-12)
        assert min(scores) == pytest.approx(0.25, abs=1e-12)

    def test_werner_interpolation(self):
        # optimal measurements on a Werner state scale the violation linearly
        for xi in (0.0, 0.25, 0.6, 1.0):
            strat = optimal_strategy(werner_state(xi).matrix)
            assert beta_from_omega(winning_probability(strat)) == pytest.approx(
                (1 - xi) * BETA_MAX, abs=1e-10
            )

    @given(st.floats(min_value=0, max_value=1))
    def test_werner_score_formula(self, xi):
        strat = optimal_strategy(werner_state(xi).matrix)
        expected = 0.5 + (1 - xi) * BETA_MAX / 8
        assert winning_probability(strat) == pytest.approx(expected, abs=1e-9)


def _reflection(v):
    """The qubit reflection n.sigma along the direction of v."""
    n = np.asarray(v) / np.linalg.norm(v)
    return Observable(n[0] * SIGMA_X + n[1] * SIGMA_Y + n[2] * SIGMA_Z)


def random_density(entries):
    """The two-qubit density matrix G G^dagger / tr, G from 32 real `entries`."""
    re, im = np.array(entries).reshape(2, 4, 4)
    g = re + 1j * im
    rho = g @ g.conj().T
    assume(np.trace(rho).real > 1e-3)
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


_unit = st.floats(min_value=-1, max_value=1, allow_nan=False)
_direction = st.tuples(_unit, _unit, _unit).filter(lambda v: np.linalg.norm(v) > 1e-3)
ENTRIES = st.lists(_unit, min_size=32, max_size=32)
DIRECTIONS = st.lists(_direction, min_size=4, max_size=4)


class TestBornRuleAgainstCorrelators:
    """The Born tables against the independent correlator oracle chsh_value."""

    @staticmethod
    def _check(strategy):
        for x, y in product((0, 1), repeat=2):
            probs = outcome_table(strategy, x, y)
            assert np.all(probs >= 0)
            assert probs.sum() == pytest.approx(1, abs=1e-12)
        beta = 8 * winning_probability(strategy) - 4
        assert abs(beta - chsh_value(strategy)) <= 1e-12

    @given(ENTRIES)
    def test_optimal_observables(self, entries):
        opt = optimal_strategy()
        self._check(
            Strategy(
                state=random_density(entries),
                alice_observables=opt.alice_observables,
                bob_observables=opt.bob_observables,
            )
        )

    @given(ENTRIES, DIRECTIONS)
    def test_random_reflections(self, entries, directions):
        a0, a1, b0, b1 = (_reflection(v) for v in directions)
        self._check(
            Strategy(
                state=random_density(entries),
                alice_observables=(a0, a1),
                bob_observables=(b0, b1),
            )
        )


class TestStrategyValidation:
    def test_dimension_mismatch(self):
        state = np.zeros((4, 4), dtype=complex)
        state[0, 0] = 1.0
        with pytest.raises(ValidationError):
            Strategy(
                state=state,
                alice_observables=(Observable(SIGMA_Z), Observable(np.eye(4))),
                bob_observables=(Observable(SIGMA_X), Observable(SIGMA_X)),
            )

    @pytest.mark.parametrize("table", [(0, 0, 2, 0), (-1, 0, 0, 0), (0, 1, 0, 10**20)])
    def test_deterministic_table_takes_bits_only(self, table):
        # not a KeyError from the table of signs
        with pytest.raises(ValidationError, match="are not all 0 or 1"):
            deterministic_strategy(*table)

    def test_state_dimension_must_factor(self):
        state = np.zeros((8, 8), dtype=complex)
        state[0, 0] = 1.0
        with pytest.raises(ValidationError):
            Strategy(
                state=state,
                alice_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
                bob_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
            )

    @pytest.mark.parametrize("pair", [
        (Observable(SIGMA_Z),),
        (SIGMA_Z, SIGMA_X),
        np.array([SIGMA_Z, SIGMA_X]),
        Observable(SIGMA_Z),
        (Observable(SIGMA_Z), Observable(SIGMA_X), Observable(SIGMA_Z)),
    ], ids=["one-observable", "bare-arrays", "array-stack", "bare-observable", "three"])
    @pytest.mark.parametrize("party", ["alice_observables", "bob_observables"])
    def test_observables_must_be_a_pair_of_observables(self, party, pair):
        # not an IndexError or AttributeError from the dimension check
        opt = optimal_strategy()
        fields = {"alice_observables": opt.alice_observables,
                  "bob_observables": opt.bob_observables, party: pair}
        with pytest.raises(ValidationError, match=f"{party} must be a pair of Observables"):
            Strategy(opt.state, **fields)

    def test_a_list_pair_is_stored_as_a_tuple(self):
        opt = optimal_strategy()
        strategy = Strategy(opt.state, list(opt.alice_observables), list(opt.bob_observables))
        assert strategy.alice_observables == opt.alice_observables
        assert strategy.bob_observables == opt.bob_observables
        assert hash(strategy.alice_observables) == hash(opt.alice_observables)


class TestOptimalStrategy:
    def test_every_call_shares_one_set_of_observables(self):
        # observables compare by identity, so sources on the optimal ones
        # share one Jordan geometry, whoever built them
        first, second = optimal_strategy(), optimal_strategy(werner_state(0.3).matrix)
        assert first.alice_observables == second.alice_observables
        assert first.bob_observables == second.bob_observables

    def test_a_deterministic_table_plays_the_shared_sigma_z(self):
        # so two classical models on one table share a Jordan geometry too
        first = deterministic_strategy(0, 1, 1, 0)
        second = deterministic_strategy(False, True, np.int64(1), 0)
        assert first.alice_observables == second.alice_observables
        assert first.bob_observables == second.bob_observables
        assert first.alice_observables[0] is optimal_strategy().alice_observables[0]

    def test_plays_the_state_it_is_given(self):
        assert np.array_equal(optimal_strategy().state, PHI_PLUS)
        assert np.array_equal(optimal_strategy(MAXIMALLY_MIXED).state, MAXIMALLY_MIXED)
