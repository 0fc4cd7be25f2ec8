"""End-to-end soundness oracle: no certificate beats the entanglement there.

For a Bell-diagonal source with spectrum lambda that reaches CHSH score
omega, theory orders

    -g(omega) <= 1 - H(lambda) <= 1 - h(lambda_max),

the many-round certified rate, the hashing yield and the relative entropy of
entanglement (an upper bound on distillable entanglement). The first step is
an equality on `oracles.optimal_spectrum`. A finite-n certificate is at most
the many-round rate. The scores come from the package's own Born rule, with
the spectrum ordered so that the optimal-CHSH observables reach its largest
score. H is summed over every positive entry: `oracles.shannon_entropy` drops
entries below 1e-12, which can move H by 1e-11 near maximal violation.
"""

import dataclasses
import json
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from diecert.chsh import (
    BETA_MAX,
    Strategy,
    optimal_strategy,
    winning_probability,
)
from diecert.cli import main
from diecert.quantum import (
    SIGMA_X,
    SIGMA_Z,
    BellDiagonalSpectrum,
    TwoQubitState,
    bell_spectrum,
    werner_state,
)
from diecert.rates import (
    MODES,
    ErrorBudget,
    ProtocolParams,
    asymptotic_rate,
    certified_log_l,
    delta_est_for,
)
from diecert.simulate import HonestIIDDevice, Source, kept_states, run_protocol

from oracles import (
    bell_diagonal_state,
    optimal_measurement_strategy,
    optimal_spectrum,
    relative_entropy_of_entanglement,
    transcript_text,
)
from test_simulate import BLOCK_OBSERVABLES, BlockPairDevice


def _hashing(spectrum):
    """1 - H(lambda), with H in bits."""
    return 1 + sum(p * math.log2(p) for p in spectrum.as_array() if p > 0)


def _score(spectrum):
    """Score of the Bell-diagonal state under the optimal-CHSH observables,
    which is 1/2 + (lambda_phi+ - lambda_psi-)/(2 sqrt(2))."""
    return winning_probability(optimal_measurement_strategy(bell_diagonal_state(spectrum)))


def _sorted_spectrum(weights):
    """Spectrum with the weights in descending order over (Phi+, Phi-, Psi+,
    Psi-), so the optimal observables reach 2 sqrt(2)(lambda_max - lambda_min)."""
    lam = sorted((w / sum(weights) for w in weights), reverse=True)
    return BellDiagonalSpectrum(*lam)


_WEIGHTS = st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda w: sum(w) > 0)
_BETA = st.floats(2.0, BETA_MAX)
_CERTIFICATE = st.fixed_dictionaries({
    "log_n": st.floats(4.0, 12.0),
    "gamma": st.floats(1e-3, 1.0),
    "delta_est": st.floats(0.0, 0.05),
    "eps_smo": st.floats(1e-6, 3e-3),
    "mode": st.sampled_from(MODES),
})


def _certified_rate(omega, c):
    params = ProtocolParams(
        n=int(10 ** c["log_n"]), gamma=c["gamma"], omega_exp=omega, delta_est=c["delta_est"]
    )
    budget = ErrorBudget(eps_dist=1e-5, eps_snd=1e-5, eps_cmp=1e-2, eps_smo=c["eps_smo"])
    return certified_log_l(params, budget, c["mode"]).rate


class TestEntanglementOrder:
    @given(_WEIGHTS)
    def test_certified_at_most_hashing_at_most_relative_entropy(self, weights):
        spectrum = _sorted_spectrum(weights)
        hashing = _hashing(spectrum)
        asymptotic = asymptotic_rate(_score(spectrum))
        assert asymptotic <= hashing + 1e-12
        assert max(asymptotic, 0.0) <= max(hashing, 0.0) + 1e-12
        assert hashing <= relative_entropy_of_entanglement(spectrum) + 1e-12

    @given(_BETA)
    def test_optimal_spectrum_meets_the_bound(self, beta):
        # up to a local unitary: the same entropy, ordered for the observables
        spectrum = _sorted_spectrum(optimal_spectrum(beta).as_array().tolist())
        hashing = _hashing(spectrum)
        assert math.isclose(_score(spectrum), 0.5 + beta / 8, abs_tol=1e-12)
        assert math.isclose(asymptotic_rate(_score(spectrum)), hashing, abs_tol=1e-12)
        assert hashing <= relative_entropy_of_entanglement(spectrum) + 1e-12


def _block_pair_score(source, c, d):
    """The weight of block pair (c, d) in the source's state and the score of
    the state it conditions."""
    _, (qa, qb) = source.geometry
    block = np.kron(qa[c], qb[d])
    conditioned = block @ source.state @ block
    weight = np.trace(conditioned).real
    if weight < 1e-13:
        return weight, None
    conditioned_strategy = dataclasses.replace(source.strategy, state=conditioned / weight)
    return weight, winning_probability(conditioned_strategy)


# Bob's optimal CHSH pair, (sigma_z + sigma_x)/sqrt 2 and (sigma_z - sigma_x)/sqrt 2,
# on block 1, whose Alice pair is (sigma_z, sigma_x): block pair (1, 1) then
# scores 1/2 + sqrt(2)(1 - xi)/4, above 3/4
_CHSH_BOB = (BLOCK_OBSERVABLES[0], ((SIGMA_Z + SIGMA_X) / math.sqrt(2),
                                    (SIGMA_Z - SIGMA_X) / math.sqrt(2)))
_CHSH_CASES = [((0.5, 0.5), (0.0, 0.0)), ((0.3, 0.7), (0.2, 0.05))]
_ITEM_2 = (
    "ROADMAP item 2: Source.kept twirls in the Jordan-block frame, which zeroes "
    "the cross correlators that carry part of the score; 1 against 0.3991 at "
    "xi = 0 and 0.6627 against 0.3274 at xi = 0.05")


class TestKeptStateCeiling:
    """The many-round rate at a source's score never exceeds the E_R of the
    state `Source.kept` leaves for a block pair: no protocol distils more
    than the states it keeps hold."""

    @pytest.mark.xfail(strict=True, reason=_ITEM_2)
    @given(st.floats(0.0, 0.29))  # scores from OMEGA_MAX down to just above 3/4
    @example(0.0)
    @example(0.05)
    @example(0.2)
    def test_werner_source(self, xi):
        strategy = optimal_measurement_strategy(werner_state(xi))
        # qubit observables: one Jordan block per party, so one block pair
        kept = bell_spectrum(Source(strategy).kept((0, 0)))
        rate = asymptotic_rate(winning_probability(strategy))
        assert rate <= relative_entropy_of_entanglement(kept)

    @pytest.mark.parametrize("weights, noises", [
        ((0.3, 0.7), (0.0, 0.4)),
        ((0.5, 0.5), (0.05, 0.2)),
        ((0.9, 0.1), (0.2, 0.0)),
    ])
    def test_block_pair_source(self, weights, noises):
        # Block 0 plays (sigma_z, (sigma_z + sigma_x)/sqrt 2) on both sides and
        # scores 1/2 + sqrt(2)(1 - xi)/8, block 1 (sigma_z, sigma_x) and 1/2:
        # both below 3/4, so ROADMAP item 2's fault cannot show here and no
        # case is marked. The kept spectra pin the block frames of jordan_blocks.
        source = BlockPairDevice(weights, noises).source
        for c, d in product(range(2), repeat=2):
            weight, score = _block_pair_score(source, c, d)
            if c != d:  # the source never mixes blocks across parties
                assert weight < 1e-13
                continue
            xi = noises[c]
            assert score == pytest.approx(0.5 + (c == 0) * math.sqrt(2) * (1 - xi) / 8)
            kept = bell_spectrum(source.kept((c, d)))
            assert kept.as_array() == pytest.approx([1 - 3 * xi / 4, xi / 4, xi / 4, xi / 4])
            assert asymptotic_rate(score) <= relative_entropy_of_entanglement(kept)

    @pytest.mark.parametrize("weights, noises", _CHSH_CASES)
    def test_chsh_block_pair_scores(self, weights, noises):
        # the source the next test holds to its kept states: its CHSH block
        # pair beats 3/4, and its cross pairs carry no weight
        source = BlockPairDevice(weights, noises, bob=_CHSH_BOB).source
        assert _block_pair_score(source, 0, 1)[0] < 1e-13
        assert _block_pair_score(source, 1, 0)[0] < 1e-13
        weight, score = _block_pair_score(source, 1, 1)
        assert weight == pytest.approx(weights[1])
        assert score == pytest.approx(0.5 + math.sqrt(2) * (1 - noises[1]) / 4)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=_ITEM_2)
    @pytest.mark.parametrize("weights, noises", _CHSH_CASES)
    def test_chsh_block_pair_source(self, weights, noises):
        # Block 0 plays pi/4 on each side, block 1 the optimal CHSH pairs
        # (Alice sigma_z, sigma_x; Bob (sigma_z +/- sigma_x)/sqrt 2): block
        # pair (1, 1) scores 0.8536 and 0.8359 here, and its kept state loses
        # the cross correlators, as the Werner source's does
        source = BlockPairDevice(weights, noises, bob=_CHSH_BOB).source
        _, score = _block_pair_score(source, 1, 1)
        kept = bell_spectrum(source.kept((1, 1)))
        assert asymptotic_rate(score) <= relative_entropy_of_entanglement(kept)


@pytest.mark.filterwarnings("ignore:omega_exp")  # small gamma: a vacuous abort threshold
class TestFiniteCertificates:
    @given(_WEIGHTS, _CERTIFICATE)
    def test_random_spectrum(self, weights, c):
        omega = _score(_sorted_spectrum(weights))
        assume(omega >= 0.75)
        assert _certified_rate(omega, c) <= max(asymptotic_rate(omega), 0.0)

    @given(_BETA, _CERTIFICATE)
    def test_optimal_spectrum(self, beta, c):
        spectrum = _sorted_spectrum(optimal_spectrum(beta).as_array().tolist())
        omega = _score(spectrum)
        assert _certified_rate(omega, c) <= max(asymptotic_rate(omega), 0.0)


def test_simulated_werner_source_certifies_below_its_kept_states(tmp_path, capsys):
    """simulate --protocol modified on an honest Werner source, its observed
    win fraction certified with rate: the rate stays below the hashing yield
    of the twirled states the same run keeps."""
    xi, n, gamma, seed = 0.05, 20000, 0.5, 3
    out = tmp_path / "transcript.csv"
    assert main([
        "simulate", "--protocol", "modified", "--model", "honest", "--xi", repr(xi),
        "--n", str(n), "--gamma", repr(gamma), "--omega-exp", "0.8", "--trials", "1",
        "--seed", str(seed), "--out", str(out),
    ]) == 0
    win_rate = json.loads(capsys.readouterr().out)["win_rate"]
    assert main([
        "rate", "--n", str(n), "--omega-exp", repr(win_rate), "--gamma", repr(gamma),
        "--eps-smo", "1e-3",
    ]) == 0
    rate = float(dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())["rate"])

    # the CLI runs trial 0 of the schedule; its header names that run's seed
    header = dict(f.split("=") for f in out.read_text().splitlines()[0][2:].split())
    opt = optimal_strategy()
    model = HonestIIDDevice(Strategy(
        state=werner_state(xi).matrix,
        alice_observables=opt.alice_observables,
        bob_observables=opt.bob_observables,
    ))
    params = ProtocolParams(n=n, gamma=gamma, omega_exp=0.8, delta_est=delta_est_for(n, 1e-2))
    transcript = run_protocol(model, params, "modified", seed=int(header["seed"]))
    assert transcript_text(transcript) == out.read_text()

    kept = [s.matrix for s in kept_states(model, transcript) if s is not None]
    mean = bell_spectrum(TwoQubitState(np.mean(kept, axis=0)))
    hashing = _hashing(mean)
    margin = hashing - rate
    print(f"certified rate {rate:.6g} vs hashing yield {hashing:.6g} of "
          f"{len(kept)} kept states: margin {margin:.6g}")
    assert rate < hashing
