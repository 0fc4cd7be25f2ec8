"""CHSH game semantics: strategies, winning probability, Bell value.

`born_probabilities` is the one home of the Born rule, exact and never
sampled; :mod:`diecert.simulate` samples game rounds from it. `chsh_value`
works from the four correlators instead and so checks it independently.
Inputs (x, y) are always uniform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import product

import numpy as np

from .quantum import (
    BELL_BASIS,
    SIGMA_X,
    SIGMA_Z,
    Observable,
    TwoQubitState,
    ValidationError,
    _check_density,
)

BETA_MAX = 2 * math.sqrt(2)
OMEGA_MAX = (2 + math.sqrt(2)) / 4  # winning probability at maximal violation
OMEGA_CLASSICAL = 0.75


@dataclass(frozen=True)
class Strategy:
    """A shared state plus a pair of +/-1 observables per party.

    The state lives on dim(alice) x dim(bob); for the common two-qubit
    case this is a TwoQubitState's matrix.
    """

    state: np.ndarray
    alice_observables: tuple[Observable, Observable]
    bob_observables: tuple[Observable, Observable]

    def __post_init__(self):
        state = _check_density(self.state)
        object.__setattr__(self, "state", state)
        da = self.alice_observables[0].dim
        db = self.bob_observables[0].dim
        if self.alice_observables[1].dim != da or self.bob_observables[1].dim != db:
            raise ValidationError("observable dimensions differ within a party")
        if state.shape[0] != da * db:
            raise ValidationError(
                f"state dimension {state.shape[0]} does not match {da}x{db}"
            )

    @property
    def dims(self) -> tuple[int, int]:
        return self.alice_observables[0].dim, self.bob_observables[0].dim


@dataclass(frozen=True)
class GameScore:
    """A winning probability omega; the Bell value beta derives from it."""

    omega: float

    @property
    def beta(self) -> float:
        return beta_from_omega(self.omega)


def omega_from_beta(beta: float) -> float:
    """Winning probability omega = 1/2 + beta/8."""
    if abs(beta) > BETA_MAX + 1e-12:
        warnings.warn(f"beta={beta} outside the quantum range [-2*sqrt(2), 2*sqrt(2)]")
    return 0.5 + beta / 8


def beta_from_omega(omega: float) -> float:
    return 8 * omega - 4


def born_probabilities(state, alice_obs, bob_obs, x: int, y: int) -> np.ndarray:
    """Joint Born probabilities p(a, b | x, y) in the order (0,0), (0,1),
    (1,0), (1,1), with rounding negatives clipped and the table renormalised:
    the package's one map from a state and observables to outcome statistics."""
    pa = [alice_obs[x].projector(a) for a in (0, 1)]
    pb = [bob_obs[y].projector(b) for b in (0, 1)]
    probs = np.empty(4)
    for a, b in product((0, 1), repeat=2):
        probs[2 * a + b] = np.trace(np.kron(pa[a], pb[b]) @ state).real
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def outcome_probabilities(strategy: Strategy, x: int, y: int) -> np.ndarray:
    """Joint Born probabilities p(a, b | x, y) as a 2x2 array."""
    return born_probabilities(
        strategy.state, strategy.alice_observables, strategy.bob_observables, x, y
    ).reshape(2, 2)


def winning_probability(strategy: Strategy) -> GameScore:
    """Exact CHSH winning probability over uniform inputs.

    The game is won iff a XOR b == x AND y.
    """
    omega = 0.0
    for x, y in product((0, 1), repeat=2):
        probs = outcome_probabilities(strategy, x, y)
        for a, b in product((0, 1), repeat=2):
            if (a ^ b) == (x & y):
                omega += probs[a, b] / 4
    return GameScore(omega=omega)


def chsh_value(strategy: Strategy) -> float:
    """Bell value beta computed from the four correlators."""
    beta = 0.0
    for x, y in product((0, 1), repeat=2):
        op = np.kron(strategy.alice_observables[x].matrix, strategy.bob_observables[y].matrix)
        corr = np.trace(op @ strategy.state).real
        beta += (-1) ** (x * y) * corr
    return float(beta)


def optimal_strategy() -> Strategy:
    """|Phi+> with Alice sigma_z/sigma_x and Bob (sigma_z +/- sigma_x)/sqrt(2)."""
    phi_plus = np.outer(BELL_BASIS[:, 0], BELL_BASIS[:, 0].conj())
    s = 1 / math.sqrt(2)
    return Strategy(
        state=phi_plus,
        alice_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
        bob_observables=(
            Observable(s * (SIGMA_Z + SIGMA_X)),
            Observable(s * (SIGMA_Z - SIGMA_X)),
        ),
    )


def optimal_measurement_strategy(state: TwoQubitState) -> Strategy:
    """The optimal-CHSH observables applied to an arbitrary two-qubit state."""
    opt = optimal_strategy()
    return Strategy(
        state=state.matrix,
        alice_observables=opt.alice_observables,
        bob_observables=opt.bob_observables,
    )


def deterministic_strategy(a0: int, a1: int, b0: int, b1: int) -> Strategy:
    """Local deterministic strategy outputting a = a_x, b = b_y regardless of the state.

    Encoded on |00> with sigma_z for output 0 and -sigma_z for output 1, so
    the Born tables are exact point masses and every observable pair still
    has a 2x2 Jordan block for the modified protocol to resolve.
    """
    sign = {0: SIGMA_Z, 1: -SIGMA_Z}
    state = np.zeros((4, 4), dtype=complex)
    state[0, 0] = 1.0
    return Strategy(
        state=state,
        alice_observables=(Observable(sign[a0]), Observable(sign[a1])),
        bob_observables=(Observable(sign[b0]), Observable(sign[b1])),
    )


def all_deterministic_strategies() -> list[Strategy]:
    return [deterministic_strategy(*bits) for bits in product((0, 1), repeat=4)]
