"""CHSH game semantics: strategies, winning probability, Bell value.

`born_probabilities` is the one home of the Born rule, exact and never
sampled; `winning_probability` sums its tables and :mod:`diecert.simulate`
samples every round from them. Inputs (x, y) are always uniform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .quantum import (
    PHI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    Observable,
    ValidationError,
    _check_density,
)

BETA_MAX = 2 * math.sqrt(2)
OMEGA_MAX = (2 + math.sqrt(2)) / 4  # winning probability at maximal violation
OMEGA_CLASSICAL = 0.75


def check_score(name: str, omega: float) -> None:
    """Reject a CHSH score `name`=`omega` outside [3/4, OMEGA_MAX], up to rounding."""
    if not OMEGA_CLASSICAL - 1e-12 <= omega <= OMEGA_MAX + 1e-12:
        raise ValidationError(f"{name}={omega} outside [0.75, (2+sqrt(2))/4]")


@dataclass(frozen=True)
class Strategy:
    """A shared state plus a pair of +/-1 observables per party.

    The state lives on dim(alice) x dim(bob). This is the one check of what a
    simulated device plays: every `simulate.Source` is built from one.
    """

    state: np.ndarray
    alice_observables: tuple[Observable, Observable]
    bob_observables: tuple[Observable, Observable]

    def __post_init__(self):
        state = _check_density(self.state)
        object.__setattr__(self, "state", state)
        for party in ("alice_observables", "bob_observables"):  # tuples: `_geometry` keys on them
            pair = getattr(self, party)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                    and all(isinstance(o, Observable) for o in pair)):
                raise ValidationError(f"{party} must be a pair of Observables")
            if pair[0].dim != pair[1].dim:
                raise ValidationError("observable dimensions differ within a party")
            object.__setattr__(self, party, tuple(pair))
        da, db = self.alice_observables[0].dim, self.bob_observables[0].dim
        if state.shape[0] != da * db:
            raise ValidationError(f"state dimension {state.shape[0]} does not match {da}x{db}")


def beta_from_omega(omega: float) -> float:
    """Bell value beta = 8 omega - 4, the inverse of omega = 1/2 + beta/8."""
    return 8 * omega - 4


def born_probabilities(state, left, right) -> np.ndarray:
    """Born probabilities tr((L (x) R) state) for every projector L in `left`
    and R in `right`, row-major, with rounding negatives clipped and the table
    renormalised: the package's one map from a state to outcome statistics."""
    probs = [np.trace(np.kron(pl, pr) @ state).real for pl in left for pr in right]
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def winning_probability(strategy: Strategy) -> float:
    """Exact CHSH winning probability omega over uniform inputs.

    The game is won iff a XOR b == x AND y.
    """
    state, alice, bob = strategy.state, strategy.alice_observables, strategy.bob_observables
    omega = 0.0
    for x, y in product((0, 1), repeat=2):
        probs = born_probabilities(state, alice[x].projectors, bob[y].projectors)
        for a, b in product((0, 1), repeat=2):
            if (a ^ b) == (x & y):
                omega += probs[2 * a + b] / 4
    return float(omega)


def optimal_strategy() -> Strategy:
    """|Phi+> with Alice sigma_z/sigma_x and Bob (sigma_z +/- sigma_x)/sqrt(2)."""
    s = 1 / math.sqrt(2)
    return Strategy(
        state=PHI_PLUS,
        alice_observables=(Observable(SIGMA_Z), Observable(SIGMA_X)),
        bob_observables=(
            Observable(s * (SIGMA_Z + SIGMA_X)),
            Observable(s * (SIGMA_Z - SIGMA_X)),
        ),
    )


def deterministic_strategy(a0: int, a1: int, b0: int, b1: int) -> Strategy:
    """Local deterministic strategy outputting a = a_x, b = b_y regardless of the state.

    Encoded on |00> with sigma_z for output 0 and -sigma_z for output 1, so
    the Born tables are exact point masses and every observable pair still
    has a 2x2 Jordan block for the modified protocol to resolve.
    """
    sign = {0: SIGMA_Z, 1: -SIGMA_Z}
    if not {a0, a1, b0, b1} <= sign.keys():
        raise ValidationError(f"table bits {a0},{a1},{b0},{b1} are not all 0 or 1")
    state = np.zeros((4, 4), dtype=complex)
    state[0, 0] = 1.0
    return Strategy(
        state=state,
        alice_observables=(Observable(sign[a0]), Observable(sign[a1])),
        bob_observables=(Observable(sign[b0]), Observable(sign[b1])),
    )
