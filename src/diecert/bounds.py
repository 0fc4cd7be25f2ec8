"""Single-round entropy bounds for Bell-diagonal states under a CHSH constraint.

Analytic side: the maximal total entropy S(beta) of a Bell-diagonal state
achieving Bell value beta, the conditional-entropy bound S(beta) - 1 and the
curve g(omega) used by the rate pipeline.

Numerical side: an independent brute-force maximizer over the two-variable
constraint region, used as an oracle against the closed forms.

All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import BETA_MAX, beta_from_omega
from .quantum import BellDiagonalSpectrum, ValidationError

_SQRT2 = math.sqrt(2)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0.

    The one check of an h argument, `g`'s included: x outside [0, 1] by more
    than 1e-12 is refused, and x rounded past either end reads as that end.
    """
    if not -1e-12 <= x <= 1 + 1e-12:  # NaN fails too
        raise ValidationError(f"binary entropy argument {x} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def g(omega: float) -> float:
    """Conditional-entropy bound S(beta) - 1 = 2 h(1/2 - (2 omega - 1)/sqrt(2)) - 1
    at the Bell value beta = 8 omega - 4.

    Defined while the h argument stays in [0, 1], i.e. up to
    omega = (2+sqrt(2))/4; `binary_entropy` refuses a score past it.
    """
    return max_total_entropy(beta_from_omega(omega)) - 1


def g_prime(omega: float) -> float:
    """Derivative of g; analytic form -2 sqrt(2) log2((1-x)/x) with x the h argument."""
    x = 0.5 - (2 * omega - 1) / _SQRT2
    if not 0.0 < x < 1.0:
        raise ValidationError(f"g' undefined at omega={omega}")
    return -2 * _SQRT2 * math.log2((1 - x) / x)


def g_prime_inverse(slope: float) -> float:
    """The score at which g' equals `slope`: the h argument is x = 1/(1 + 2^a)
    with a = -slope/(2 sqrt(2)), from 2^-|a|, which underflows to 0 rather
    than overflow, so a slope too steep for floats reads as the score ends."""
    a = -slope / (2 * _SQRT2)
    t = 2.0 ** -abs(a)
    x = t / (1 + t) if a > 0 else 1 / (1 + t)
    return (1 + _SQRT2 * (0.5 - x)) / 2


def max_total_entropy(beta: float) -> float:
    """S(beta) = 2 h(1/2 - beta/(4 sqrt(2))): largest H(lambda) at Bell value beta."""
    return 2 * binary_entropy(0.5 - beta / (4 * _SQRT2))


@dataclass(frozen=True)
class EntropyBoundResult:
    """The bound at Bell value beta; H(A|B) derives from H(AB)."""

    beta: float
    max_total_entropy: float

    @property
    def conditional_bound(self) -> float:
        return self.max_total_entropy - 1


def bell_diag_entropy_bound(beta: float) -> EntropyBoundResult:
    """Maximal H(A|B) over Bell-diagonal states with Bell value beta in [2, 2 sqrt(2)].

    The marginal on B is maximally mixed, so the conditional bound is the
    maximal total entropy minus one bit.
    """
    if not 2 - 1e-12 <= beta <= BETA_MAX + 1e-12:
        raise ValidationError(f"beta={beta} outside [2, 2*sqrt(2)]")
    beta = min(max(beta, 2.0), BETA_MAX)
    return EntropyBoundResult(beta=beta, max_total_entropy=max_total_entropy(beta))


def brute_force_max_entropy(
    beta: float, grid_step: float
) -> tuple[BellDiagonalSpectrum, float]:
    """Grid-plus-zoom maximization of H(lambda) at Bell value beta.

    Scans the two free coordinates (lambda_phi_minus, lambda_psi_minus) over
    [0, 1/2]^2 in steps of `grid_step`, with lambda_phi_plus and
    lambda_psi_plus recovered from the Bell value. A point is feasible when
    all four eigenvalues are nonnegative; a negative radicand gives NaN, which
    fails that test too. The same scan then runs on a grid 8 times finer
    within one step of the best point, until the step is below 1e-8 and below
    a tenth of the least eigenvalue the entropy counts (near 2 sqrt(2) that
    eigenvalue is tiny, and the entropy's curvature in it is large). A best
    point on the edge of such a window is scanned around again at the same
    step first. Deterministic; each grid's ties resolve to the
    lexicographically smallest coordinate pair.
    """
    if not (2 < beta <= BETA_MAX + 1e-12):
        raise ValidationError(f"beta={beta} outside (2, 2*sqrt(2)]")
    beta = min(beta, BETA_MAX)
    if not (5e-4 <= grid_step <= 0.05):  # a finer grid holds over 10^6 cells
        raise ValidationError(f"grid_step={grid_step} outside [5e-4, 0.05]")

    step, zoomed = grid_step, False
    x = y = np.arange(0.0, 0.5 + grid_step / 2, grid_step)
    window = np.arange(-8, 9)  # one step either side, in steps 8 times finer
    with np.errstate(invalid="ignore", divide="ignore"):  # out-of-domain points are masked
        while True:
            lam = np.empty((4, x.size, y.size))  # (phi+, phi-, psi+, psi-) over the grid
            lam[1], lam[3] = x[:, None], y
            rest = 1 - lam[1] - lam[3]
            root = np.sqrt(beta * beta / 8 - (lam[1] - lam[3]) ** 2)
            lam[0], lam[2] = 0.5 * (rest + root), 0.5 * (rest - root)
            ent = np.where(lam > 1e-12, -lam * np.log2(lam), 0.0).sum(axis=0)
            ent[~(lam >= 0).all(axis=0)] = -np.inf
            i, j = divmod(int(ent.argmax()), y.size)
            if ent[i, j] == -np.inf:
                raise ValidationError(f"empty feasible region at beta={beta}")
            # along a thin edge of the region the best point can sit on the
            # edge of its window with better points beyond: re-centre there
            if not zoomed or 0 < i < window.size - 1 and 0 < j < window.size - 1:
                best = lam[:, i, j]
                if step < min(1e-8, best[best > 1e-12].min() / 10):
                    break
                step /= 8
            x, y = x[i] + window * step, y[j] + window * step
            zoomed = True

    lam = best.tolist()
    # The parametrization hands the plus square root to the first eigenvalue,
    # but exchanging the two sum-pair entries changes neither the entropy nor
    # the Bell value. Report in the analytic convention (phi+ is the smaller).
    if lam[0] > lam[2]:
        lam[0], lam[2] = lam[2], lam[0]
    total = sum(lam)
    spectrum = BellDiagonalSpectrum(
        lambda_phi_plus=lam[0] / total,
        lambda_phi_minus=lam[1] / total,
        lambda_psi_plus=lam[2] / total,
        lambda_psi_minus=lam[3] / total,
    )
    return spectrum, float(ent[i, j])
