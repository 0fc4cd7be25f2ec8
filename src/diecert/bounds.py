"""Single-round entropy bounds for Bell-diagonal states under a CHSH constraint.

Analytic side: the maximal total entropy S(beta) of a Bell-diagonal state
achieving Bell value beta, the conditional-entropy bound S(beta) - 1, the
spectrum attaining it, and the curve g(omega) used by the rate pipeline.

Numerical side: an independent brute-force maximizer over the two-variable
constraint region, used as an oracle against the closed forms.

All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chsh import BETA_MAX
from .quantum import BellDiagonalSpectrum, ValidationError

_SQRT2 = math.sqrt(2)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2(1-x), with h(0) = h(1) = 0."""
    if x < -1e-12 or x > 1 + 1e-12:
        raise ValidationError(f"binary entropy argument {x} outside [0, 1]")
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def g(omega: float) -> float:
    """Conditional-entropy bound 2 h(1/2 - (2 omega - 1)/sqrt(2)) - 1.

    Valid while the h argument stays in [0, 1], i.e. omega <= (2+sqrt(2))/4.
    """
    x = 0.5 - (2 * omega - 1) / _SQRT2
    if x < -1e-12 or x > 1 + 1e-12:
        raise ValidationError(
            f"g undefined at omega={omega} (h argument {x} outside [0,1]); "
            "use the piecewise tradeoff function for scores past the quantum maximum"
        )
    return 2 * binary_entropy(min(max(x, 0.0), 1.0)) - 1


def g_prime(omega: float) -> float:
    """Derivative of g; analytic form -2 sqrt(2) log2((1-x)/x) with x the h argument."""
    x = 0.5 - (2 * omega - 1) / _SQRT2
    if x <= 0.0 or x >= 1.0:
        raise ValidationError(f"g' undefined at omega={omega}")
    return -2 * _SQRT2 * math.log2((1 - x) / x)


def max_total_entropy(beta: float) -> float:
    """S(beta) = 2 h(1/2 - beta/(4 sqrt(2))): largest H(lambda) at Bell value beta."""
    return 2 * binary_entropy(0.5 - beta / (4 * _SQRT2))


def optimal_spectrum(beta: float) -> BellDiagonalSpectrum:
    """The Bell-diagonal spectrum maximizing total entropy at Bell value beta."""
    lo = 0.5 - beta / (4 * _SQRT2)
    hi = 0.5 + beta / (4 * _SQRT2)
    return BellDiagonalSpectrum(
        lambda_phi_plus=lo * lo,
        lambda_phi_minus=lo * hi,
        lambda_psi_plus=hi * hi,
        lambda_psi_minus=lo * hi,
    )


@dataclass(frozen=True)
class EntropyBoundResult:
    """The bound at Bell value beta; H(A|B) derives from H(AB)."""

    beta: float
    max_total_entropy: float
    optimal_spectrum: BellDiagonalSpectrum

    @property
    def conditional_bound(self) -> float:
        return self.max_total_entropy - 1


def bell_diag_entropy_bound(beta: float) -> EntropyBoundResult:
    """Maximal H(A|B) over Bell-diagonal states with Bell value beta in [2, 2 sqrt(2)].

    The marginal on B is maximally mixed, so the conditional bound is the
    maximal total entropy minus one bit.
    """
    if beta < 2 - 1e-12 or beta > BETA_MAX + 1e-12:
        raise ValidationError(f"beta={beta} outside [2, 2*sqrt(2)]")
    beta = min(max(beta, 2.0), BETA_MAX)
    return EntropyBoundResult(
        beta=beta,
        max_total_entropy=max_total_entropy(beta),
        optimal_spectrum=optimal_spectrum(beta),
    )


def _entropy4(lam: tuple[float, float, float, float]) -> float:
    s = 0.0
    for p in lam:
        if p > 1e-12:
            s -= p * math.log2(p)
    return s


def _lambdas_from_pair(phi_m: float, psi_m: float, beta: float):
    """Recover (phi+, psi+) from the two free coordinates, or None if infeasible."""
    if phi_m < 0 or psi_m < 0:
        return None
    rad = beta * beta / 8 - (phi_m - psi_m) ** 2
    if rad < 0:
        return None
    root = math.sqrt(rad)
    rest = 1 - phi_m - psi_m
    phi_p = 0.5 * (rest + root)
    psi_p = 0.5 * (rest - root)
    if phi_p < -1e-15 or psi_p < -1e-15:
        return None
    return (max(phi_p, 0.0), phi_m, max(psi_p, 0.0), psi_m)


def brute_force_max_entropy(
    beta: float, grid_step: float
) -> tuple[BellDiagonalSpectrum, float]:
    """Grid-plus-refinement maximization of H(lambda) at Bell value beta.

    Searches the two free coordinates (lambda_phi_minus, lambda_psi_minus)
    over the feasible region (nonnegativity, the outside-the-disk condition
    that keeps lambda_psi_plus >= 0, and a real square root), then refines the
    best grid point by coordinate descent down to step 1e-8. Deterministic;
    grid ties resolve to the lexicographically smallest coordinate pair.
    """
    if not (2 < beta <= BETA_MAX + 1e-12):
        raise ValidationError(f"beta={beta} outside (2, 2*sqrt(2)]")
    beta = min(beta, BETA_MAX)
    if not (5e-4 <= grid_step <= 0.05):  # a finer grid holds over 10^6 cells
        raise ValidationError(f"grid_step={grid_step} outside [5e-4, 0.05]")

    # vectorized grid sweep over the feasible region
    ticks = np.arange(0.0, 0.5 + grid_step / 2, grid_step)
    pm, sm = np.meshgrid(ticks, ticks, indexing="ij")
    rad = beta * beta / 8 - (pm - sm) ** 2
    rest = 1 - pm - sm
    with np.errstate(invalid="ignore"):
        root = np.sqrt(rad)
    phi_p = 0.5 * (rest + root)
    psi_p = 0.5 * (rest - root)
    feasible = (rad >= 0) & (psi_p >= 0) & (phi_p >= 0)
    if not np.any(feasible):
        raise ValidationError(f"empty feasible region at beta={beta}")

    def plogp(p):
        out = np.zeros_like(p)
        mask = p > 1e-12
        out[mask] = -p[mask] * np.log2(p[mask])
        return out

    ent = plogp(phi_p) + plogp(pm) + plogp(psi_p) + plogp(sm)
    ent[~feasible] = -np.inf
    idx = np.unravel_index(np.argmax(ent), ent.shape)
    x, y = float(pm[idx]), float(sm[idx])

    def value(px, py):
        lam = _lambdas_from_pair(px, py, beta)
        return -math.inf if lam is None else _entropy4(lam)

    # coordinate descent: shrink the stencil until it is below 1e-8
    step = grid_step
    best = value(x, y)
    while step > 1e-8:
        improved = True
        while improved:
            improved = False
            for dx, dy in ((step, 0), (-step, 0), (0, step), (0, -step)):
                cand = value(x + dx, y + dy)
                if cand > best + 1e-15:
                    x, y, best = x + dx, y + dy, cand
                    improved = True
        step /= 2

    lam = list(_lambdas_from_pair(x, y, beta))
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
    return spectrum, best
