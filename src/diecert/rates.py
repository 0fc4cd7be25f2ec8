"""Certified distillation rates from accumulated CHSH statistics.

Pipeline: the piecewise tradeoff function f, its tangent-line completion
f_max, the finite-size correction eta, the minimized eta_opt, and the
certified log L = -n eta_opt - 4 log2(1/(sqrt(eps_dist) - eps_smo)) and rate.
A deterministic nested search over the free parameters (test probability
gamma and smoothing epsilon) maximizes the rate.

The second-order gradient term has two conventions, selectable via `mode`:
"printed" uses |dg/dp(1)| at the cutoff point, "ceiling" uses the integer
ceiling of the tangent slope magnitude. The curves produced with "ceiling"
match the published finite-n rate plots; "printed" is the literal formula.

Each rule has one home: `_f` is the only piecewise f, `_fmax` its tangent
completion and `_eta_scalar` eta, all at a scalar cutoff score that eta_opt
alone picks from (3/4, (2+sqrt(2))/4); `_v_half` is v/2, `_kappa` the
smoothing factor and its domain, `_budget_term` the log(1/eps) term and
`ErrorBudget` the budget's ranges, checked before any search. `RateCertificate`
keeps what eta_opt found and derives p_t, v, log L and the rate from it, so log L
has one formula. `_minimize` is the only search: a fixed scan grid plus golden
section returning the best item it built: (eta, cutoff) pairs in eta_opt, and
the certificates optimize_parameters returns, by rate. Runs are bit-identical.
On the completeness side, `binomial_tail` is the exact abort probability of a
device that wins each round independently, and `completeness_bound` its
Hoeffding bound.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
import warnings
from dataclasses import dataclass, replace

from .bounds import g, g_prime
from .chsh import OMEGA_CLASSICAL, OMEGA_MAX, check_score
from .quantum import ValidationError

MODES = ("printed", "ceiling")
_LOG2_5 = math.log2(5)
_GOLDEN = (1 + math.sqrt(5)) / 2
_EDGE = 1e-9  # open-interval endpoints are shrunk by this much


def _whole(value, name: str, least: int) -> int:
    """`value` as an int, if it is an integer (numpy's too, not a bool) of at
    least `least`: a count or a seed."""
    try:
        if isinstance(value, bool):
            raise TypeError
        k = operator.index(value)
    except TypeError:
        raise ValidationError(f"{name}={value!r} is not an integer") from None
    if k < least:
        raise ValidationError(f"{name}={k} is less than {least}")
    return k


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol arguments: rounds, test probability, target score, confidence width."""

    n: int
    gamma: float
    omega_exp: float
    delta_est: float

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "n", 1))
        if not (0 <= self.gamma <= 1):
            raise ValidationError(f"gamma={self.gamma} outside [0, 1]")
        if 0 < self.gamma < sys.float_info.min:  # scores times gamma would round away
            raise ValidationError(f"gamma={self.gamma} is subnormal")
        check_score("omega_exp", self.omega_exp)
        if not (0 <= self.delta_est < 1):
            raise ValidationError(f"delta_est={self.delta_est} outside [0, 1)")
        if self.min_wins <= 0:
            warnings.warn(
                "omega_exp*gamma - delta_est <= 0: the abort threshold is vacuous"
            )

    @property
    def min_wins(self) -> int:
        """The fewest wins that pass: the protocol aborts on fewer than
        (omega_exp * gamma - delta_est) * n."""
        return max(math.ceil((self.omega_exp * self.gamma - self.delta_est) * self.n), 0)


@dataclass(frozen=True)
class ErrorBudget:
    eps_dist: float
    eps_snd: float
    eps_cmp: float
    eps_smo: float

    def __post_init__(self):
        # a zero eps_dist leaves no room for eps_smo, and a zero eps_snd no kappa
        for name in ("eps_dist", "eps_snd"):
            v = getattr(self, name)
            if not (0 < v <= 1):
                raise ValidationError(f"{name}={v} outside (0, 1]")
        if not (0 <= self.eps_cmp <= 1):
            raise ValidationError(f"eps_cmp={self.eps_cmp} outside [0, 1]")
        if not (0 <= self.eps_smo < math.sqrt(self.eps_dist)):
            raise ValidationError(
                f"eps_smo={self.eps_smo} must lie in [0, sqrt(eps_dist={self.eps_dist}))"
            )


@dataclass(frozen=True)
class FrequencyDistribution:
    """Frequencies of the per-round score symbol: 0 (lost), 1 (won), bot (untested)."""

    p0: float
    p1: float
    p_bot: float

    def __post_init__(self):
        if min(self.p0, self.p1, self.p_bot) < -1e-12:
            raise ValidationError("frequencies must be nonnegative")
        if abs(self.p0 + self.p1 + self.p_bot - 1) > 1e-12:
            raise ValidationError("frequencies must sum to 1")

    @staticmethod
    def from_score(p1: float, gamma: float) -> "FrequencyDistribution":
        return FrequencyDistribution(p0=gamma - p1, p1=p1, p_bot=1 - gamma)


@dataclass(frozen=True)
class RateCertificate:
    """eta_opt and the cutoff score it was computed at, for `params` and
    `errors`; p_t, v, log L and the rate derive from them."""

    eta_opt_value: float
    cutoff: float
    params: ProtocolParams
    errors: ErrorBudget
    mode: str = "printed"

    @property
    def minimizer_pt(self) -> FrequencyDistribution:
        """The cutoff distribution p_t, with p_t(1) = cutoff * gamma."""
        gamma = self.params.gamma
        return FrequencyDistribution.from_score(self.cutoff * gamma, gamma)

    @property
    def second_order_v(self) -> float:
        """v at the cutoff score that eta_opt was computed at."""
        return 2 * _v_half(self.cutoff, self.params.gamma, self.mode)

    @property
    def log_l(self) -> float:
        budget = _budget_term(self.errors.eps_dist, self.errors.eps_smo)
        return -self.params.n * self.eta_opt_value - budget

    @property
    def rate_raw(self) -> float:
        return self.log_l / self.params.n

    @property
    def rate(self) -> float:
        return max(self.rate_raw, 0.0)


def _f(w: float, gamma: float) -> float:
    """Piecewise tradeoff at score w: (1-gamma) g(w), capped at gamma-1.

    g bounds the entropy only from the classical score 3/4 up, so f is held
    at its 3/4 value below it: a lower score never certifies more.
    """
    if w >= OMEGA_MAX:
        return gamma - 1
    return (1 - gamma) * g(max(w, OMEGA_CLASSICAL))


def _kappa(eps_smo: float, eps_snd: float) -> float:
    """Smoothing factor sqrt(1 - 2 log2(eps_smo * eps_snd)) of the v/sqrt(n) term."""
    if not eps_smo * eps_snd > 0:  # NaN fails too
        raise ValidationError(f"eps_smo * eps_snd = {eps_smo * eps_snd} must be positive")
    return math.sqrt(1 - 2 * math.log2(eps_smo * eps_snd))


def _budget_term(eps_dist: float, eps_smo: float) -> float:
    """The 4 log2(1/(sqrt(eps_dist) - eps_smo)) that log L pays for the budget."""
    return 4 * math.log2(1 / (math.sqrt(eps_dist) - eps_smo))


def _minimize(make, key, grid, tol):
    """Scan `grid`, bracket the first best point, golden-section to width `tol`.

    Builds the item `make(x)` once per distinct point visited: the grid,
    each golden-section pair and the final bracket midpoint. Returns the
    first item of least `key`; callers that maximize pass a negated key.
    """
    make = functools.cache(make)
    items = [make(x) for x in grid]
    best = min(range(len(grid)), key=lambda i: key(items[i]))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, len(grid) - 1)]
    while b - a > tol:
        c, d = b - (b - a) / _GOLDEN, a + (b - a) / _GOLDEN
        items += make(c), make(d)
        if key(items[-2]) < key(items[-1]):
            b = d
        else:
            a = c
    return min([*items, make((a + b) / 2)], key=key)


def _tangent_slope(wt: float, gamma: float) -> float:
    """d f / d p(1) at the cutoff point: ((1-gamma)/gamma) g'(p_t(1)/gamma)."""
    return (1 - gamma) / gamma * g_prime(wt)


def _fmax(p1: float, wt: float, gamma: float) -> float:
    """f_max at p(1) = p1: f up to the cutoff p_t(1) = wt gamma, its tangent past it."""
    pt1 = wt * gamma
    if p1 <= pt1:
        return _f(p1 / gamma, gamma)
    return _tangent_slope(wt, gamma) * (p1 - pt1) + _f(wt, gamma)


def _v_half(wt: float, gamma: float, mode: str) -> float:
    """v/2 = log2 5 + the gradient term of `mode`, at cutoff score wt."""
    if mode == "printed":
        return _LOG2_5 + abs(g_prime(wt)) / gamma
    if mode == "ceiling":
        slope = abs(_tangent_slope(wt, gamma))  # infinite at a tiny gamma
        return _LOG2_5 + (math.ceil(slope) if slope < math.inf else slope)
    raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")


def _eta_scalar(
    wt: float, p1_obs: float, gamma: float, n: int, kappa: float, mode: str
) -> float:
    """eta at cutoff score wt, with kappa from `_kappa`; +inf wherever v is infinite."""
    v_half = _v_half(wt, gamma, mode)
    if v_half == math.inf:
        return math.inf
    return _fmax(p1_obs, wt, gamma) + (2 / math.sqrt(n)) * v_half * kappa


def eta_opt(
    params: ProtocolParams, budget: ErrorBudget, mode: str = "printed"
) -> tuple[float, float]:
    """Minimize eta over the cutoff score: 200-point scan, then golden section.

    Returns the least eta it computed and the cutoff score it computed it at.
    """
    n, gamma = params.n, params.gamma
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    kappa = _kappa(budget.eps_smo, budget.eps_snd)
    p1_obs = params.omega_exp * gamma - params.delta_est
    lo, hi = OMEGA_CLASSICAL + _EDGE, OMEGA_MAX - _EDGE

    def item(wt):
        return _eta_scalar(wt, p1_obs, gamma, n, kappa, mode), wt

    npts = 200
    step = (hi - lo) / (npts - 1)
    return _minimize(item, lambda it: it[0], [lo + i * step for i in range(npts)], 1e-9)


def binomial_tail(n: int, p: float, min_wins: int) -> float:
    """P(W < min_wins) for W ~ Binomial(n, p): the abort probability of a
    device that wins each round independently with probability p = gamma *
    omega, which `completeness_bound` bounds when omega >= omega_exp. p must
    lie in (0, 1) unless min_wins is at most 0 (the answer is 0) or above n
    (it is 1).

    Sums the smaller tail in log space from the term at the threshold
    outwards, each term scaled by that first one, and stops once a term is
    below 1e-18 of the sum: the terms only fall from there, so a tail that
    underflows ends as quickly as one that does not. Above the mean the
    result is 1 minus the upper tail. Rounding in the lgamma differences sets
    the relative error: up to 6e-13 at n = 1e3 and 1e-8 at n = 1e7 against a
    60-digit sum.
    """
    top = min_wins - 1  # the most wins that abort
    if top < 0:
        return 0.0
    if top >= n:
        return 1.0
    upper = top >= n * p
    ks = range(top + 1, n + 1) if upper else range(top, -1, -1)
    log_n, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)

    def log_term(k):
        return log_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q

    first, total = log_term(ks[0]), 0.0
    for k in ks:
        term = math.exp(log_term(k) - first)
        total += term
        if term < 1e-18 * total:
            break
    tail = math.exp(first + math.log(total))
    return 1.0 - tail if upper else tail


def completeness_bound(n: int, delta_est: float) -> float:
    """Hoeffding bound exp(-2 n delta_est^2) on the honest abort probability."""
    return math.exp(-2 * n * delta_est * delta_est)


def delta_est_for(n: int, eps_cmp: float) -> float:
    """Confidence width making the honest abort bound equal eps_cmp."""
    if not (0 < eps_cmp < 1):
        raise ValidationError(f"eps_cmp={eps_cmp} outside (0, 1)")
    width = math.sqrt(math.log(1 / eps_cmp) / 2 / n) if n > 0 else math.inf
    if not width < 1:  # no delta_est in [0, 1) can then meet eps_cmp
        raise ValidationError(
            f"n={n} and eps_cmp={eps_cmp} leave no confidence width below 1 "
            f"(Hoeffding width {width:.6g})"
        )
    return width


def certified_log_l(
    params: ProtocolParams, budget: ErrorBudget, mode: str = "printed"
) -> RateCertificate:
    """Certified log L and rate for fixed parameters and budget."""
    return RateCertificate(*eta_opt(params, budget, mode), params, budget, mode)


def optimize_parameters(
    n: int,
    omega_exp: float,
    eps_dist: float,
    eps_snd: float,
    eps_cmp: float,
    mode: str = "printed",
) -> RateCertificate:
    """Maximize the certified rate over gamma and eps_smo.

    delta_est is fixed by the completeness target. Both free parameters are
    searched by a log-spaced scan followed by golden-section refinement; the
    search is deterministic and converges well past 1e-4 in the rate.
    """
    delta_est = delta_est_for(n, eps_cmp)
    # check the budget before building any grid (eps_smo = 0 needs eps_dist > 0)
    ErrorBudget(eps_dist, eps_snd, eps_cmp, eps_smo=0.0)
    sqrt_dist = math.sqrt(eps_dist)

    def certificate(gamma, smo):
        params = ProtocolParams(n, gamma, omega_exp, delta_est)
        return certified_log_l(params, ErrorBudget(eps_dist, eps_snd, eps_cmp, smo), mode)

    def rank(cert):
        return math.inf if cert is None else -cert.rate_raw

    def best_over_smo(gamma):
        """The best certificate at gamma, or None unless its observed score beats 3/4."""
        if not omega_exp * gamma - delta_est > OMEGA_CLASSICAL * gamma + 1e-15:
            return None
        top = math.log10(sqrt_dist * 0.9999)
        lgs = [top - 3 + 3 * i / 19 for i in range(20)]
        return _minimize(lambda lg: certificate(gamma, 10**lg), rank, lgs, 1e-4)

    lgs = [-6 + 6 * i / 59 for i in range(60)]
    best = _minimize(lambda lg: best_over_smo(10**lg), rank, lgs, 1e-4)
    # nothing certifiable: report a zero-rate certificate at safe defaults
    return best or certificate(1.0, sqrt_dist / 2)


def asymptotic_rate(omega: float) -> float:
    """Many-round limit of the certified rate: -g(omega)."""
    return -g(omega)


def rate_curve(
    n: int,
    omegas: list[float],
    eps_dist: float,
    eps_snd: float,
    eps_cmp: float,
    mode: str = "printed",
) -> list[RateCertificate]:
    """Certified rates across a score sweep with shared free parameters.

    The free parameters (gamma, eps_smo) are chosen once per sweep, by
    maximizing the rate at the median score of the grid, and then held fixed
    across all points. A sweep describes one experiment design evaluated at
    many hypothetical scores, so the parameters must not change point to
    point; the median is a deterministic, representative reference.
    """
    if not omegas:
        raise ValidationError("empty score grid")
    ordered = sorted(omegas)
    ref = ordered[len(ordered) // 2]
    at_ref = optimize_parameters(n, ref, eps_dist, eps_snd, eps_cmp, mode)
    return [certified_log_l(replace(at_ref.params, omega_exp=w), at_ref.errors, mode)
            for w in omegas]
