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

Each rule has one home: `_f` is the only piecewise f, `_cutoff_terms` its
tangent completion f_max and v/2 from one g', and `_eta_scalar` eta, all at a
scalar cutoff score that eta_opt alone picks from (3/4, (2+sqrt(2))/4);
`ProtocolParams.p1_obs` is the observed win frequency, `_kappa` the smoothing
factor and its domain, `_budget_term` the log(1/eps) term and `ErrorBudget`
the budget's ranges, checked before any search. `RateCertificate` keeps what
eta_opt found and derives p_t, v, log L and the rate from it, so log L has one
formula. `_minimize` is the only search: a fixed scan grid plus golden section
returning the best item it built: (eta, cutoff) pairs in eta_opt, whose grid is
`_CUTOFFS` and its terms one `_scan_terms` table per gamma, and the
certificates optimize_parameters returns, by rate. Runs are bit-identical.
On the completeness side, `binomial_tail` is the exact abort probability of a
device that wins each round independently, and `completeness_bound` its
Hoeffding bound.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import sys
import warnings
from dataclasses import dataclass, replace
from types import MappingProxyType

from .bounds import g, g_prime
from .chsh import OMEGA_CLASSICAL, OMEGA_MAX, check_score
from .quantum import ValidationError

MODES = ("printed", "ceiling")
_LOG2_5 = math.log2(5)
_GOLDEN = (1 + math.sqrt(5)) / 2
_EDGE = 1e-9  # open-interval endpoints are shrunk by this much
_LO, _HI = OMEGA_CLASSICAL + _EDGE, OMEGA_MAX - _EDGE
_CUTOFFS = tuple(_LO + i * ((_HI - _LO) / 199) for i in range(200))  # eta_opt's scan


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


def _real(value, name: str) -> float:
    """`value` as a float, if it is a real number (numpy's too, not a bool):
    a probability, a score or an epsilon, stored so its repr round-trips."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name}={value!r} is not a real number")
    return float(value)


@dataclass(frozen=True)
class ProtocolParams:
    """Protocol arguments: rounds, test probability, target score, confidence width."""

    n: int
    gamma: float
    omega_exp: float
    delta_est: float

    def __post_init__(self):
        object.__setattr__(self, "n", _whole(self.n, "n", 1))
        for name in ("gamma", "omega_exp", "delta_est"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
    def p1_obs(self) -> float:
        """The observed win frequency omega_exp * gamma - delta_est."""
        return self.omega_exp * self.gamma - self.delta_est

    @property
    def min_wins(self) -> int:
        """The fewest wins that pass: the protocol aborts on fewer than p1_obs * n."""
        return max(math.ceil(self.p1_obs * self.n), 0)


@dataclass(frozen=True)
class ErrorBudget:
    eps_dist: float
    eps_snd: float
    eps_cmp: float
    eps_smo: float

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, _real(getattr(self, name), name))
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
        if not min(self.p0, self.p1, self.p_bot) >= -1e-12:
            raise ValidationError("frequencies must be nonnegative")
        if not abs(self.p0 + self.p1 + self.p_bot - 1) <= 1e-12:  # NaN fails too
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
        return 2 * _cutoff_terms(self.params.p1_obs, self.cutoff, self.params.gamma, self.mode)[1]

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


def _cutoff_terms(p1: float, wt: float, gamma: float, mode: str) -> tuple[float, float]:
    """f_max at p(1) = p1 and v/2 at cutoff score wt, from one g'(wt): f_max is f
    up to the cutoff p_t(1) = wt gamma and its tangent past it, and v/2 is
    log2 5 + the gradient term of `mode`."""
    dg = g_prime(wt)
    slope = (1 - gamma) / gamma * dg  # d f / d p(1) at the cutoff point
    if mode == "printed":
        v_half = _LOG2_5 + abs(dg) / gamma
    elif mode == "ceiling":
        grad = abs(slope)  # infinite at a tiny gamma
        v_half = _LOG2_5 + (math.ceil(grad) if grad < math.inf else grad)
    else:
        raise ValidationError(f"unknown mode {mode!r}; expected one of {MODES}")
    pt1 = wt * gamma
    f_max = _f(p1 / gamma, gamma) if p1 <= pt1 else slope * (p1 - pt1) + _f(wt, gamma)
    return f_max, v_half


@functools.lru_cache(maxsize=1)
def _scan_terms(p1: float, gamma: float, mode: str) -> MappingProxyType:
    """`_cutoff_terms` on `_CUTOFFS`, read-only, shared by eta_opt's calls that differ in kappa."""
    return MappingProxyType({wt: _cutoff_terms(p1, wt, gamma, mode) for wt in _CUTOFFS})


def _eta_scalar(
    wt: float, p1_obs: float, gamma: float, n: int, kappa: float, mode: str, terms=None
) -> float:
    """eta at cutoff wt from its `_cutoff_terms` (`terms`, if given); +inf if v is infinite."""
    f_max, v_half = terms or _cutoff_terms(p1_obs, wt, gamma, mode)
    if v_half == math.inf:
        return math.inf
    return f_max + (2 / math.sqrt(n)) * v_half * kappa


def eta_opt(
    params: ProtocolParams, budget: ErrorBudget, mode: str = "printed"
) -> tuple[float, float]:
    """Minimize eta over the cutoff score: `_CUTOFFS` read from `_scan_terms`, then golden section.

    Returns the least eta it computed and the cutoff score it computed it at.
    """
    n, gamma = params.n, params.gamma
    if gamma <= 0:
        raise ValidationError("gamma must be positive")
    kappa, p1_obs = _kappa(budget.eps_smo, budget.eps_snd), params.p1_obs
    table = _scan_terms(p1_obs, gamma, mode)

    def item(wt):
        return _eta_scalar(wt, p1_obs, gamma, n, kappa, mode, table.get(wt)), wt

    return _minimize(item, lambda it: it[0], _CUTOFFS, 1e-9)


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
    top = math.log10(sqrt_dist * 0.9999)
    smo_lgs = [top - 3 + 3 * i / 19 for i in range(20)]

    def certificate(params, smo):
        return certified_log_l(params, ErrorBudget(eps_dist, eps_snd, eps_cmp, smo), mode)

    def rank(cert):
        return math.inf if cert is None else -cert.rate_raw

    def best_over_smo(gamma):
        """The best certificate at gamma, or None unless its observed score beats 3/4."""
        with warnings.catch_warnings():  # this vacuous threshold is the search's, not the caller's
            warnings.filterwarnings("ignore", "omega_exp", UserWarning)
            params = ProtocolParams(n, gamma, omega_exp, delta_est)
        if not params.p1_obs > OMEGA_CLASSICAL * gamma + 1e-15:
            return None
        return _minimize(lambda lg: certificate(params, 10**lg), rank, smo_lgs, 1e-4)

    lgs = [-6 + 6 * i / 59 for i in range(60)]
    best = _minimize(lambda lg: best_over_smo(10**lg), rank, lgs, 1e-4)
    # nothing certifiable: report a zero-rate certificate at safe defaults
    return best or certificate(ProtocolParams(n, 1.0, omega_exp, delta_est), sqrt_dist / 2)


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
