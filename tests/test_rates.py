import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diecert import rates
from diecert.bounds import g, g_prime
from diecert.chsh import OMEGA_MAX
from diecert.quantum import ValidationError
from diecert.rates import (
    MODES,
    ErrorBudget,
    FrequencyDistribution,
    ProtocolParams,
    _CUTOFFS,
    _cutoff_terms,
    _eta_scalar,
    _f,
    _kappa,
    asymptotic_rate,
    certified_log_l,
    completeness_bound,
    delta_est_for,
    eta_opt,
    optimize_parameters,
    rate_curve,
)

from reference_data import ASYMPTOTIC_CURVE

# error budget used for all published-curve comparisons
EPS_DIST = 1e-5
EPS_SND = 1e-5
EPS_CMP = 1e-2


def _fmax(p1, wt, gamma):
    """f_max at p(1) = p1 for cutoff score wt: the first of the cutoff terms."""
    return _cutoff_terms(p1, wt, gamma, "printed")[0]


def params(n=10**8, gamma=0.01, omega_exp=0.84, delta_est=1e-5):
    return ProtocolParams(n=n, gamma=gamma, omega_exp=omega_exp, delta_est=delta_est)


def budget(eps_dist=1e-6, eps_snd=1e-6, eps_cmp=1e-6, eps_smo=1e-4):
    return ErrorBudget(
        eps_dist=eps_dist, eps_snd=eps_snd, eps_cmp=eps_cmp, eps_smo=eps_smo
    )


class TestProtocolParams:
    def test_threshold(self):
        # the fewest passing wins, as an int, from the float product
        p = params(n=1000, gamma=0.5, omega_exp=0.8, delta_est=0.01)
        assert p.min_wins == 390 and type(p.min_wins) is int
        p = params(n=1000, gamma=0.5, omega_exp=0.8, delta_est=0.0105)
        assert p.min_wins == math.ceil((0.4 - 0.0105) * 1000) == 390

    @pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds included
    @given(st.integers(1, 10**12), st.floats(1e-3, 1), st.floats(0.75, OMEGA_MAX),
           st.floats(0, 0.999))
    def test_min_wins_decides_as_the_float_threshold(self, n, gamma, omega, delta):
        # a whole win count is below (omega*gamma - delta)*n iff below min_wins
        p = params(n=n, gamma=gamma, omega_exp=omega, delta_est=delta)
        threshold = (omega * gamma - delta) * n
        for wins in range(max(p.min_wins - 1, 0), p.min_wins + 1):
            assert (wins < p.min_wins) == (wins < threshold)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 10: min_wins takes the ceiling of a rounded float product, "
        "which here lands on 24,366 below the exact 24,366 + 3.9e-12"))
    def test_min_wins_is_the_exact_ceiling(self):
        # the literal rule: the ceiling of the stored floats' exact product
        p = params(n=681499, gamma=0.09926059101414278, omega_exp=0.774116619007204,
                   delta_est=0.04108573569387293)
        exact = (Fraction(p.omega_exp) * Fraction(p.gamma) - Fraction(p.delta_est)) * p.n
        assert p.min_wins == math.ceil(exact)

    def test_rejects_bad_n(self):
        with pytest.raises(ValidationError):
            params(n=0)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValidationError):
            params(gamma=1.5)
        # a bool is not a probability, and a string is refused as one value
        for gamma in (True, "0.5"):
            with pytest.raises(ValidationError, match=f"^gamma={gamma!r} is not a real number$"):
                params(gamma=gamma)

    @pytest.mark.parametrize("delta_est", [1.0, 1.5])
    def test_rejects_delta_est_of_one_or_more(self, delta_est):
        with pytest.raises(ValidationError, match=r"outside \[0, 1\)$"):
            params(delta_est=delta_est)

    def test_numpy_reals_are_stored_as_floats(self):
        p = ProtocolParams(n=np.int64(20), gamma=np.float64(0.5), omega_exp=np.float64(0.8),
                           delta_est=np.float32(0.05))
        assert (p.n, p.gamma, p.omega_exp, p.delta_est) == (20, 0.5, 0.8, float(np.float32(0.05)))
        assert all(type(v) is float for v in (p.gamma, p.omega_exp, p.delta_est))

    @pytest.mark.parametrize("gamma", [5e-324, 1e-321, sys.float_info.min / 2])
    def test_rejects_subnormal_gamma(self, gamma):
        with pytest.raises(ValidationError, match=f"gamma={gamma!r} is subnormal"):
            params(gamma=gamma, delta_est=0.0)

    def test_smallest_normal_gamma_allowed(self):
        assert params(gamma=sys.float_info.min, delta_est=0.0).gamma == sys.float_info.min

    def test_rejects_bad_omega(self):
        with pytest.raises(ValidationError):
            params(omega_exp=0.7)

    def test_vacuous_threshold_warns(self):
        with pytest.warns(UserWarning, match="vacuous"):
            params(gamma=0.001, omega_exp=0.8, delta_est=0.01)

    def test_gamma_zero_allowed_with_warning(self):
        with pytest.warns(UserWarning):
            p = params(gamma=0.0, delta_est=0.0)
        assert p.min_wins == 0


class TestErrorBudget:
    def test_smoothing_must_stay_below_sqrt_dist(self):
        with pytest.raises(ValidationError):
            budget(eps_dist=1e-6, eps_smo=1e-3)
        budget(eps_dist=1e-6, eps_smo=0.999e-3)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            budget(eps_snd=1.5)
        for name, value in (("eps_snd", True), ("eps_smo", "1e-4")):
            with pytest.raises(ValidationError, match=f"^{name}={value!r} is not a real number$"):
                budget(**{name: value})
        b = budget(eps_dist=np.float32(1e-6), eps_cmp=np.float64(1e-6))
        assert type(b.eps_dist) is float and type(b.eps_cmp) is float

    @pytest.mark.parametrize("eps_cmp", [-0.1, 1.5, math.nan])
    def test_rejects_cmp_outside_unit_interval(self, eps_cmp):
        with pytest.raises(ValidationError, match=r"^eps_cmp=.* outside \[0, 1\]$"):
            ErrorBudget(1e-5, 1e-5, eps_cmp, 1e-4)

    @pytest.mark.parametrize("name", ["eps_dist", "eps_snd"])
    def test_rejects_zero_dist_and_snd(self, name):
        with pytest.raises(ValidationError, match=f"^{name}=0.0 outside \\(0, 1\\]$"):
            budget(**{name: 0.0})

    def test_admits_zero_cmp(self):
        assert budget(eps_cmp=0.0).eps_cmp == 0.0


class TestFrequencyDistribution:
    def test_from_score(self):
        fd = FrequencyDistribution.from_score(0.04, 0.05)
        assert fd.p0 == pytest.approx(0.01)
        assert fd.p_bot == pytest.approx(0.95)

    def test_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            FrequencyDistribution(p0=0.2, p1=0.2, p_bot=0.2)

    def test_nonnegative(self):
        with pytest.raises(ValidationError):
            FrequencyDistribution(p0=-0.1, p1=0.5, p_bot=0.6)


class TestTradeoff:
    """f and its tangent completion f_max at a scalar score, as eta uses them."""

    def test_matches_entropy_curve_below_cutoff(self):
        gamma = 0.05
        for w in (0.76, 0.8, 0.84):
            assert _f(w, gamma) == pytest.approx((1 - gamma) * g(w), abs=1e-12)

    def test_cap_above_quantum_maximum(self):
        gamma = 0.1
        assert _f(OMEGA_MAX, gamma) == gamma - 1

    def test_continuous_at_quantum_maximum(self):
        gamma = 0.3
        eps = 1e-9
        assert _f(OMEGA_MAX - eps, gamma) == pytest.approx(_f(OMEGA_MAX, gamma), abs=1e-6)

    def test_full_testing_at_maximum_gives_zero(self):
        assert _f(OMEGA_MAX, 1.0) == 0

    def test_fmax_equals_f_below_cutoff(self):
        gamma = 0.05
        p1 = 0.78 * gamma
        assert _fmax(p1, 0.82, gamma) == _f(p1 / gamma, gamma)

    def test_fmax_is_tangent_above_cutoff(self):
        gamma = 0.05
        wt = 0.82
        eps = 1e-6
        slope = (_fmax((wt + eps) * gamma, wt, gamma) - _f(wt, gamma)) / (eps * gamma)
        slope2 = (_fmax((wt + 2 * eps) * gamma, wt, gamma) - _f(wt, gamma)) / (
            2 * eps * gamma
        )
        assert slope == pytest.approx(slope2, rel=1e-9)

    def test_fmax_upper_bounds_f(self):
        gamma = 0.1
        for w in [0.755 + 0.005 * k for k in range(20)]:
            p1 = w * gamma
            assert _fmax(p1, 0.8, gamma) >= _f(p1 / gamma, gamma) - 1e-12


def eta_at(wt, p1_observed, p, b, mode="printed"):
    """eta at cutoff score wt, for protocol parameters p and error budget b."""
    return _eta_scalar(wt, p1_observed, p.gamma, p.n, _kappa(b.eps_smo, b.eps_snd), mode)


class TestEta:
    """eta at one cutoff score; its mode check through eta_opt."""

    def test_regression_value(self):
        val = eta_at(0.8, 0.84 * 0.01 - 1e-5, params(), budget(), mode="printed")
        assert val == pytest.approx(1.0625366430810415, abs=1e-12)

    def test_second_order_term_scales_as_inverse_sqrt_n(self):
        vals = {
            n: eta_at(0.8, 0.8 * 0.01, params(n=n, delta_est=0), budget(), mode="printed")
            for n in (10**6, 4 * 10**6)
        }
        base = _f(0.8, 0.01)
        assert vals[10**6] - base == pytest.approx(
            2 * (vals[4 * 10**6] - base), rel=1e-9
        )

    def test_kappa_reduces_to_one(self):
        # with eps_smo * eps_snd -> 1 the kappa factor collapses to 1 and eta
        # is the tradeoff value plus the bare second-order term
        gamma, wt, n = 0.5, 0.8, 10**6
        b = ErrorBudget(
            eps_dist=1.0, eps_snd=1.0, eps_cmp=0.5, eps_smo=1 - 1e-12
        )
        p = params(n=n, gamma=gamma, omega_exp=0.8, delta_est=0.001)
        val = eta_at(wt, wt * gamma, p, b, mode="printed")
        expected = _f(wt, gamma) + (2 / math.sqrt(n)) * (
            math.log2(5) + abs(g_prime(wt)) / gamma
        )
        assert val == pytest.approx(expected, abs=1e-9)

    def test_f_max_is_the_same_in_both_modes(self):
        for p1 in (0.78 * 0.05, 0.84 * 0.05):
            assert _cutoff_terms(p1, 0.82, 0.05, "printed")[0] == \
                _cutoff_terms(p1, 0.82, 0.05, "ceiling")[0]

    def test_modes_differ(self):
        args = 0.8, 0.8 * 0.01, params(), budget()
        assert eta_at(*args, mode="printed") != eta_at(*args, mode="ceiling")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            eta_opt(params(), budget(), mode="exact")

    @pytest.mark.parametrize("zero", ["eps_snd", "eps_smo"])
    def test_kappa_domain(self, zero):
        # ErrorBudget rejects a zero eps_snd, and the kappa factor a zero eps_smo
        with pytest.raises(ValidationError):
            eta_at(0.8, 0.008, params(), budget(**{zero: 0.0}))


class TestEtaOpt:
    def test_minimum_dominates_samples(self):
        p, b = params(n=10**8, gamma=0.05, omega_exp=0.84, delta_est=1e-4), budget()
        best, minimizer = eta_opt(p, b, mode="ceiling")
        obs = p.omega_exp * p.gamma - p.delta_est
        for wt in (0.76, 0.79, 0.82, 0.85):
            assert best <= eta_at(wt, obs, p, b, mode="ceiling") + 1e-12

    def test_minimizer_is_interior(self):
        p, b = params(n=10**8, gamma=0.05, omega_exp=0.84, delta_est=1e-4), budget()
        _, cutoff = eta_opt(p, b, mode="ceiling")
        assert 0.75 < cutoff < OMEGA_MAX

    def test_deterministic(self):
        p, b = params(), budget()
        assert eta_opt(p, b)[0] == eta_opt(p, b)[0]

    @given(
        st.floats(4, 12), st.floats(-3, 0), st.floats(0.75, OMEGA_MAX), st.floats(0, 1),
        st.floats(-10, -2), st.floats(-10, 0), st.floats(1e-3, 0.999), st.sampled_from(MODES),
    )
    def test_never_above_its_scan(self, lgn, lgg, omega, u, lgd, lgs, smo, mode):
        # observed score omega - delta_est/gamma from omega down to 3/4
        gamma = 10**lgg
        delta = u * gamma * (omega - 0.75)
        p = params(n=int(10**lgn), gamma=gamma, omega_exp=omega, delta_est=delta)
        b = budget(eps_dist=10**lgd, eps_snd=10**lgs, eps_smo=smo * 10 ** (lgd / 2))
        eta, cutoff = eta_opt(p, b, mode)
        obs = p.omega_exp * gamma - p.delta_est
        assert eta == eta_at(cutoff, obs, p, b, mode)
        for wt in _CUTOFFS:
            assert eta <= eta_at(wt, obs, p, b, mode)

    def test_kappa_domain(self):
        for zero in ("eps_snd", "eps_smo"):
            with pytest.raises(ValidationError):
                eta_opt(params(), budget(**{zero: 0.0}))

    @pytest.mark.filterwarnings("ignore:omega_exp")  # gamma = 0: vacuous threshold
    def test_zero_gamma_rejected(self):
        with pytest.raises(ValidationError):
            eta_opt(params(gamma=0.0, delta_est=0.0), budget())


class TestCutoffTerms:
    """One g' per cutoff score: eta_opt evaluates f_max and v/2 together."""

    @pytest.mark.parametrize("mode", MODES)
    def test_one_g_prime_per_g(self, monkeypatch, mode):
        calls = {"g": 0, "g_prime": 0}
        for name in calls:
            inner = getattr(rates, name)

            def counted(w, name=name, inner=inner):
                calls[name] += 1
                return inner(w)

            monkeypatch.setattr(rates, name, counted)
        rates._scan_terms.cache_clear()  # an earlier test may have built this table
        eta_opt(params(gamma=0.05, omega_exp=0.84, delta_est=1e-4), budget(), mode)
        assert calls["g"] > 200  # the scan grid and the golden-section points
        assert calls["g_prime"] == calls["g"]

    @pytest.mark.parametrize("mode", MODES)
    def test_one_scan_table_per_gamma(self, monkeypatch, mode):
        # the search's eta_opt calls at one gamma differ only in eps_smo, so
        # the second reads the scan's terms from the first one's table
        p = params(gamma=0.05, omega_exp=0.84, delta_est=1e-4)
        rates._scan_terms.cache_clear()
        eta_opt(p, budget(eps_smo=1e-4), mode)
        calls = []
        inner = rates._cutoff_terms

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(rates, "_cutoff_terms", counted)
        warm = eta_opt(p, budget(eps_smo=3e-4), mode)
        assert 0 < len(calls) < 200  # only the golden-section points
        rates._scan_terms.cache_clear()
        cold = eta_opt(p, budget(eps_smo=3e-4), mode)
        assert [x.hex() for x in warm] == [x.hex() for x in cold]


class TestMinimize:
    def test_returns_a_scanned_point_the_bracket_misses(self):
        # only the grid point 1 is low, so golden section sees a flat
        # objective in the bracket [0, 2] and ends next to 2
        visited = []

        def make(x):
            visited.append(x)
            return (0.0 if x == 1.0 else 1.0), x

        best = rates._minimize(make, lambda it: it[0], [0.0, 1.0, 2.0, 3.0], 1e-3)
        assert best == (0.0, 1.0)
        assert visited[-1] > 1.99  # the final bracket midpoint, also an item

    def test_first_of_equal_items(self):
        best = rates._minimize(lambda x: (0.0, x), lambda it: it[0], [0.0, 1.0, 2.0], 1e-3)
        assert best == (0.0, 0.0)


class TestCompleteness:
    def test_hoeffding_value(self):
        assert completeness_bound(1000, 0.02) == pytest.approx(
            0.44932896411722156, abs=1e-12
        )

    def test_round_trip(self):
        for n, eps in ((10**4, 1e-2), (10**6, 1e-4)):
            assert completeness_bound(n, delta_est_for(n, eps)) == pytest.approx(
                eps, rel=1e-12
            )

    def test_delta_est_example(self):
        assert delta_est_for(10**6, 1e-4) == pytest.approx(
            0.0021459660262893475, abs=1e-15
        )

    def test_rejects_bad_eps(self):
        with pytest.raises(ValidationError):
            delta_est_for(100, 0.0)

    @pytest.mark.parametrize("n, eps", [(2, 1e-2), (1, 1e-2), (100, 1e-320), (0, 1e-2)])
    def test_width_of_one_or_more_blames_n_and_eps_cmp(self, n, eps):
        with pytest.raises(ValidationError, match=re.escape(f"n={n} and eps_cmp={eps} ")):
            delta_est_for(n, eps)


class TestCertificates:
    def test_regression_values(self):
        cert = certified_log_l(params(), budget(), mode="printed")
        assert cert.eta_opt_value == pytest.approx(0.7511647665078731, abs=1e-9)
        assert cert.rate_raw == pytest.approx(-0.7511651712193683, abs=1e-9)
        cert2 = certified_log_l(params(), budget(), mode="ceiling")
        assert cert2.eta_opt_value == pytest.approx(0.7407797197190162, abs=1e-9)

    def test_rate_clips_at_zero(self):
        cert = certified_log_l(params(), budget())
        assert cert.rate_raw < 0
        assert cert.rate == 0

    def test_rate_monotone_in_score(self):
        b = budget()
        rates = [
            certified_log_l(
                params(n=10**10, gamma=0.01, omega_exp=w, delta_est=1e-5),
                b,
                mode="ceiling",
            ).rate_raw
            for w in (0.80, 0.82, 0.84)
        ]
        assert rates[0] < rates[1] < rates[2]


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10**e)


_unit = st.floats(0, 1)
_score = st.floats(0.8, OMEGA_MAX)  # from 0.8 up a rate can be positive


@pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds are fine here
class TestMonotoneCertificates:
    """Certified rates against the order of their inputs, in both modes: more
    confidence width never helps, a higher score never hurts, and a score
    that does not beat 3/4 certifies nothing."""

    @staticmethod
    def _cert(n, gamma, omega, delta, mode):
        p = ProtocolParams(n=n, gamma=gamma, omega_exp=omega, delta_est=delta)
        return certified_log_l(p, budget(), mode)

    @given(
        _log_uniform(1e6, 1e12), _log_uniform(1e-2, 1), _score, _unit, _unit,
        st.sampled_from(MODES),
    )
    def test_non_increasing_in_delta_est(self, n, gamma, omega, u, v, mode):
        # observed scores omega - delta_est/gamma from omega down to 0
        scale = min(gamma * omega, 0.999)
        lo, hi = sorted((scale * u, scale * v))
        args = int(n), gamma, omega
        assert self._cert(*args, hi, mode).rate <= self._cert(*args, lo, mode).rate

    @given(
        _log_uniform(1e6, 1e12), _log_uniform(1e-2, 1), _score, _score, _unit,
        st.sampled_from(MODES),
    )
    def test_non_decreasing_in_omega_exp(self, n, gamma, w1, w2, u, mode):
        lo, hi = sorted((w1, w2))
        delta = min(gamma * lo, 0.999) * u
        args = int(n), gamma
        assert self._cert(*args, lo, delta, mode).rate <= self._cert(*args, hi, delta, mode).rate

    # rate_raw, unclipped, over steps of 1e-9 to 1e-3, compared exactly: the
    # clip at 0 and wide pairs would hide a search that misses by a little
    _STEP = _log_uniform(1e-9, 1e-3)

    @given(
        _log_uniform(1e4, 1e12), _log_uniform(1e-3, 1), st.floats(0.75, OMEGA_MAX - 1e-3),
        _STEP, _unit, st.sampled_from(MODES),
    )
    def test_raw_rate_non_decreasing_in_a_score_step(self, n, gamma, omega, step, u, mode):
        args = int(n), gamma
        delta = min(gamma * omega, 0.99) * u
        at, past = (self._cert(*args, w, delta, mode).rate_raw for w in (omega, omega + step))
        assert at <= past

    @given(
        _log_uniform(1e4, 1e12), _log_uniform(1e-3, 1), st.floats(0.75, OMEGA_MAX), _STEP,
        _unit, st.sampled_from(MODES),
    )
    def test_raw_rate_non_increasing_in_a_delta_est_step(self, n, gamma, omega, step, u, mode):
        args = int(n), gamma, omega
        delta = min(gamma * omega, 0.99) * u
        at, past = (self._cert(*args, d, mode).rate_raw for d in (delta, delta + step))
        assert past <= at

    @given(
        _log_uniform(1e6, 1e12), _log_uniform(1e-2, 1), st.floats(0.75, OMEGA_MAX),
        _unit, st.sampled_from(MODES),
    )
    def test_zero_without_a_quantum_score(self, n, gamma, omega, u, mode):
        # delta_est from gamma (omega - 3/4) up to 0.999: observed score <= 3/4
        delta = min(gamma * (omega - 0.75) + u, 0.999)
        assert self._cert(int(n), gamma, omega, delta, mode).rate == 0.0


class TestOptimizeParameters:
    def test_published_point_small_n(self):
        cert = optimize_parameters(
            10**6, 0.83225, EPS_DIST, EPS_SND, EPS_CMP, mode="ceiling"
        )
        assert cert.rate == pytest.approx(0.081133, abs=0.01)

    def test_published_point_medium_n(self):
        cert = optimize_parameters(
            10**8, 0.8447, EPS_DIST, EPS_SND, EPS_CMP, mode="ceiling"
        )
        assert cert.rate == pytest.approx(0.54066632, abs=0.01)

    def test_uncertifiable_score_gives_zero(self):
        cert = optimize_parameters(10**4, 0.76, EPS_DIST, EPS_SND, EPS_CMP)
        assert cert.rate == 0

    def test_feasibility_reads_p1_obs(self, monkeypatch):
        # no observed score beats 3/4, so the search certifies no gamma and
        # returns its fallback: gamma = 1 and eps_smo = sqrt(eps_dist)/2
        monkeypatch.setattr(ProtocolParams, "p1_obs", property(lambda self: 0.75 * self.gamma))
        cert = optimize_parameters(10**8, 0.835876, EPS_DIST, EPS_SND, EPS_CMP)
        assert cert.params.gamma == 1
        assert cert.errors.eps_smo == math.sqrt(EPS_DIST) / 2

    def test_optimized_rate_monotone_in_score_and_n(self):
        # printed mode, four searches of about 2 s: a higher score and a larger
        # n never lower the rate the search finds
        def rate(n, omega):
            return optimize_parameters(n, omega, EPS_DIST, EPS_SND, EPS_CMP).rate_raw

        assert rate(10**8, 0.830) <= rate(10**8, 0.8375)
        assert rate(10**6, 0.8447) <= rate(10**8, 0.8447)

    def test_budget_propagated(self):
        cert = optimize_parameters(
            10**6, 0.84, EPS_DIST, EPS_SND, EPS_CMP, mode="ceiling"
        )
        assert cert.errors.eps_dist == EPS_DIST
        assert cert.errors.eps_smo < math.sqrt(EPS_DIST)
        assert cert.params.delta_est == pytest.approx(
            delta_est_for(10**6, EPS_CMP), abs=1e-15
        )


_BAD_BUDGETS = [
    (EPS_DIST, 0.0),
    (EPS_DIST, 2.0),
    (EPS_DIST, math.nan),
    (0.0, EPS_SND),
    (2.0, EPS_SND),
]


class TestBudgetCheckedFirst:
    """A bad (eps_dist, eps_snd) fails before the search evaluates eta once."""

    @pytest.fixture
    def eta_evaluations(self, monkeypatch):
        calls = []
        inner = rates._eta_scalar

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(rates, "_eta_scalar", counted)
        return calls

    @pytest.mark.parametrize("eps_dist,eps_snd", _BAD_BUDGETS)
    def test_optimize_parameters(self, eta_evaluations, eps_dist, eps_snd):
        with pytest.raises(ValidationError):
            optimize_parameters(10**6, 0.84, eps_dist, eps_snd, EPS_CMP)
        assert eta_evaluations == []

    @pytest.mark.parametrize("eps_dist,eps_snd", _BAD_BUDGETS)
    def test_rate_curve(self, eta_evaluations, eps_dist, eps_snd):
        with pytest.raises(ValidationError):
            rate_curve(10**6, [0.82, 0.84], eps_dist, eps_snd, EPS_CMP)
        assert eta_evaluations == []


class TestRateCurve:
    def test_shared_parameters(self):
        certs = rate_curve(
            10**6, [0.82, 0.83, 0.84], EPS_DIST, EPS_SND, EPS_CMP, mode="ceiling"
        )
        gammas = {c.params.gamma for c in certs}
        smos = {c.errors.eps_smo for c in certs}
        assert len(gammas) == 1 and len(smos) == 1

    def test_preserves_input_order(self):
        grid = [0.84, 0.82, 0.83]
        certs = rate_curve(10**6, grid, EPS_DIST, EPS_SND, EPS_CMP, mode="ceiling")
        assert [c.params.omega_exp for c in certs] == grid

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            rate_curve(10**6, [], EPS_DIST, EPS_SND, EPS_CMP)


class TestAsymptoticRate:
    def test_endpoints(self):
        assert asymptotic_rate(OMEGA_MAX) == pytest.approx(1, abs=1e-12)
        assert asymptotic_rate(0.75) == pytest.approx(-0.20175207338571233, abs=1e-12)

    def test_reference_curve(self):
        for omega, rate in ASYMPTOTIC_CURVE:
            assert asymptotic_rate(omega) == pytest.approx(rate, abs=2e-4)
