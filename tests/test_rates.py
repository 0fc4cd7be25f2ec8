import math
import re
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from diecert import rates
from diecert.bounds import g, g_prime, g_prime_inverse
from diecert.chsh import OMEGA_CLASSICAL, OMEGA_MAX
from diecert.quantum import ValidationError
from diecert.rates import (
    MODES,
    ErrorBudget,
    FrequencyDistribution,
    ProtocolParams,
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

from oracles import dense_gamma_search, exact_step
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


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10**e)


def float_step(p, cutoff):
    """The gradient step the ceiling-mode terms use at `cutoff`."""
    return round(_cutoff_terms(p.p1_obs, cutoff, p.gamma, "ceiling")[1] - rates._LOG2_5)


def assert_exact_step(p, cutoff):
    """At `cutoff` the ceiling-mode terms use the theorem's step, the 50-digit one."""
    assert float_step(p, cutoff) == exact_step(cutoff, p.gamma)


def _ulps(x, k):
    """x moved k floats up (down for a negative k)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def ceiling_jumps(draw):
    """Parameters whose observed score p1_obs/gamma sits on a jump of the
    ceiling step, the score g_prime_inverse(-k gamma/(1-gamma)) at which
    (1-gamma)/gamma |g'| is k, with omega_exp, delta_est or gamma then moved
    -64 to +64 floats: n 1e6-1e12, gamma 0.05-0.9, the first 41 jumps above
    3/4 and delta_est the Hoeffding width at eps_cmp = 1e-2."""
    n = int(draw(_log_uniform(1e6, 1e12)))
    gamma = draw(st.floats(0.05, 0.9))
    k = math.ceil((1 - gamma) / gamma * -g_prime(OMEGA_CLASSICAL)) + draw(st.integers(0, 40))
    delta = delta_est_for(n, 1e-2)
    omega = g_prime_inverse(-k * gamma / (1 - gamma)) + delta / gamma
    assume(omega <= OMEGA_MAX)
    moved = dict(gamma=gamma, omega_exp=omega, delta_est=delta)
    name = draw(st.sampled_from(sorted(moved)))
    moved[name] = _ulps(moved[name], draw(st.integers(-64, 64)))
    return params(n=n, **moved)


# a test-side 200-point scan of eta_opt's cutoff range
SCAN = tuple(rates._LO + i * ((rates._HI - rates._LO) / 199) for i in range(200))


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
    terms = _cutoff_terms(p1_observed, wt, p.gamma, mode)
    return _eta_scalar(terms, p.n, _kappa(b.eps_smo, b.eps_snd))


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
        # observed score omega - delta_est/gamma from omega down to 3/4; the
        # certificate is eta at its stored cutoff, and no point of a 200-point
        # scan of the cutoff range lies below it
        gamma = 10**lgg
        delta = u * gamma * (omega - 0.75)
        p = params(n=int(10**lgn), gamma=gamma, omega_exp=omega, delta_est=delta)
        b = budget(eps_dist=10**lgd, eps_snd=10**lgs, eps_smo=smo * 10 ** (lgd / 2))
        eta, cutoff = eta_opt(p, b, mode)
        obs = p.omega_exp * gamma - p.delta_est
        assert eta == eta_at(cutoff, obs, p, b, mode)
        for wt in SCAN:
            assert eta <= eta_at(wt, obs, p, b, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_meets_a_dense_cutoff_grid(self, mode):
        # no tolerance: eta_opt must reach the least eta on 20,001 even
        # cutoffs over its whole range
        dense = [rates._LO + i * ((rates._HI - rates._LO) / 20000) for i in range(20001)]
        cases = [(10**8, 0.05, 0.84, 1e-4), (10**6, 0.5, 0.8359, 1e-3),
                 (10**10, 0.02, 0.82, 1e-5), (10**12, 0.01, 0.80, 1e-6),
                 (10**7, 0.3, 0.845, 5e-4), (10**9, 0.1, 0.83, 2e-5)]
        for n, gamma, omega, delta in cases:
            p, b = params(n=n, gamma=gamma, omega_exp=omega, delta_est=delta), budget()
            eta, _ = eta_opt(p, b, mode)
            assert eta <= min(eta_at(wt, p.p1_obs, p, b, mode) for wt in dense)

    @pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds are fine here
    @given(
        _log_uniform(1e4, 1e18), st.one_of(_log_uniform(1e-3, 1), st.floats(0.9, 0.999)),
        st.floats(-9, math.log10(OMEGA_MAX - 0.75)),
        st.one_of(st.floats(0, 1), _log_uniform(1e-12, 1e-4)),  # delta_est down to near 0
        _log_uniform(1e-10, 1e-2), _log_uniform(1e-10, 1), st.floats(1e-3, 0.999),
    )
    # a step top placed 1e-12 below its jump in slope alone, with no drop in
    # score, had a float slope of 237 - 5e-10 and an exact one of 237 + 1.7e-10
    @example(6635993032319115, 0.18773008150663445, -7.317713676786955, 1.365515569902938e-06,
             1.7356937498856801e-07, 0.006886299233070737, 0.3037061006267696)
    def test_ceiling_step_is_the_exact_one(self, n, gamma, lgw, u, eps_dist, eps_snd, smo):
        # the step tops eta_opt aims at sit below a jump of the gradient term
        # by 1e-12 of the slope and 1e-14 in score, so rounding must not pick
        # the ceiling; observed scores reach within 1e-9 of omega_max, where
        # rounding moves the float slope most
        omega = OMEGA_MAX - 10**lgw
        delta = u * gamma * (omega - 0.75)
        p = params(n=int(n), gamma=gamma, omega_exp=omega, delta_est=delta)
        b = budget(eps_dist=eps_dist, eps_snd=eps_snd, eps_smo=smo * math.sqrt(eps_dist))
        assert_exact_step(p, eta_opt(p, b, "ceiling")[1])

    def test_ceiling_step_is_the_exact_one_at_p1_obs(self):
        # p1_obs/gamma = 0.7804512419247545 lies a few floats past the jump to
        # step 7 (exact slope 6 + 2.9e-15), where the float slope rounds to 6:
        # the certificate may not take step 6 there, and stores step 6's top
        p = params(n=10**10, gamma=0.595, omega_exp=0.7804767449017188,
                   delta_est=delta_est_for(10**10, 1e-2))
        b = budget(eps_dist=1e-5, eps_snd=1e-5, eps_cmp=1e-2, eps_smo=1e-3)
        assert_exact_step(p, certified_log_l(p, b, "ceiling").cutoff)

    @given(ceiling_jumps())
    # gamma a few floats off a jump: p1_obs/gamma lies just past it, where a
    # bare float ceiling reads one step low and eta_opt would return it
    @example(params(n=182230985963, gamma=0.8348738635543417, omega_exp=0.8534366856095162,
                    delta_est=3.5546490707343955e-06))
    def test_ceiling_step_at_a_jump(self, p):
        # at the cutoff eta_opt returns the step is the exact one; at the raw
        # cutoff p1_obs/gamma it is never below it, and one above it only
        # between a placed top and its jump
        b = budget(eps_dist=1e-5, eps_snd=1e-5, eps_cmp=1e-2, eps_smo=1e-3)
        assert_exact_step(p, eta_opt(p, b, "ceiling")[1])
        raw = p.p1_obs / p.gamma
        assert 0 <= float_step(p, raw) - exact_step(raw, p.gamma) <= 1

    def test_kappa_domain(self):
        for zero in ("eps_snd", "eps_smo"):
            with pytest.raises(ValidationError):
                eta_opt(params(), budget(**{zero: 0.0}))

    @pytest.mark.filterwarnings("ignore:omega_exp")  # gamma = 0: vacuous threshold
    def test_zero_gamma_rejected(self):
        with pytest.raises(ValidationError):
            eta_opt(params(gamma=0.0, delta_est=0.0), budget())


class TestCutoffTerms:
    """One g' per cutoff score: eta_opt evaluates f_max and v/2 together, at
    no more than five cutoffs."""

    @pytest.mark.parametrize("mode", MODES)
    def test_one_g_prime_per_g(self, monkeypatch, mode):
        calls = {"g": 0, "g_prime": 0}
        for name in calls:
            inner = getattr(rates, name)

            def counted(w, name=name, inner=inner):
                calls[name] += 1
                return inner(w)

            monkeypatch.setattr(rates, name, counted)
        inner_terms, evaluations = rates._cutoff_terms, []

        def terms(*args):
            before = dict(calls)
            out = inner_terms(*args)
            evaluations.append({k: calls[k] - before[k] for k in calls})
            return out

        monkeypatch.setattr(rates, "_cutoff_terms", terms)
        eta_opt(params(gamma=0.05, omega_exp=0.84, delta_est=1e-4), budget(), mode)
        assert evaluations and all(e == {"g": 1, "g_prime": 1} for e in evaluations)

    @given(
        _log_uniform(1e4, 1e12), _log_uniform(1e-3, 1), st.floats(0.75, OMEGA_MAX),
        st.floats(0, 1), st.sampled_from(MODES),
    )
    def test_at_most_five_evaluations(self, n, gamma, omega, u, mode):
        calls = []
        inner = rates._cutoff_terms

        def counted(*args):
            calls.append(args)
            return inner(*args)

        p = params(n=int(n), gamma=gamma, omega_exp=omega, delta_est=u * gamma * (omega - 0.75))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(rates, "_cutoff_terms", counted)
            eta_opt(p, budget(), mode)
        assert 0 < len(calls) <= 5


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
        assert cert2.eta_opt_value == pytest.approx(0.7400242538223665, abs=1e-9)

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

    @pytest.mark.parametrize("omega_exp, eps_snd", [(0.8, 1e-300), (0.75, 1e-300)])
    def test_refuses_a_budget_its_eps_smo_underflows_against(self, omega_exp, eps_snd):
        # the search's first eps_smo, sqrt(eps_dist) / 2 (its fallback's too),
        # times eps_snd rounds to 0: the error names the budget the caller
        # gave, not an eps_smo the caller never did
        with pytest.raises(ValidationError, match=f"^eps_dist=1e-300 and eps_snd={eps_snd} "):
            optimize_parameters(10**6, omega_exp, 1e-300, eps_snd, EPS_CMP)
        with pytest.raises(ValidationError, match="^eps_dist=1e-300 "):
            rate_curve(10**6, [omega_exp], 1e-300, eps_snd, EPS_CMP)

    @pytest.mark.parametrize("omega_exp, eps_dist, eps_snd",
                             [(0.75, 1e-300, 1e-172), (0.8, 1e-200, 1e-200), (0.8, 1e-300, 1e-172)])
    def test_zero_certificate_where_the_searched_eps_smo_stays_positive(
            self, omega_exp, eps_dist, eps_snd):
        # 0.75 beats 3/4 at no gamma, so only the fallback eps_smo is tried;
        # at 0.8 the iteration's eps_smo stays near sqrt(eps_dist), about
        # 1e-150 against 1e-172, so eps_smo * eps_snd stays positive
        cert = optimize_parameters(10**6, omega_exp, eps_dist, eps_snd, EPS_CMP)
        assert cert.rate == 0 and cert.params.gamma == 1

    @pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds are fine here
    @settings(deadline=None)
    @example(10**8, 0.830, 0.8375 - 0.830, 1.0, "printed")
    @example(10**6, 0.8447, 0.0, 100.0, "printed")
    @example(10**8, 0.830, 0.8375 - 0.830, 1.0, "ceiling")
    @example(10**6, 0.8447, 0.0, 100.0, "ceiling")
    @given(
        _log_uniform(1e4, 1e12), st.floats(0.77, 0.8535), st.floats(0, 0.02),
        _log_uniform(1, 100), st.sampled_from(MODES),
    )
    def test_optimized_rate_monotone_in_score_and_n(self, n, omega, step, grow, mode):
        # a higher score never lowers the raw rate the search finds, and a
        # larger n never lowers its rate: the zero certificate where nothing
        # certifies is one fixed fallback, not the best of a losing search
        def search(n, omega):
            return optimize_parameters(int(n), min(omega, OMEGA_MAX), EPS_DIST, EPS_SND, EPS_CMP,
                                       mode)

        base = search(n, omega)
        assert base.rate_raw <= search(n, omega + step).rate_raw
        assert base.rate <= search(n * grow, omega).rate

    @pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds are fine here
    @settings(deadline=None)
    @given(
        _log_uniform(1e4, 1e12), st.floats(0.77, 0.8535), _log_uniform(1e-8, 1e-2),
        _log_uniform(1e-10, 1e-2), st.sampled_from(MODES),
    )
    def test_eps_smo_is_stationary(self, n, omega, eps_dist, eps_snd, mode):
        # nudging the searched eps_smo by 1e-6 of itself, or its gamma by 1e-6
        # or 1e-3 of itself, never raises log L; each fixed point, which starts
        # at eps_smo = sqrt(eps_dist)/2 as the zero certificate does, builds at
        # most 20 certificates, and a whole search at most 21 in printed mode
        # and 50 in ceiling mode (37 was the most in 600 random searches)
        inner, smos = rates.certified_log_l, []

        def counted(params, budget, mode):
            smos.append(budget.eps_smo)
            return inner(params, budget, mode)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(rates, "certified_log_l", counted)
            cert = optimize_parameters(int(n), omega, eps_dist, eps_snd, EPS_CMP, mode)
        starts = [i for i, smo in enumerate(smos) if smo == math.sqrt(eps_dist) / 2]
        assert starts[0] == 0
        assert max(b - a for a, b in zip(starts, starts[1:] + [len(smos)])) <= 20
        assert len(smos) <= (21 if mode == "printed" else 50)
        if cert.rate_raw > 0:
            for nudge in (1 - 1e-6, 1 + 1e-6):
                smo = cert.errors.eps_smo * nudge
                if smo < math.sqrt(eps_dist):
                    near = inner(cert.params, replace(cert.errors, eps_smo=smo), mode)
                    assert near.log_l <= cert.log_l + 1e-9 * abs(cert.log_l)
            for nudge in (1 - 1e-3, 1 - 1e-6, 1 + 1e-6, 1 + 1e-3):
                gamma = cert.params.gamma * nudge
                if gamma <= 1:
                    near = inner(replace(cert.params, gamma=gamma), cert.errors, mode)
                    assert near.log_l <= cert.log_l + 1e-9 * abs(cert.log_l)

    @pytest.mark.filterwarnings("ignore:omega_exp")  # vacuous thresholds are fine here
    @settings(deadline=None, max_examples=12)
    # the sawtooth case: ceiling step 6 peaks at rate 0.002144 (gamma 0.5966)
    # and step 5 at 0.0027061 (gamma 0.6386)
    @example(7_499_256, 0.7894980227923067, EPS_DIST, EPS_SND, "ceiling")
    @given(
        _log_uniform(1e4, 1e12), st.floats(0.77, 0.8535), _log_uniform(1e-8, 1e-2),
        _log_uniform(1e-10, 1e-2), st.sampled_from(MODES),
    )
    def test_meets_a_dense_gamma_search(self, n, omega, eps_dist, eps_snd, mode):
        # no gamma of a 1,500-point log10 scan, at its own eps_smo fixed
        # point, certifies more than the search
        cert = optimize_parameters(int(n), omega, eps_dist, eps_snd, EPS_CMP, mode)
        dense = dense_gamma_search(int(n), omega, eps_dist, eps_snd, EPS_CMP, mode)
        assert cert.rate >= dense.rate - 1e-9

    def test_takes_the_best_ceiling_step(self):
        cert = optimize_parameters(7_499_256, 0.7894980227923067, EPS_DIST, EPS_SND, EPS_CMP,
                                   "ceiling")
        assert cert.rate >= 0.0027061
        assert cert.params.gamma == pytest.approx(0.6386, abs=1e-4)

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
