"""Acceptance gate: the nine criteria the package must satisfy.

Each test prints a single PASS/FAIL line with the measured figure of merit so
the whole gate can be audited from the pytest -s output.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from diecert.bounds import (
    bell_diag_entropy_bound,
    brute_force_max_entropy,
    g,
    g_prime,
    max_total_entropy,
)
from diecert.chsh import (
    BETA_MAX,
    OMEGA_MAX,
    deterministic_strategy,
    optimal_strategy,
    winning_probability,
)
from diecert.quantum import (
    BELL_BASIS,
    TwoQubitState,
    bell_diagonal_entries,
    twirl,
    werner_state,
)
from diecert.rates import (
    ProtocolParams,
    asymptotic_rate,
    completeness_bound,
    rate_curve,
)
from diecert.simulate import (
    HonestIIDDevice,
    check_statistics_equivalence,
    estimate_abort_probability,
)

from oracles import optimal_measurement_strategy, optimal_spectrum
from reference_data import ASYMPTOTIC_CURVE, ENTROPY_CURVE, RATE_CURVES


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, detail


def test_criterion_1_entropy_bound_curve():
    start = time.monotonic()
    worst = max(
        abs(bell_diag_entropy_bound(8 * omega - 4).conditional_bound - bound)
        for omega, bound in ENTROPY_CURVE
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 1.0
    report(1, ok, f"entropy curve: 31 points, max |dev| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_asymptotic_curve():
    start = time.monotonic()
    worst = max(abs(asymptotic_rate(w) - r) for w, r in ASYMPTOTIC_CURVE)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-3 and elapsed < 1.0
    report(2, ok, f"asymptotic curve: 48 points, max |dev| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_finite_n_curves():
    start = time.monotonic()
    details = []
    all_ok = True
    for n in sorted(RATE_CURVES):
        points = RATE_CURVES[n]
        certs = rate_curve(
            n, [w for w, _ in points], 1e-5, 1e-5, 1e-2, mode="ceiling"
        )
        residuals = [c.rate_raw - r for c, (_, r) in zip(certs, points)]
        hits = sum(1 for d in residuals if abs(d) <= 0.01)
        needed = math.ceil(0.9 * len(points))
        ok = hits >= needed
        all_ok = all_ok and ok
        details.append(f"n=1e{round(math.log10(n))}: {hits}/{len(points)}")
    elapsed = time.monotonic() - start
    ok = all_ok and elapsed < 300
    report(3, ok, f"finite-n curves (ceiling mode): {', '.join(details)}, {elapsed:.1f}s")


def test_criterion_4_bound_oracle():
    start = time.monotonic()
    worst_val = 0.0
    worst_arg = 0.0
    for beta in np.linspace(2.05, BETA_MAX, 20):
        beta = float(beta)
        spectrum, found = brute_force_max_entropy(beta, grid_step=0.01)
        worst_val = max(worst_val, abs(found - max_total_entropy(beta)))
        dev = np.max(
            np.abs(spectrum.as_array() - optimal_spectrum(beta).as_array())
        )
        worst_arg = max(worst_arg, float(dev))
    elapsed = time.monotonic() - start
    ok = worst_val <= 1e-4 and worst_arg <= 2e-3 and elapsed < 30
    report(
        4,
        ok,
        f"oracle: max value dev = {worst_val:.2e}, max argmax dev = {worst_arg:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_gradient_check():
    worst = 0.0
    gammas = [0.05, 0.1, 0.2, 0.5, 0.9]
    cutoffs = [0.76 + 0.009 * k for k in range(10)]
    for gamma in gammas:
        for wt in cutoffs:
            analytic = (1 - gamma) / gamma * g_prime(wt)
            h = 1e-6 * gamma
            p1 = wt * gamma
            fd = (
                (1 - gamma) * g((p1 + h) / gamma)
                - (1 - gamma) * g((p1 - h) / gamma)
            ) / (2 * h)
            worst = max(worst, abs(fd - analytic) / abs(analytic))
    ok = worst < 1e-6
    report(5, ok, f"tangent slope vs finite difference: 50 pairs, max rel err = {worst:.2e}")


def test_criterion_6_completeness():
    device = HonestIIDDevice(optimal_strategy())
    settings = [(10**3, 0.02), (10**4, 0.01), (10**5, 0.005)]
    details = []
    all_ok = True
    for n, delta in settings:
        params = ProtocolParams(n=n, gamma=0.5, omega_exp=0.85, delta_est=delta)
        est, (lo, hi) = estimate_abort_probability(device, params, trials=2000, seed=61)
        bound = completeness_bound(n, delta)
        ok = lo <= bound + 1e-12
        all_ok = all_ok and ok
        details.append(f"n={n}: est={est:.4f} in [{lo:.4f},{hi:.4f}] vs bound {bound:.4f}")
    report(6, all_ok, "honest abort within Hoeffding bound; " + "; ".join(details))


def test_criterion_7_twirl_structure():
    rng = np.random.default_rng(7)
    worst_off = 0.0
    for _ in range(100):
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        dens = raw @ raw.conj().T
        state = TwoQubitState(dens / np.trace(dens).real)
        in_bell = bell_diagonal_entries(twirl(state))
        off = in_bell - np.diag(np.diag(in_bell))
        worst_off = max(worst_off, float(np.max(np.abs(off))))
    worst_fix = 0.0
    for vec in BELL_BASIS.T:
        pure = TwoQubitState(np.outer(vec, vec.conj()))
        worst_fix = max(
            worst_fix, float(np.max(np.abs(twirl(pure).matrix - pure.matrix)))
        )
    mixed = TwoQubitState(np.eye(4, dtype=complex) / 4)
    worst_fix = max(
        worst_fix, float(np.max(np.abs(twirl(mixed).matrix - mixed.matrix)))
    )
    ok = worst_off < 1e-12 and worst_fix <= 1e-14
    report(
        7,
        ok,
        f"twirl: max off-diagonal = {worst_off:.2e} (100 states), "
        f"max fixed-point dev = {worst_fix:.2e}",
    )


def test_criterion_8_chsh_exactness():
    opt_dev = abs(winning_probability(optimal_strategy()) - OMEGA_MAX)
    det_max = max(
        winning_probability(deterministic_strategy(*t)) for t in product((0, 1), repeat=4)
    )
    werner_dev = 0.0
    for xi in (0.0, 0.2, 0.5, 0.8, 1.0):
        score = winning_probability(optimal_measurement_strategy(werner_state(xi)))
        expected = 0.5 + (1 - xi) * math.sqrt(2) / 4
        werner_dev = max(werner_dev, abs(score - expected))
    ok = opt_dev <= 1e-12 and det_max <= 0.75 + 1e-12 and werner_dev <= 1e-10
    report(
        8,
        ok,
        f"CHSH: optimal dev = {opt_dev:.1e}, classical max = {det_max:.4f}, "
        f"Werner dev = {werner_dev:.1e}",
    )


def test_criterion_9_statistics_equivalence():
    device = HonestIIDDevice(optimal_strategy())
    params = ProtocolParams(n=50000, gamma=0.5, omega_exp=0.8, delta_est=0.05)
    result = check_statistics_equivalence(device, params, trials=2, seed=91)
    rounds = params.n * result["trials"]
    ok = result["passed"] and rounds >= 10**5
    report(
        9,
        ok,
        f"standard vs modified marginals within 3 sigma over {rounds} rounds per mode",
    )
