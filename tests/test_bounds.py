import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diecert.bounds import (
    bell_diag_entropy_bound,
    binary_entropy,
    brute_force_max_entropy,
    g,
    g_prime,
    max_total_entropy,
)
from diecert.chsh import BETA_MAX, OMEGA_CLASSICAL, OMEGA_MAX, beta_from_omega
from diecert.quantum import ValidationError

from oracles import bell_diagonal_state, optimal_spectrum, von_neumann_entropy
from reference_data import ENTROPY_CURVE

# independently derived to full precision at beta = 2.5
ORACLE_BETA = 2.5
ORACLE_TOTAL = 0.639376453253024
ORACLE_CONDITIONAL = ORACLE_TOTAL - 1
ORACLE_SPECTRUM = (0.0033707617584078017, 0.054687500000000035,
                   0.8872542382415922, 0.054687500000000035)


class TestBinaryEntropy:
    def test_endpoints_and_midpoint(self):
        assert binary_entropy(0) == 0
        assert binary_entropy(1) == 0
        assert binary_entropy(0.5) == 1

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=0.5))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            binary_entropy(1.5)


class TestGCurve:
    def test_classical_point(self):
        assert g(OMEGA_CLASSICAL) == pytest.approx(0.20175207338571233, abs=1e-12)

    def test_quantum_maximum(self):
        assert g(OMEGA_MAX) == pytest.approx(-1, abs=1e-12)

    @given(st.floats(min_value=OMEGA_CLASSICAL, max_value=OMEGA_MAX))
    def test_matches_total_entropy_shift(self, omega):
        # bit for bit: 8 omega - 4 and 4 sqrt(2) are 2 omega - 1 and sqrt(2)
        # times the same power of two, so both homes divide to the same h argument
        assert g(omega) == max_total_entropy(beta_from_omega(omega)) - 1

    def test_monotone_decreasing(self):
        omegas = np.linspace(OMEGA_CLASSICAL, OMEGA_MAX, 200)
        vals = [g(w) for w in omegas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_derivative_matches_finite_difference(self):
        eps = 1e-7
        for omega in (0.76, 0.8, 0.84):
            fd = (g(omega + eps) - g(omega - eps)) / (2 * eps)
            assert g_prime(omega) == pytest.approx(fd, rel=1e-5)

    def test_rejects_superquantum(self):
        with pytest.raises(ValidationError):
            g(0.99)

    def test_derivative_rejects_superquantum(self):
        # at OMEGA_MAX itself the h argument rounds to 5.6e-17 and g' is defined
        with pytest.raises(ValidationError, match="g' undefined at omega=0.9"):
            g_prime(0.9)

    def test_reference_curve(self):
        for omega, bound in ENTROPY_CURVE:
            assert g(omega) == pytest.approx(bound, abs=2e-4)


class TestAnalyticBound:
    def test_oracle_point(self):
        res = bell_diag_entropy_bound(ORACLE_BETA)
        assert res.max_total_entropy == pytest.approx(ORACLE_TOTAL, abs=1e-12)
        assert res.conditional_bound == pytest.approx(ORACLE_CONDITIONAL, abs=1e-12)
        assert np.allclose(
            optimal_spectrum(res.beta).as_array(), ORACLE_SPECTRUM, atol=1e-12
        )

    def test_maximal_violation_pins_bell_state(self):
        res = bell_diag_entropy_bound(BETA_MAX)
        assert res.conditional_bound == pytest.approx(-1, abs=1e-12)
        assert np.allclose(optimal_spectrum(res.beta).as_array(), [0, 0, 1, 0], atol=1e-12)

    def test_classical_value(self):
        res = bell_diag_entropy_bound(2.0)
        assert res.conditional_bound == pytest.approx(0.20175207338571233, abs=1e-12)

    def test_spectrum_attains_the_bound(self):
        for beta in (2.05, 2.5, 2.8):
            res = bell_diag_entropy_bound(beta)
            state = bell_diagonal_state(optimal_spectrum(res.beta))
            assert von_neumann_entropy(state.matrix) == pytest.approx(
                res.max_total_entropy, abs=1e-10
            )

    def test_spectrum_product_structure(self):
        # the maximizer is a product distribution (lo, hi) x (lo, hi)
        beta = 2.3
        lo = 0.5 - beta / (4 * math.sqrt(2))
        lam = optimal_spectrum(beta).as_array()
        assert lam[0] == pytest.approx(lo * lo, abs=1e-12)
        assert lam[1] == pytest.approx(lam[3], abs=1e-15)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            bell_diag_entropy_bound(1.5)
        with pytest.raises(ValidationError):
            bell_diag_entropy_bound(3.0)


class TestBruteForce:
    def test_matches_analytic_at_oracle(self):
        spectrum, value = brute_force_max_entropy(ORACLE_BETA, grid_step=0.01)
        assert value == pytest.approx(ORACLE_TOTAL, abs=1e-6)
        assert np.allclose(spectrum.as_array(), ORACLE_SPECTRUM, atol=1e-4)

    @pytest.mark.parametrize("beta", [2.05, 2.2, 2.5, 2.7, BETA_MAX])
    def test_matches_analytic_across_range(self, beta):
        _, value = brute_force_max_entropy(beta, grid_step=0.01)
        assert value == pytest.approx(max_total_entropy(beta), abs=1e-9)

    @pytest.mark.parametrize("grid_step", [0.01, 0.02])
    @pytest.mark.parametrize("beta", [2.736556031499937, 2.828395, BETA_MAX - 1e-6,
                                      BETA_MAX - 1e-8])
    def test_matches_analytic_along_thin_edges(self, beta, grid_step):
        # the optimum lies next to a thin edge of the region: the zoom must
        # re-centre past its window (2.7366 at step 0.02) and, near 2 sqrt(2),
        # resolve an eigenvalue far below 1e-8
        _, value = brute_force_max_entropy(beta, grid_step)
        assert value == pytest.approx(max_total_entropy(beta), abs=1e-9)

    def test_never_exceeds_analytic(self):
        for beta in np.linspace(2.05, BETA_MAX, 12):
            _, value = brute_force_max_entropy(float(beta), grid_step=0.02)
            assert value <= max_total_entropy(float(beta)) + 1e-9

    def test_deterministic(self):
        a = brute_force_max_entropy(2.4, grid_step=0.01)
        b = brute_force_max_entropy(2.4, grid_step=0.01)
        assert a[1] == b[1]
        assert np.array_equal(a[0].as_array(), b[0].as_array())

    def test_returned_spectrum_is_feasible(self):
        spectrum, value = brute_force_max_entropy(2.6, grid_step=0.01)
        lam = spectrum.as_array()
        assert np.all(lam >= -1e-12)
        assert lam.sum() == pytest.approx(1, abs=1e-9)
        bell = 2 * math.sqrt(2) * math.hypot(lam[0] - lam[2], lam[1] - lam[3])
        assert bell == pytest.approx(2.6, abs=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            brute_force_max_entropy(2.0, grid_step=0.01)
        with pytest.raises(ValidationError):
            brute_force_max_entropy(2.5, grid_step=0.2)
        with pytest.raises(ValidationError):
            brute_force_max_entropy(2.5, grid_step=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=2.05, max_value=BETA_MAX))
    def test_agreement_property(self, beta):
        _, value = brute_force_max_entropy(beta, grid_step=0.02)
        assert value == pytest.approx(max_total_entropy(beta), abs=1e-9)

    def test_other_constraint_branches_stay_below_analytic(self):
        """The oracle searches only the region where the (phi+, psi+)/(phi-, psi-)
        pairing carries the Bell value. By eigenvalue-relabeling symmetry a
        spectrum whose Bell value is set by one of the other two pairings maps
        to that region without changing its entropy, so its entropy must not
        exceed the analytic maximum at its own Bell value. Checked on a coarse
        simplex grid rather than taken on faith.
        """
        step = 0.02
        c = 2 * math.sqrt(2)
        ticks = [i * step for i in range(int(round(1 / step)) + 1)]
        for a in ticks:
            for b in ticks:
                if a + b > 1 + 1e-12:
                    break
                for cc in ticks:
                    d = 1 - a - b - cc
                    if d < -1e-12:
                        break
                    d = max(d, 0.0)
                    v1 = c * math.hypot(a - cc, b - d)
                    # pairings (phi+,psi-)/(phi-,psi+) and (phi+,phi-)/(psi+,psi-)
                    v2 = c * math.hypot(a - d, b - cc)
                    v3 = c * math.hypot(a - b, cc - d)
                    vm = max(v1, v2, v3)
                    if vm <= 2 or vm <= v1 + 1e-12:
                        continue  # branch 1 binding: already the searched region
                    vm = min(vm, BETA_MAX)
                    ent = -sum(p * math.log2(p) for p in (a, b, cc, d) if p > 1e-12)
                    assert ent <= max_total_entropy(vm) + 1e-9, (
                        "alternate constraint branch exceeds the analytic maximum: "
                        f"entropy {ent} at Bell value {vm}"
                    )
