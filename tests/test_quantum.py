import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diecert.chsh import optimal_strategy
from diecert.quantum import (
    BELL_BASIS,
    MAXIMALLY_MIXED,
    PHI_PLUS,
    SIGMA_X,
    SIGMA_Z,
    BellDiagonalSpectrum,
    Observable,
    TwoQubitState,
    ValidationError,
    bell_diagonal_entries,
    bell_spectrum,
    block_projectors,
    clean_eigenvalues,
    jordan_blocks,
    twirl,
    werner_state,
)

from oracles import (
    bell_diagonal_state,
    conditional_entropy,
    observables_from_blocks,
    partial_trace,
    pauli_twirl,
    von_neumann_entropy,
)


def bell_state(index):
    psi = BELL_BASIS[:, index]
    return TwoQubitState(np.outer(psi, psi.conj()))


def random_density(rng, d=4):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    dens = raw @ raw.conj().T
    return dens / np.trace(dens).real


class TestValidation:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(ValidationError):
            TwoQubitState(m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            TwoQubitState(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5, 0, 0]).astype(complex)
        with pytest.raises(ValidationError):
            TwoQubitState(m)

    def test_observable_must_square_to_identity(self):
        with pytest.raises(ValidationError):
            Observable(np.diag([1.0, 0.5]).astype(complex))

    def test_observable_compares_by_identity(self):
        # simulate's geometry cache keys on observables; comparing the
        # ndarray fields by value would raise
        a, b = Observable(SIGMA_Z), Observable(SIGMA_Z)
        assert a == a and a != b and len({a, b, a}) == 2

    def test_spectrum_must_normalize(self):
        with pytest.raises(ValidationError):
            BellDiagonalSpectrum(0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("build, message", [
        (lambda: TwoQubitState(np.zeros((4, 3))), "density matrix must be square"),
        (lambda: TwoQubitState(np.eye(2) / 2), "two-qubit state must be 4x4"),
        (lambda: Observable(np.zeros((2, 3))), "observable must be square"),
        (lambda: Observable(np.array([[0, 1], [0, 0]])), "observable is not Hermitian"),
        (lambda: BellDiagonalSpectrum(1.5, -0.5, 0, 0), "spectrum has negative entry"),
        (lambda: clean_eigenvalues(np.array([-0.1])), "eigenvalue -0.1 below"),
        (lambda: clean_eigenvalues(np.array([1.1])), "eigenvalue 1.1 above"),
        (lambda: jordan_blocks(Observable(SIGMA_Z), Observable(np.diag([1.0, 1.0, -1.0, -1.0]))),
         "observable dimensions differ: 2 vs 4"),
    ], ids=["state-not-square", "state-not-4x4", "observable-not-square",
            "observable-not-hermitian", "spectrum-negative", "eigenvalue-below-0",
            "eigenvalue-above-1", "jordan-dimensions-differ"])
    def test_rejects_malformed(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestPartialTrace:
    def test_maximally_entangled_marginal(self):
        reduced = partial_trace(bell_state(0), keep="B")
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_product_state(self):
        rho = np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex)
        sigma = np.array([[0.2, 0], [0, 0.8]], dtype=complex)
        state = TwoQubitState(np.kron(rho, sigma))
        assert np.allclose(partial_trace(state, keep="A"), rho, atol=1e-12)
        assert np.allclose(partial_trace(state, keep="B"), sigma, atol=1e-12)

    def test_werner_marginal(self):
        reduced = partial_trace(werner_state(0.3), keep="B")
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_rejects_unknown_side(self):
        with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
            partial_trace(werner_state(0.3), "C")


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(bell_state(2).matrix) == pytest.approx(0, abs=1e-10)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2, abs=1e-12)

    def test_werner_half(self):
        # eigenvalues (0.625, 0.125, 0.125, 0.125)
        assert von_neumann_entropy(werner_state(0.5).matrix) == pytest.approx(
            1.5487949406953985, abs=1e-9
        )

    def test_conditional_entropy_bell_state(self):
        assert conditional_entropy(bell_state(0)) == pytest.approx(-1, abs=1e-10)

    def test_conditional_entropy_maximally_mixed(self):
        state = TwoQubitState(np.eye(4, dtype=complex) / 4)
        assert conditional_entropy(state) == pytest.approx(1, abs=1e-12)

    def test_conditional_entropy_range(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = conditional_entropy(TwoQubitState(random_density(rng)))
            assert -1 - 1e-9 <= h <= 1 + 1e-9

    def test_minus_one_only_for_bell_states(self):
        for k in range(4):
            assert conditional_entropy(bell_state(k)) == pytest.approx(-1, abs=1e-10)
        assert conditional_entropy(werner_state(0.1)) > -1 + 1e-3


class TestTwirl:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=32, max_size=32))
    def test_equals_the_pauli_average(self, entries):
        raw = np.reshape(entries[:16], (4, 4)) + 1j * np.reshape(entries[16:], (4, 4))
        dens = raw @ raw.conj().T
        assume(np.trace(dens).real > 1e-3)
        state = TwoQubitState(dens / np.trace(dens).real)
        assert np.max(np.abs(twirl(state).matrix - pauli_twirl(state).matrix)) <= 1e-14

    def test_bell_states_fixed(self):
        for k in range(4):
            state = bell_state(k)
            assert np.allclose(twirl(state).matrix, state.matrix, atol=1e-14)

    def test_maximally_mixed_fixed(self):
        state = TwoQubitState(np.eye(4, dtype=complex) / 4)
        assert np.allclose(twirl(state).matrix, state.matrix, atol=1e-14)

    def test_computational_basis_state(self):
        psi = np.zeros(4)
        psi[0] = 1
        spec = bell_spectrum(twirl(TwoQubitState(np.outer(psi, psi))))
        assert np.allclose(spec.as_array(), [0.5, 0.5, 0, 0], atol=1e-12)

    def test_idempotent_and_diagonal_preserving(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            state = TwoQubitState(random_density(rng))
            once = twirl(state)
            assert np.max(np.abs(twirl(once).matrix - once.matrix)) < 1e-12
            din = np.diag(bell_diagonal_entries(state))
            dout = np.diag(bell_diagonal_entries(once))
            assert np.max(np.abs(din - dout)) < 1e-12

    def test_output_bell_diagonal(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            out = twirl(TwoQubitState(random_density(rng)))
            in_bell = bell_diagonal_entries(out)
            off = in_bell - np.diag(np.diag(in_bell))
            assert np.max(np.abs(off)) < 1e-12

    def test_decoupling_with_classical_side_info(self):
        # conditional twirl of a cq-state: each branch stays Bell-diagonal and
        # the conditional entropy is the weighted sum of branch entropies
        rng = np.random.default_rng(55)
        weights = (0.3, 0.7)
        branches = [twirl(TwoQubitState(random_density(rng))) for _ in weights]
        joint = np.zeros((8, 8), dtype=complex)
        joint_b = np.zeros((4, 4), dtype=complex)
        expected = 0.0
        for k, (p, st) in enumerate(zip(weights, branches)):
            in_bell = bell_diagonal_entries(st)
            assert np.max(np.abs(in_bell - np.diag(np.diag(in_bell)))) < 1e-12
            proj = np.zeros((2, 2))
            proj[k, k] = 1
            joint += p * np.kron(st.matrix, proj)
            joint_b += p * np.kron(partial_trace(st, keep="B"), proj)
            expected += p * conditional_entropy(st)
        direct = von_neumann_entropy(joint) - von_neumann_entropy(joint_b)
        assert direct == pytest.approx(expected, abs=1e-9)


class TestBellSpectrum:
    def test_pure_bell_states(self):
        assert np.allclose(bell_spectrum(bell_state(3)).as_array(), [0, 0, 0, 1])

    def test_maximally_mixed(self):
        state = TwoQubitState(np.eye(4, dtype=complex) / 4)
        assert np.allclose(bell_spectrum(state).as_array(), [0.25] * 4)

    def test_rejects_non_diagonal_with_magnitude(self):
        psi = np.zeros(4)
        psi[0] = 1
        with pytest.raises(ValidationError, match="off-diagonal"):
            bell_spectrum(TwoQubitState(np.outer(psi, psi)))

    def test_spectrum_roundtrip(self):
        spec = BellDiagonalSpectrum(0.4, 0.3, 0.2, 0.1)
        assert np.allclose(bell_spectrum(bell_diagonal_state(spec)).as_array(), spec.as_array())


class TestWerner:
    def test_endpoints(self):
        assert np.allclose(werner_state(0).matrix, bell_state(0).matrix, atol=1e-12)
        assert np.allclose(werner_state(1).matrix, np.eye(4) / 4, atol=1e-12)

    def test_half_spectrum(self):
        xi = 0.5
        spec = bell_spectrum(werner_state(xi)).as_array()
        assert np.allclose(spec, [0.625, 0.125, 0.125, 0.125], atol=1e-12)
        assert np.allclose(spec, [1 - 3 * xi / 4, xi / 4, xi / 4, xi / 4], atol=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            werner_state(1.2)

    def test_shared_ends_are_read_only(self):
        # optimal_strategy's state is PHI_PLUS itself; a write would change every Werner state
        for shared in (PHI_PLUS, MAXIMALLY_MIXED, optimal_strategy().state):
            with pytest.raises(ValueError, match="read-only"):
                shared[0, 0] = 0


def two_block_observables(angles, seed=7):
    """Build a pair of reflections with the given Jordan angles, in a basis
    scrambled by a random unitary drawn from `seed`."""
    blocks0 = []
    blocks1 = []
    for angle in angles:
        blocks0.append(SIGMA_Z)
        blocks1.append(math.cos(angle) * SIGMA_Z + math.sin(angle) * SIGMA_X)
    d = 2 * len(angles)
    m0 = np.zeros((d, d), dtype=complex)
    m1 = np.zeros((d, d), dtype=complex)
    for k in range(len(angles)):
        m0[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks0[k]
        m1[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks1[k]
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return Observable(q @ m0 @ q.conj().T), Observable(q @ m1 @ q.conj().T)


class TestJordanBlocks:
    def test_sigma_z_sigma_x(self):
        blocks = jordan_blocks(Observable(SIGMA_Z), Observable(SIGMA_X))
        assert len(blocks) == 1
        assert blocks[0].angle == pytest.approx(math.pi / 2, abs=1e-10)

    def test_identical_observables(self):
        blocks = jordan_blocks(Observable(SIGMA_Z), Observable(SIGMA_Z))
        assert len(blocks) == 1
        assert blocks[0].angle == pytest.approx(0, abs=1e-10)

    def test_round_trip_angles(self):
        obs0, obs1 = two_block_observables((0.3, 1.2))
        blocks = jordan_blocks(obs0, obs1)
        assert sorted(b.angle for b in blocks) == pytest.approx([0.3, 1.2], abs=1e-8)

    def test_completeness_and_reconstruction(self):
        obs0, obs1 = two_block_observables((0.4, 2.1, 0.9))
        blocks = jordan_blocks(obs0, obs1)
        total = sum(block_projectors(blocks))
        assert np.max(np.abs(total - np.eye(6))) < 1e-10
        r0, r1 = observables_from_blocks(blocks)
        assert np.max(np.abs(r0 - obs0.matrix)) < 1e-8
        assert np.max(np.abs(r1 - obs1.matrix)) < 1e-8

    def test_outcome_projectors_commute_with_block_projectors(self):
        # so the simulator may condition on a block pair by multiplying them
        obs0, obs1 = two_block_observables((0.4, 2.1, 0.9))
        blocks = block_projectors(jordan_blocks(obs0, obs1))
        for obs in (obs0, obs1):
            plus, minus = obs.projectors
            assert np.max(np.abs(plus + minus - np.eye(6))) < 1e-12
            assert np.max(np.abs(plus - minus - obs.matrix)) < 1e-12
            for p in (plus, minus):
                assert np.max(np.abs(p @ p - p)) < 1e-12
                for q in blocks:
                    assert np.max(np.abs(p @ q - q @ p)) < 1e-10

    def test_product_trace_gives_angle(self):
        obs0, obs1 = two_block_observables((0.8,))
        blocks = jordan_blocks(obs0, obs1)
        basis = blocks[0].block_basis
        a0 = basis.conj() @ obs0.matrix @ basis.T
        a1 = basis.conj() @ obs1.matrix @ basis.T
        assert np.trace(a0 @ a1).real == pytest.approx(
            2 * math.cos(blocks[0].angle), abs=1e-8
        )

    def test_odd_dimension_rejected(self):
        # an odd dimension leaves some eigenspace with unequal +1 and -1 counts
        with pytest.raises(ValidationError, match="no 2x2 block"):
            jordan_blocks(Observable(np.eye(3)), Observable(np.eye(3)))

    @given(
        st.lists(st.sampled_from((0.0, 0.6, math.pi / 2, 2.3, math.pi)), min_size=2, max_size=5)
        .filter(lambda angles: len(set(angles)) < len(angles)),
        st.integers(0, 2**32 - 1),
    )
    def test_blocks_sharing_an_angle(self, angles, seed):
        # a repeated angle puts two or more blocks in one eigenspace, which
        # the SVD must pair into blocks of the documented frame
        obs0, obs1 = two_block_observables(angles, seed)
        d = 2 * len(angles)
        blocks = jordan_blocks(obs0, obs1)
        assert len(blocks) == d // 2
        # each angle is atan2 of the sine and cosine the pairing measures, so
        # it is exact to rounding at 0 and pi as elsewhere: the angles are
        # compared at 1e-12 and whatever reads the sine at 1e-10
        assert [b.angle for b in blocks] == pytest.approx(sorted(angles), abs=1e-12)
        basis = np.vstack([b.block_basis for b in blocks])
        assert np.max(np.abs(basis.conj() @ basis.T - np.eye(d))) < 1e-10
        assert np.max(np.abs(sum(block_projectors(blocks)) - np.eye(d))) < 1e-10
        r0, r1 = observables_from_blocks(blocks)
        assert np.max(np.abs(r0 - obs0.matrix)) < 1e-10
        assert np.max(np.abs(r1 - obs1.matrix)) < 1e-10
        for b in blocks:
            u, w = b.block_basis
            assert u.conj() @ obs0.matrix @ u == pytest.approx(1, abs=1e-10)
            assert u.conj() @ obs1.matrix @ u == pytest.approx(math.cos(b.angle), abs=1e-10)
            sine = u.conj() @ obs1.matrix @ w
            assert sine == pytest.approx(math.sin(b.angle), abs=1e-10)
            assert sine.real >= -1e-12

    @pytest.mark.parametrize("s0, s1", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_signed_identities_rejected(self, s0, s1):
        # a +/-I pair has one +1 or -1 eigenspace and no 2x2 block to pair it in
        with pytest.raises(ValidationError, match="no 2x2 block"):
            jordan_blocks(Observable(s0 * np.eye(2)), Observable(s1 * np.eye(2)))

    def test_unequal_multiplicities_rejected(self):
        m = np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValidationError, match="no 2x2 block"):
            jordan_blocks(Observable(m), Observable(m))
