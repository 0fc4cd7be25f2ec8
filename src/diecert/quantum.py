"""Exact finite-dimensional quantum math for two-qubit certification.

Density matrices, binary (+/-1) observables, the Bell basis, twirling,
Jordan-block decomposition of observable pairs and Bell spectra.
Everything here is deterministic linear algebra; all randomness lives in
the simulation layer.

Jordan blocks have one pairing rule: in each eigenspace of the symmetrised
product, one SVD pairs obs0's +1 vectors with its -1 vectors, so that every
block, at any angle, is a singular pair, and its angle is atan2 of the sine
and cosine that pairing measures, exact to rounding at 0 and pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-10  # hermiticity, unit trace, PSD, +/-1 eigenvalues, eigenvalue clip, Bell-diagonality
ENTROPY_EIG_CUTOFF = 1e-12
_JORDAN_TOL = 1e-8  # cos(angle) degeneracy in jordan_blocks

# Pauli matrices
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Bell basis column vectors, ordered (Phi+, Phi-, Psi+, Psi-).
_s = 1 / math.sqrt(2)
BELL_BASIS = np.array(
    [
        [_s, _s, 0, 0],
        [0, 0, _s, _s],
        [0, 0, _s, -_s],
        [_s, -_s, 0, 0],
    ],
    dtype=complex,
)
# |Phi+><Phi+| and I/4, the two ends of every Werner state; read-only, so shared safely
PHI_PLUS = np.outer(BELL_BASIS[:, 0], BELL_BASIS[:, 0].conj())
MAXIMALLY_MIXED = np.eye(4) / 4
PHI_PLUS.flags.writeable = MAXIMALLY_MIXED.flags.writeable = False


class ValidationError(ValueError):
    """Raised when an input fails a check: a matrix, a parameter or an option."""


def _check_hermitian(matrix: np.ndarray, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{what} must be square, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > _TOL:
        raise ValidationError(f"{what} is not Hermitian within tolerance")
    return m


def _check_density(matrix: np.ndarray) -> np.ndarray:
    m = _check_hermitian(matrix, "density matrix")
    if abs(np.trace(m).real - 1.0) > _TOL or abs(np.trace(m).imag) > _TOL:
        raise ValidationError(f"density matrix trace is {np.trace(m)}, expected 1")
    eigvals = np.linalg.eigvalsh(m)
    if eigvals.min() < -_TOL:
        raise ValidationError(f"density matrix has negative eigenvalue {eigvals.min()}")
    return m


@dataclass(frozen=True)
class TwoQubitState:
    """A 4x4 density matrix on two qubits (A tensor B)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_density(self.matrix)
        if m.shape != (4, 4):
            raise ValidationError(f"two-qubit state must be 4x4, got {m.shape}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class Observable:
    """A d x d Hermitian matrix with eigenvalues in {-1, +1} (a reflection),
    compared and hashed by identity, so it can key a cache."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _check_hermitian(self.matrix, "observable")
        if np.max(np.abs(m @ m - np.eye(m.shape[0]))) > _TOL:
            raise ValidationError("observable does not square to the identity")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def projectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Projectors onto the +1 and -1 eigenspaces, outcomes 0 and 1."""
        eye = np.eye(self.dim)
        return (eye + self.matrix) / 2, (eye - self.matrix) / 2


@dataclass(frozen=True)
class BellDiagonalSpectrum:
    """Eigenvalues of a Bell-diagonal state, ordered (Phi+, Phi-, Psi+, Psi-)."""

    lambda_phi_plus: float
    lambda_phi_minus: float
    lambda_psi_plus: float
    lambda_psi_minus: float

    def __post_init__(self):
        vec = self.as_array()
        if np.any(vec < -ENTROPY_EIG_CUTOFF):
            raise ValidationError(f"spectrum has negative entry: {vec}")
        if abs(vec.sum() - 1.0) > 1e-12:
            raise ValidationError(f"spectrum sums to {vec.sum()}, expected 1")

    def as_array(self) -> np.ndarray:
        return np.array(
            [
                self.lambda_phi_plus,
                self.lambda_phi_minus,
                self.lambda_psi_plus,
                self.lambda_psi_minus,
            ]
        )


@dataclass(frozen=True)
class JordanBlock:
    """One 2x2 common block of a pair of reflections.

    In `block_basis` (two orthonormal d-vectors, as rows) the first
    observable acts as sigma_z and the second as
    cos(angle) sigma_z + sin(angle) sigma_x.
    """

    angle: float
    block_basis: np.ndarray


def clean_eigenvalues(eigvals: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues to [0, 1], rejecting anything beyond tolerance."""
    eigvals = np.asarray(eigvals, dtype=float)
    if eigvals.min() < -_TOL:
        raise ValidationError(f"eigenvalue {eigvals.min()} below -{_TOL}")
    if eigvals.max() > 1 + _TOL:
        raise ValidationError(f"eigenvalue {eigvals.max()} above 1+{_TOL}")
    return np.clip(eigvals, 0.0, 1.0)


def twirl(state: TwoQubitState) -> TwoQubitState:
    """The Bell-basis diagonal of `state`, as a Bell-diagonal state.

    This is the average of the U (x) U conjugations over the four Paulis:
    each Bell state is a common eigenvector of the four U (x) U, with a sign
    pattern no other Bell state shares, so the average keeps the diagonal and
    cancels every off-diagonal entry.
    """
    diag = np.diag(np.diag(bell_diagonal_entries(state)))
    return TwoQubitState(BELL_BASIS @ diag @ BELL_BASIS.conj().T)


def bell_diagonal_entries(state: TwoQubitState) -> np.ndarray:
    """The state expressed in the Bell basis (full 4x4 matrix)."""
    return BELL_BASIS.conj().T @ state.matrix @ BELL_BASIS


def bell_spectrum(state: TwoQubitState) -> BellDiagonalSpectrum:
    """Spectrum of a Bell-diagonal state; rejects non-Bell-diagonal input."""
    in_bell = bell_diagonal_entries(state)
    off = in_bell - np.diag(np.diag(in_bell))
    max_off = float(np.max(np.abs(off)))
    if max_off > _TOL:
        raise ValidationError(
            f"state is not Bell-diagonal: max off-diagonal magnitude {max_off:.3e}"
        )
    diag = clean_eigenvalues(np.diag(in_bell).real)
    return BellDiagonalSpectrum(*diag)


def werner_state(xi: float) -> TwoQubitState:
    """(1 - xi)|Phi+><Phi+| + xi I/4: the one check that xi lies in [0, 1]."""
    if not 0.0 <= xi <= 1.0:
        raise ValidationError(f"xi={xi} outside [0, 1]")
    return TwoQubitState((1 - xi) * PHI_PLUS + xi * MAXIMALLY_MIXED)


def jordan_blocks(obs0: Observable, obs1: Observable) -> list[JordanBlock]:
    """Decompose a pair of reflections into common 2x2 blocks.

    The symmetrised product (obs0 obs1 + obs1 obs0)/2 commutes with both
    observables and has eigenvalue cos(angle) on each block, so its
    eigenspaces group the blocks by angle. Each eigenspace splits into
    obs0's +1 and -1 vectors, equal in number, and one SVD of
    plus^dagger obs1 minus pairs them: each singular pair (u, w) has
    <u|obs1|w> = sin(angle) >= 0, and at angle 0 or pi any pairing is a
    block. The angle is atan2(mean singular value, mean eigenvalue).
    Returns d/2 blocks with angles in [0, pi].
    """
    a0, a1 = obs0.matrix, obs1.matrix
    d = obs0.dim
    if obs1.dim != d:
        raise ValidationError(f"observable dimensions differ: {d} vs {obs1.dim}")

    cos_vals, vecs = np.linalg.eigh((a0 @ a1 + a1 @ a0) / 2)
    blocks: list[JordanBlock] = []
    i = 0
    while i < d:
        # group the degenerate eigenspace of this cos(angle)
        j = i + 1
        while j < d and cos_vals[j] - cos_vals[i] < _JORDAN_TOL:
            j += 1
        cos = float(np.mean(cos_vals[i:j]))
        space = vecs[:, i:j]
        vals, v = np.linalg.eigh(space.conj().T @ a0 @ space)
        plus, minus = space @ v[:, vals > 0], space @ v[:, vals < 0]
        if plus.shape[1] != minus.shape[1]:
            # e.g. an odd dimension or a pair of +/-identities: no 2x2 block
            # pairs a +1 with a -1 vector
            raise ValidationError(
                f"Jordan eigenspace at cos(angle) {cos:.6g} has {plus.shape[1]} +1 and "
                f"{minus.shape[1]} -1 vectors; the pair has no 2x2 block decomposition"
            )
        left, sines, right = np.linalg.svd(plus.conj().T @ a1 @ minus)
        angle = math.atan2(float(np.mean(sines)), cos)
        for u, w in zip((plus @ left).T, (minus @ right.conj().T).T):
            blocks.append(JordanBlock(angle=angle, block_basis=np.vstack([u, w])))
        i = j
    blocks.sort(key=lambda b: b.angle)
    return blocks


def block_projectors(blocks: list[JordanBlock]) -> list[np.ndarray]:
    """Rank-2 projector onto each block's subspace."""
    return [b.block_basis.T @ b.block_basis.conj() for b in blocks]
