"""Exact finite-dimensional quantum math for two-qubit certification.

Density matrices, binary (+/-1) observables, the Bell basis, twirling,
Jordan-block decomposition of observable pairs and Bell spectra.
Everything here is deterministic linear algebra; all randomness lives in
the simulation layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_TOL = 1e-10  # hermiticity, unit trace, PSD, +/-1 eigenvalues, eigenvalue clip, Bell-diagonality
ENTROPY_EIG_CUTOFF = 1e-12
_JORDAN_TOL = 1e-8  # cos(angle) degeneracy and sin(angle) zero in jordan_blocks

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
    """Raised when a matrix fails a physicality check."""


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


@dataclass(frozen=True)
class Observable:
    """A d x d Hermitian matrix with eigenvalues in {-1, +1} (a reflection)."""

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

    Uses the spectral decomposition of the symmetrised product
    (obs0 obs1 + obs1 obs0)/2, which commutes with both observables and
    whose eigenvalues are cos(angle), each doubly degenerate per block.
    Returns d/2 blocks with angles in [0, pi].
    """
    a0, a1 = obs0.matrix, obs1.matrix
    d = obs0.dim
    if obs1.dim != d:
        raise ValidationError(f"observable dimensions differ: {d} vs {obs1.dim}")
    if d % 2 != 0:
        raise ValidationError(f"observable dimension must be even, got {d}")

    sym = (a0 @ a1 + a1 @ a0) / 2
    cos_vals, vecs = np.linalg.eigh(sym)

    blocks: list[JordanBlock] = []
    i = 0
    while i < d:
        # group the degenerate eigenspace of this cos(angle)
        j = i + 1
        while j < d and cos_vals[j] - cos_vals[i] < _JORDAN_TOL:
            j += 1
        c = float(np.clip(np.mean(cos_vals[i:j]), -1.0, 1.0))
        angle = math.acos(c)
        space = vecs[:, i:j]  # columns span the eigenspace, dimension 2m
        blocks.extend(_split_eigenspace(a0, a1, space, angle))
        i = j
    blocks.sort(key=lambda b: b.angle)
    return blocks


def _split_eigenspace(a0, a1, space, angle):
    """Split one cos-eigenspace of the symmetrised product into 2x2 blocks."""
    dim = space.shape[1]
    if dim % 2 != 0:
        raise ValidationError("odd-dimensional Jordan eigenspace; input is not a reflection pair")
    c, s = math.cos(angle), math.sin(angle)
    # diagonalise obs0 restricted to the eigenspace
    a0_r = space.conj().T @ a0 @ space
    vals, v = np.linalg.eigh(a0_r)
    plus = space @ v[:, vals > 0]
    minus = space @ v[:, vals < 0]
    if plus.shape[1] != minus.shape[1]:
        # e.g. a pair of +/-identities: no 2x2 block pairs a +1 with a -1 vector
        raise ValidationError(
            f"Jordan eigenspace at angle {angle:.6g} has {plus.shape[1]} +1 and "
            f"{minus.shape[1]} -1 vectors; the pair has no 2x2 block decomposition"
        )

    blocks = []
    if abs(s) > _JORDAN_TOL:
        # pair each +1 vector u with w = (a1 u - c u)/s, automatically orthonormal
        for k in range(plus.shape[1]):
            u = plus[:, k]
            w = (a1 @ u - c * u) / s
            w = w / np.linalg.norm(w)
            blocks.append(JordanBlock(angle=angle, block_basis=np.vstack([u, w])))
    else:
        # degenerate (angle 0 or pi): obs1 = +/- obs0 on the block, any pairing works
        for k in range(plus.shape[1]):
            blocks.append(
                JordanBlock(angle=angle, block_basis=np.vstack([plus[:, k], minus[:, k]]))
            )
    return blocks


def block_projectors(blocks: list[JordanBlock]) -> list[np.ndarray]:
    """Rank-2 projector onto each block's subspace."""
    return [b.block_basis.T @ b.block_basis.conj() for b in blocks]
