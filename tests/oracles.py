"""Reference oracles and state builders that the tests compare the package
against. No command or simulation needs them, so they live here, not in
`diecert`."""

import math

import numpy as np

from diecert.chsh import Strategy, optimal_strategy
from diecert.quantum import (
    BELL_BASIS,
    ENTROPY_EIG_CUTOFF,
    SIGMA_X,
    SIGMA_Z,
    TwoQubitState,
    _check_density,
    clean_eigenvalues,
)


def optimal_measurement_strategy(state: TwoQubitState) -> Strategy:
    """The optimal-CHSH observables applied to an arbitrary two-qubit state."""
    opt = optimal_strategy()
    return Strategy(
        state=state.matrix,
        alice_observables=opt.alice_observables,
        bob_observables=opt.bob_observables,
    )


def bell_diagonal_state(spectrum) -> TwoQubitState:
    """The Bell-diagonal state of a `BellDiagonalSpectrum`."""
    diag = np.clip(spectrum.as_array(), 0.0, 1.0)
    diag = diag / diag.sum()
    return TwoQubitState(BELL_BASIS @ np.diag(diag).astype(complex) @ BELL_BASIS.conj().T)


def partial_trace(state: TwoQubitState, keep: str) -> np.ndarray:
    """Reduced 2x2 density matrix of one side of a two-qubit state.

    `keep` is "A" or "B".
    """
    m = state.matrix.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("ikjk->ij", m)
    if keep == "B":
        return np.einsum("kikj->ij", m)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def shannon_entropy(probs: np.ndarray) -> float:
    """Shannon entropy in bits; entries below 1e-12 contribute zero."""
    p = np.asarray(probs, dtype=float)
    p = p[p > ENTROPY_EIG_CUTOFF]
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropy(density: np.ndarray | TwoQubitState) -> float:
    """H(rho) = -Tr(rho log2 rho) in bits."""
    m = density.matrix if isinstance(density, TwoQubitState) else _check_density(density)
    eigvals = clean_eigenvalues(np.linalg.eigvalsh(m))
    return shannon_entropy(eigvals)


def conditional_entropy(state: TwoQubitState) -> float:
    """Conditional entropy H(A|B) = H(AB) - H(B) of a two-qubit state, in bits."""
    return von_neumann_entropy(state) - von_neumann_entropy(partial_trace(state, "B"))


def observables_from_blocks(blocks) -> tuple[np.ndarray, np.ndarray]:
    """Reconstruct the observable pair encoded by a list of `JordanBlock`s."""
    d = blocks[0].block_basis.shape[1]
    a0 = np.zeros((d, d), dtype=complex)
    a1 = np.zeros((d, d), dtype=complex)
    for b in blocks:
        v = b.block_basis.T  # columns u, w
        c, s = math.cos(b.angle), math.sin(b.angle)
        a0 += v @ SIGMA_Z @ v.conj().T
        a1 += v @ (c * SIGMA_Z + s * SIGMA_X) @ v.conj().T
    return a0, a1


def transcript_text(transcript) -> str:
    """The CSV text that `simulate --out` writes for a transcript."""
    return "\n".join(transcript.lines()) + "\n"
