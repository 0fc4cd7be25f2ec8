"""Reference oracles and state builders that the tests compare the package
against. No command or simulation needs them, so they live here, not in
`diecert`."""

import math
import warnings
from itertools import product

import numpy as np

from diecert.bounds import binary_entropy
from diecert.chsh import Strategy
from diecert.quantum import (
    SIGMA_X,
    SIGMA_Z,
    BellDiagonalSpectrum,
    TwoQubitState,
    _check_density,
)
from diecert.rates import ErrorBudget, ProtocolParams, _kappa, certified_log_l, delta_est_for

I2 = np.eye(2, dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)


def chsh_value(strategy: Strategy) -> float:
    """Bell value beta computed from the four correlators: the independent
    check of `chsh.born_probabilities` and `chsh.winning_probability`."""
    beta = 0.0
    for x, y in product((0, 1), repeat=2):
        op = np.kron(strategy.alice_observables[x].matrix, strategy.bob_observables[y].matrix)
        corr = np.trace(op @ strategy.state).real
        beta += (-1) ** (x * y) * corr
    return float(beta)


def optimal_spectrum(beta: float) -> BellDiagonalSpectrum:
    """The Bell-diagonal spectrum maximizing total entropy at Bell value beta,
    the product (lo, hi) x (lo, hi) whose entropy is `bounds.max_total_entropy`."""
    lo = 0.5 - beta / (4 * math.sqrt(2))
    hi = 0.5 + beta / (4 * math.sqrt(2))
    return BellDiagonalSpectrum(
        lambda_phi_plus=lo * lo,
        lambda_phi_minus=lo * hi,
        lambda_psi_plus=hi * hi,
        lambda_psi_minus=lo * hi,
    )


def relative_entropy_of_entanglement(spectrum) -> float:
    """E_R, in bits, of the Bell-diagonal state of a `BellDiagonalSpectrum`:
    1 - h(lambda_max) when lambda_max >= 1/2, else 0, as the state is then
    separable. No distillation beats it (Vedral and Plenio, PRA 57, 1619
    (1998); Rains, PRA 60, 179 (1999)), so it is a ceiling on every rate."""
    top = float(spectrum.as_array().max())
    return 1 - binary_entropy(top) if top >= 0.5 else 0.0


def pauli_twirl(state: TwoQubitState) -> TwoQubitState:
    """Average of the U (x) U conjugations of `state` over the four Paulis: the
    reference that `quantum.twirl` is tested against."""
    m = state.matrix
    out = np.zeros_like(m)
    for u in PAULIS:
        uu = np.kron(u, u)
        out += uu @ m @ uu.conj().T
    return TwoQubitState(out / 4)


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
    p = p[p > 1e-12]
    return float(-(p * np.log2(p)).sum())


def von_neumann_entropy(density: np.ndarray | TwoQubitState) -> float:
    """H(rho) = -Tr(rho log2 rho) in bits."""
    m = density.matrix if isinstance(density, TwoQubitState) else _check_density(density)
    eigvals = np.clip(np.linalg.eigvalsh(m), 0.0, 1.0)  # a checked density: [0, 1] up to rounding
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


def dense_gamma_search(n, omega_exp, eps_dist, eps_snd, eps_cmp, mode):
    """The best certificate over 1,500 gamma spaced evenly in log10 gamma
    from -6 to 0, each at the eps_smo its own fixed point settles on: s =
    sqrt(eps_dist) / (1 + 4 kappa(s) / (sqrt(n) v)) from sqrt(eps_dist)/2, for
    20 certificates or until s moves by at most 1e-12 of itself. The brute
    force that `rates.optimize_parameters`' stationarity conditions in gamma
    are tested against."""
    delta_est, root_dist = delta_est_for(n, eps_cmp), math.sqrt(eps_dist)
    best = None
    for i in range(1500):
        with warnings.catch_warnings():  # low gammas leave a vacuous threshold
            warnings.filterwarnings("ignore", "omega_exp", UserWarning)
            params = ProtocolParams(n, 10 ** (-6 + 6 * i / 1499), omega_exp, delta_est)
        smo = root_dist / 2
        for _ in range(20):
            cert = certified_log_l(params, ErrorBudget(eps_dist, eps_snd, eps_cmp, smo), mode)
            if best is None or cert.rate_raw > best.rate_raw:
                best = cert
            step = root_dist / (1 + 4 * _kappa(smo, eps_snd) / (math.sqrt(n) * cert.second_order_v))
            step = min(step, math.nextafter(root_dist, 0))
            if abs(step - smo) <= 1e-12 * smo:
                break
            smo = step
    return best
