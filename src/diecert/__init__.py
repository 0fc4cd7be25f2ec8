"""diecert: device-independent certification of one-shot distillable
entanglement from CHSH statistics.

Modules:
    quantum   exact finite-dimensional quantum math (states, twirl, entropies)
    chsh      CHSH game semantics and strategies
    bounds    single-round entropy bounds and the brute-force oracle
    rates     entropy-accumulation rate pipeline and parameter optimization
    simulate  sequential protocol simulation against device models
    cli       command-line interface
"""

from .quantum import (
    BellDiagonalSpectrum,
    JordanBlock,
    Observable,
    TwoQubitState,
    ValidationError,
    conditional_entropy,
    jordan_blocks,
    partial_trace,
    twirl,
    von_neumann_entropy,
    werner_state,
)
from .chsh import (
    BETA_MAX,
    OMEGA_CLASSICAL,
    OMEGA_MAX,
    Strategy,
    beta_from_omega,
    omega_from_beta,
    optimal_strategy,
    winning_probability,
)
from .bounds import (
    EntropyBoundResult,
    bell_diag_entropy_bound,
    binary_entropy,
    brute_force_max_entropy,
    g,
    g_prime,
)
from .rates import (
    ErrorBudget,
    FrequencyDistribution,
    ProtocolParams,
    RateCertificate,
    asymptotic_rate,
    certified_log_l,
    completeness_bound,
    delta_est_for,
    eta_opt,
    optimize_parameters,
    rate_curve,
)
from .simulate import (
    ClassicalDeterministicDevice,
    DeviceModel,
    HonestIIDDevice,
    MemorySwitcherDevice,
    NoisyDriftDevice,
    RoundRecord,
    Source,
    Transcript,
    check_statistics_equivalence,
    estimate_abort_probability,
    kept_states,
    run_protocol,
)

__version__ = "0.1.0"
