"""diecert: device-independent certification of one-shot distillable
entanglement from CHSH statistics.

Modules:
    quantum   exact finite-dimensional quantum math (states, twirl, Jordan blocks)
    chsh      CHSH game semantics and strategies
    bounds    single-round entropy bounds and the brute-force oracle
    rates     entropy-accumulation rate pipeline and parameter optimization
    simulate  sequential protocol simulation against device models
    cli       command-line interface

The package re-exports only the names its README reads; every other name is
imported from its module, such as `diecert.rates.optimize_parameters`.
"""

from .quantum import TwoQubitState
from .chsh import optimal_strategy
from .rates import ProtocolParams
from .simulate import DeviceModel, HonestIIDDevice, RoundRecord, Source, kept_states

__version__ = "0.1.0"
