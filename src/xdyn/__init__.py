"""Closed-form dynamics of two-qubit X states.

The model is the anisotropic Heisenberg exchange between two qubits in a
uniform z field.  X-shaped density matrices stay X shaped under it, so
evolution, fidelity, stationarity classification, and period detection
all come in closed form here, each backed by a series-expm oracle the
validation suite compares against.
"""
from .dynamics import (
    FidelityTrace,
    StationarityVerdict,
    TimeGrid,
    classify,
    detect_period,
    evolve_closed,
    evolve_oracle,
    scan,
)
from .errors import (
    ConsistencyError,
    DomainError,
    InsufficientSpanError,
    InvalidInputError,
    NormalizationError,
    OutputFileError,
    PositivityError,
    RangeError,
    StateFileError,
    XdynError,
)
from .fidelity import (
    DensityMatrix,
    fidelity,
    fidelity_bell_diagonal,
    purity,
)
from .linalg import expm, trace_product
from .model import (
    CouplingParams,
    Propagator,
    Spectrum,
    hamiltonian,
    propagator,
    sinc,
    spectrum,
)
from .states import (
    BlochVector,
    XState,
    bloch_from_density,
    from_bloch,
    preset_bell_diagonal,
    preset_p_mixture,
    preset_werner,
    state_from_json,
    to_bloch,
    to_density,
    xstate_matrix,
)
from .validate import CheckResult, ErrataFinding, ValidationReport, run_validation

__version__ = "0.1.0"

__all__ = [
    "BlochVector",
    "CheckResult",
    "ConsistencyError",
    "CouplingParams",
    "DensityMatrix",
    "DomainError",
    "ErrataFinding",
    "FidelityTrace",
    "InsufficientSpanError",
    "InvalidInputError",
    "NormalizationError",
    "OutputFileError",
    "PositivityError",
    "Propagator",
    "RangeError",
    "Spectrum",
    "StateFileError",
    "StationarityVerdict",
    "TimeGrid",
    "ValidationReport",
    "XState",
    "XdynError",
    "bloch_from_density",
    "classify",
    "detect_period",
    "evolve_closed",
    "evolve_oracle",
    "expm",
    "fidelity",
    "fidelity_bell_diagonal",
    "from_bloch",
    "hamiltonian",
    "preset_bell_diagonal",
    "preset_p_mixture",
    "preset_werner",
    "propagator",
    "purity",
    "run_validation",
    "scan",
    "sinc",
    "spectrum",
    "state_from_json",
    "to_bloch",
    "to_density",
    "trace_product",
    "xstate_matrix",
]
