"""Teleportation simulator for multi-particle d-level cat-like states."""

from .analysis import CostRow, cost_of, cost_table
from .bases import (
    BellLabel,
    ComplementLabel,
    GhzLabel,
    JointLabel,
    PiLabel,
)
from .core import (
    DEFAULT_MAX_DIM,
    CatState,
    PureState,
    RangeError,
    RegisterShape,
    ShapeMismatchError,
    SizeCapError,
    digits_to_index,
    index_to_digits,
    random_cat_state,
    unit_phase,
)
from .protocols import (
    EquivalenceReport,
    MonomialOperator,
    OutcomeRecord,
    ProtocolKind,
    ProtocolSpec,
    apply_correction,
    barred_equivalence_check,
    correction_for,
    enumerate_outcomes,
    measurement_family,
    run_protocol,
)

__version__ = "0.1.0"

__all__ = [
    "BasisFamily",
    "BasisReport",
    "BellLabel",
    "CatState",
    "ComplementLabel",
    "CostRow",
    "DEFAULT_MAX_DIM",
    "DensityMatrix",
    "EquivalenceReport",
    "GhzLabel",
    "JointLabel",
    "MeasurementBasis",
    "MonomialOperator",
    "OutcomeRecord",
    "PiLabel",
    "ProtocolKind",
    "ProtocolSpec",
    "PureState",
    "RangeError",
    "RegisterShape",
    "ShapeMismatchError",
    "SizeCapError",
    "apply_correction",
    "barred_bell_basis_state",
    "barred_equivalence_check",
    "basis_ket",
    "bell_basis_state",
    "build_basis",
    "cat_to_pure_state",
    "clock_operator",
    "compose_joint_state",
    "correction_for",
    "cost_of",
    "cost_table",
    "digits_to_index",
    "enumerate_outcomes",
    "ghz_basis_state",
    "index_to_digits",
    "inner",
    "measurement_family",
    "monomial_tensor",
    "partial_trace_keep",
    "pi_basis_state",
    "random_cat_state",
    "run_protocol",
    "shift_operator",
    "tensor",
    "unit_phase",
    "verify_orthonormal_complete",
]

# The names of __all__ not imported above are the dense reference's: they
# load catport.dense on first use, so importing catport never does.
__getattr__ = core.forward_to_dense(__name__, " ".join(set(__all__) - set(globals())))


def __dir__():
    return sorted({*globals(), *__all__})
