"""Exact harmonic (p,0)-form invariants for invariant almost-complex
structures on compact solvmanifolds described by structure equations."""

from .algebra import Form, GramData
from .builtins import builtin_names, get_builtin
from .fourier import (
    EXACT,
    UNDETERMINED,
    HarmonicSpace,
    ModeForm,
    dolbeault_basis,
    harmonic_basis_dbar,
    harmonic_basis_deltabar,
)
from .hermitian import HermitianData, metric_for
from .manifold import ManifoldSpec, load_spec
from .obstruction import ObstructionVerdict, coframe_obstruction, symplectic_obstruction
from .scalars import Scalar, parse_scalar

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "Form",
    "GramData",
    "HarmonicSpace",
    "HermitianData",
    "ManifoldSpec",
    "ModeForm",
    "ObstructionVerdict",
    "Scalar",
    "UNDETERMINED",
    "builtin_names",
    "coframe_obstruction",
    "dolbeault_basis",
    "get_builtin",
    "harmonic_basis_dbar",
    "harmonic_basis_deltabar",
    "load_spec",
    "metric_for",
    "parse_scalar",
    "symplectic_obstruction",
]
