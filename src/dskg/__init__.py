"""Symmetry algebras and noncommutative integration of the charged
Klein-Gordon equation on the 3D de Sitter hyperboloid, with a numerical
verification pipeline for every construction."""

from .lie_core import (ALL_CASES, CaseId, INTEGRABLE_CASES, subalgebra,
                       so13_algebra, index, integrability_check, table3)
from .fields import FieldConfig

__all__ = [
    "ALL_CASES", "CaseId", "INTEGRABLE_CASES", "FieldConfig",
    "subalgebra", "so13_algebra", "index",
    "integrability_check", "table3",
]

__version__ = "0.1.0"
