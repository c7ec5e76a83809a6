"""Exact invariants, bitangents and determinantal representations for the
four symmetric families of plane quartic curves."""

from .polyring import Polynomial, VarTable
from .dixmier import InvariantSet, dixmier_invariants
from .symfam import QuarticForm, make_family, make_generic

__all__ = [
    "Polynomial",
    "VarTable",
    "InvariantSet",
    "QuarticForm",
    "dixmier_invariants",
    "make_family",
    "make_generic",
]

__version__ = "0.1.0"
