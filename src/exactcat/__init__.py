"""Exact-category quotient engine over quiver representations on prime fields."""

from .category import Category, ConditionError, Conflation, EnumerationBound, Subcategory
from .fflinalg import FpMatrix
from .repcat import Arrow, Quiver, RepCategory, RepMor, RepObj, a_n
from .approx import AddSubcat
from .conflcat import ConflCategory, ConflMor, ConflObj, SplitConflationSubcat, SubstructureTag
from .quotient import QMor, qhom, q_is_iso, q_is_zero, q_kernel, q_cokernel, q_coim_im

__all__ = [
    "AddSubcat",
    "Arrow",
    "Category",
    "ConditionError",
    "ConflCategory",
    "ConflMor",
    "ConflObj",
    "Conflation",
    "EnumerationBound",
    "FpMatrix",
    "QMor",
    "Quiver",
    "RepCategory",
    "RepMor",
    "RepObj",
    "SplitConflationSubcat",
    "Subcategory",
    "SubstructureTag",
    "a_n",
    "q_coim_im",
    "q_cokernel",
    "q_is_iso",
    "q_is_zero",
    "q_kernel",
    "qhom",
]

__version__ = "0.1.0"
