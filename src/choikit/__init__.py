"""Quantum operations through their block-matrix (state) form.

The package keeps one canonical representation for a linear operation
on matrices, the block matrix living on a doubled system, and derives
superoperator and Kraus forms from it by exact reindexing and
eigensystem computations.  On top of that sit the structural predicates
(complete positivity, trace preservation, factorizability, extremality)
and the algebra that states of the doubled system inherit from
operation composition.
"""

from .algebra import *
from .bipartite import *
from .channel import *
from .decomp import *
from .errors import *
from .matlin import DEFAULT_TOL, Tolerance

__version__ = "0.1.0"
