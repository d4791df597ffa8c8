"""Equivariant super Darboux-Weinstein normalization and finite W-superalgebras.

Everything is computed with exact rational arithmetic.  The main entry points:

- :mod:`superw.supercore` -- supercommutative polynomials and series
- :mod:`superw.poisson` -- Poisson superalgebras from bracket tables
- :mod:`superw.darboux` -- the normal-form chart engine and its classical
  (Poisson) backend
- :mod:`superw.starprod` -- star products, the quantum (star) chart backend,
  Rees constructions
- :mod:`superw.wslice` -- W-superalgebras two ways, and their comparison
- :mod:`superw.cli` -- the ``superw`` command
"""

from .supercore import EVEN, ODD, Algebra, Series, Variable

__all__ = [
    "EVEN",
    "ODD",
    "Algebra",
    "Series",
    "Variable",
]

__version__ = "0.1.0"
