"""Equivariant super Darboux-Weinstein normalization and finite W-superalgebras.

Everything is computed with exact rational arithmetic.  The main entry points:

- :mod:`superw.supercore` -- supercommutative polynomials and series
- :mod:`superw.linalg` -- exact sparse elimination
- :mod:`superw.algebras` -- the catalog loader, its validation, gradings and
  characters
- :mod:`superw.poisson` -- Poisson superalgebras from bracket tables
- :mod:`superw.darboux` -- the normal-form chart engine and its classical
  (Poisson) backend
- :mod:`superw.starprod` -- star products, the quantum (star) chart backend,
  Rees constructions
- :mod:`superw.wslice` -- W-superalgebras two ways, and their comparison
- :mod:`superw.cli` -- the ``superw`` command
- :mod:`superw.suite` -- the property checks of ``superw suite``, imported
  when that command runs
- :mod:`superw.clifford` -- the Clifford factorization certificate, which no
  command imports
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
