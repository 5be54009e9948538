"""dynw: exact-arithmetic workbench for preperiodic portraits of x^2 + c.

Modules:
    rational    arbitrary-precision rational scalars and integer helpers
    multipoly   sparse multivariate polynomials over the rationals
    ff          finite fields F_{p^k} on int codes, verified irreducible moduli
    dynatomic   dynatomic polynomials and degree/branch/genus arithmetic
    portraits   functional-graph portraits, canonical forms, enumeration
    catalog     the built-in named-portrait catalog
    models      full / reduced / multilevel curve models
    fflab       point counting, gonality and cover-degree checkers
    classify    the rational preperiodic-portrait classifier and sweep
    cli         command-line dispatch (entry point: dynw)
"""

from .rational import Rational

__version__ = "0.1.0"
__all__ = ["Rational", "__version__"]
