"""Exception hierarchy shared by all dynw modules.

Every domain error raised by the library derives from DynwError so the CLI
can map them uniformly to exit code 1.
"""


class DynwError(Exception):
    """Base class for all dynw domain errors."""


class NonExactDivision(DynwError):
    """Polynomial division left a nonzero remainder where exactness was required."""


class BudgetExceeded(DynwError):
    """An enumeration or search would exceed the configured budget."""


class MissingVariable(DynwError):
    """A polynomial evaluation lacked an assignment for some variable."""


class MixedScalarKinds(DynwError):
    """MultiPoly.evaluate got a scalar that is not rational (an int or a
    Fraction); finite-field values are codes evaluated by MultiPoly.horner."""


class InadmissibleCycleStructure(DynwError):
    """A cycle structure violates the quadratic-portrait cycle-count rules."""


class NotGeneric(DynwError):
    """An operation requiring a generic quadratic portrait got a non-generic one."""


class StepBudgetExceeded(DynwError):
    """Orbit iteration reached the step budget without resolving."""


class UnknownReport(DynwError):
    """An unrecognized reproduction-report name was requested."""


class ParseError(DynwError):
    """Malformed textual input (polynomial, portrait, or rational)."""
