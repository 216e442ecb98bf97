"""Exception types raised by the engine.

Everything user-facing derives from EngineError so the command layer can
map failures to a single exit code.  Errors carrying indices keep them as
attributes; messages are built from the same data.
"""


class EngineError(Exception):
    pass


class ValidationError(EngineError):
    """Input rejected before any computation ran."""


class MixedModeError(ValidationError):
    """Exact rationals and binary64 values met in one container."""


class DimensionMismatch(ValidationError):
    pass


class AntisymmetryViolation(ValidationError):
    def __init__(self, i, j, k, residual):
        self.i, self.j, self.k = i, j, k
        self.residual = residual
        super().__init__(
            f"bracket table not antisymmetric at (i={i}, j={j}, k={k}), "
            f"residual {residual}"
        )


class JacobiViolation(ValidationError):
    def __init__(self, i, j, k, component, residual):
        self.i, self.j, self.k = i, j, k
        self.component = component
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple ({i}, {j}, {k}) "
            f"in component {component}, residual {residual}"
        )


class NotSymmetric(ValidationError):
    pass


class Degenerate(ValidationError):
    """Bilinear form has a kernel; carries a basis of it."""

    def __init__(self, kernel):
        self.kernel = tuple(tuple(v) for v in kernel)
        super().__init__(f"form is degenerate, kernel dimension {len(self.kernel)}")


class NotKSymmetric(ValidationError):
    """Candidate operator is not self-adjoint for the invariant form."""


class Singular(ValidationError):
    pass


class InvalidSpan(ValidationError):
    pass


class InvalidValue(ValidationError):
    """A numeric input that is not finite or lies outside its range."""


class StepBudgetExhausted(EngineError):
    """The integrator attempted its whole step budget without finishing."""


class NotNilpotent(EngineError):
    pass


class SeriesNotPreserved(EngineError):
    """Operator moves some term of the lower central series off itself."""

    def __init__(self, index):
        self.index = index
        super().__init__(f"operator does not preserve series term {index}")


class InvalidLambda(ValidationError):
    pass


class NotAntisymmetric(ValidationError):
    pass


class RankDeficientTheta(ValidationError):
    pass


class WrongClass(EngineError):
    pass


class NoSolution(EngineError):
    pass


class ZeroXMinusOne(ValidationError):
    """Closed forms need a nonzero coefficient on the rotation generator."""


class UnknownName(ValidationError):
    pass


class ParseError(ValidationError):
    pass
