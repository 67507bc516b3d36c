"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A structural limit was exceeded (universe size, enumeration caps)."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(ValueError):
    """A documented precondition does not hold for the input."""


class ContradictionError(RuntimeError):
    """A property the constructions guarantee failed to hold.

    Raising this means either a bug in this package or an input that was
    mislabeled as satisfying the preconditions; it is never expected on a
    validated separating union-closed family.
    """


class FamilyParseError(ValueError):
    """A family file or JSON document could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnfinishedJSONError(FamilyParseError):
    """A JSON text ended before its value was complete.

    Readers take this to mean the value continues on the next line.
    """
