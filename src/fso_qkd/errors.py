"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A parameter or configuration value violates its documented invariant."""


class SpectrumFormatError(ValidationError):
    """A spectrum CSV file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
