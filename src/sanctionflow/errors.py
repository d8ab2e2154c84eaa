"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all errors raised by sanctionflow operations."""


class EventParseError(PipelineError):
    """A malformed input record, or any CSV row with a csv error.

    Carries the 1-based line number and, when known, the offending field.
    """

    def __init__(self, message, line=None, field=None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix = f"line {line}: "
        if field is not None:
            prefix += f"field '{field}': "
        super().__init__(prefix + message)


class ConfigError(PipelineError):
    """Invalid configuration (synthetic generation, CLI parameters)."""


class ConvergenceError(PipelineError):
    """An iterative solver hit its iteration cap before reaching tolerance."""

    def __init__(self, message, residual):
        self.residual = residual
        super().__init__(f"{message} (achieved residual {residual:.3e})")
