"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class FormatError(ValueError):
    """A binary artifact (IDX file, weight file) is malformed."""


class ConfigError(ValueError):
    """An experiment configuration is invalid."""


class SizeLimitError(ConfigError):
    """An input is larger than the requested operation accepts."""


class DegenerateInputError(ValueError):
    """An input is mathematically degenerate for the requested operation."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class MergeError(ValueError):
    """Run directories cannot be merged into one report."""
