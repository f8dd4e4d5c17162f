"""Exception types shared across the package."""


def check_choices(chosen, known, kind: str) -> None:
    """ValueError naming the first of the sequence chosen unknown or given twice."""
    for i, choice in enumerate(chosen):
        if choice not in known:
            raise ValueError(f"unknown {kind} {choice!r}")
        if choice in chosen[:i]:
            raise ValueError(f"{kind} {choice!r} is given twice")


class InputError(ValueError):
    """An input file is unusable; carries its path and, where one line is
    at fault, the 1-based line number."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        super().__init__(message)


class ParseError(InputError):
    """An input file, or a row of it, could not be parsed."""


class GapError(InputError):
    """A run of missing samples exceeded the configured maximum."""


class ManifestError(InputError):
    """A dataset manifest is malformed; names the home at fault."""


class AlignmentError(InputError):
    """Two series that must share a time axis do not."""


class EmptyWindowError(ValueError):
    """A clock window selected no samples."""


class CoverageError(ValueError):
    """The series does not span enough time for the requested computation."""


class DegenerateModelError(ValueError):
    """Model training collapsed to duplicate state levels."""


class CapacityError(ValueError):
    """The joint state space exceeds the exact-inference cap."""


class UndefinedStatisticError(ValueError):
    """A statistic is undefined for the given input (e.g. zero variance)."""


class ConfigurationError(ValueError):
    """An experiment was configured inconsistently with its inputs."""
