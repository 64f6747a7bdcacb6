"""Exception hierarchy for numerical and resource failures.

Plain argument-validation problems raise ValueError; the classes here mark
conditions a caller may want to recover from (widen a grid, raise a cutoff,
expand a bracket).
"""


class BoseGasError(Exception):
    """Base class for recoverable numerical/resource failures."""


class ResourceLimitError(BoseGasError):
    """A mode enumeration or axis truncation would exceed a configured size limit."""


class CutoffError(BoseGasError):
    """A spectral cutoff captured too little of the total occupation."""

    def __init__(self, message, captured_fraction=None):
        super().__init__(message)
        self.captured_fraction = captured_fraction


class GridExtentError(BoseGasError):
    """A sampled curve never crossed half maximum inside the grid."""

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve


class BracketError(BoseGasError):
    """A root bracket with a sign change could not be established."""

    def __init__(self, message, samples=None):
        super().__init__(message)
        self.samples = samples or []


class NumericalError(BoseGasError):
    """A computation produced a non-finite or inconsistent intermediate."""
