"""Exception types that map onto the CLI exit-code contract.

Exit codes: 0 success, 1 configuration error, 2 numerical-tolerance failure,
3 contract failure.  Plain ``ValueError`` from input validation is treated as
a configuration problem by the CLI.
"""


class ConfigError(ValueError):
    """Bad configuration file or inconsistent experiment parameters."""


class NumericsError(RuntimeError):
    """A numerical routine could not meet its tolerance."""


class QuadratureError(NumericsError):
    """A panel layout needs more panels than its budget allows."""


class TailEstimateError(NumericsError):
    """Truncation tail of an infinite integral exceeds the tolerance."""


class ContractError(RuntimeError):
    """An experiment-level contract (slope bound, stability band, ...) failed."""
