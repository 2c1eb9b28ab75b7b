"""Shared exception types.

Grouped here so geometry, wave packet and operator modules can raise the
same classes without import cycles.  Every contract error derives from
`WalshtfError`, and through it from `ValueError`: it says that an input
or a request lies outside what an operation accepts.  Any other
exception out of the package is a fault of the program.
"""

from __future__ import annotations


class WalshtfError(ValueError):
    """An input or a request breaks an operation's contract."""


class NotDyadicError(WalshtfError):
    """A rational was required to have a power-of-two denominator."""


class GridMismatch(WalshtfError):
    """Two step functions live on different (domain, resolution) grids."""


class ResolutionTooCoarse(WalshtfError):
    """A wave packet oscillates below the resolution of the sampling grid."""


class ScaleTooFine(WalshtfError):
    """A scale parameter fell below the grid resolution."""


class ScaleTooCoarse(WalshtfError):
    """A scale parameter exceeded the representable domain."""


class InvalidTree(WalshtfError):
    """A tree member violates the top-containment conditions."""


class EmptySet(WalshtfError):
    """A measurable set that had to carry mass turned out to be null."""


class ZeroVariation(WalshtfError):
    """A variation certificate was requested for a constant sequence."""


class UnsortedBreakpoints(WalshtfError):
    """Breakpoints must be strictly increasing and inside the scale range."""


class PreconditionViolated(WalshtfError):
    """A documented operation precondition failed."""


class ConfigError(WalshtfError):
    """An experiment configuration is inconsistent."""


class InvalidInput(WalshtfError):
    """A field of an input file is missing or breaks its contract."""


class KernelUnsupported(WalshtfError):
    """Input cannot be routed through the accelerated integer kernels."""
