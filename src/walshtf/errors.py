"""Shared exception types.

Grouped here so geometry, wave packet and operator modules can raise the
same classes without import cycles.
"""

from __future__ import annotations


class NotDyadicError(ValueError):
    """A rational was required to have a power-of-two denominator."""


class GridMismatch(ValueError):
    """Two step functions live on different (domain, resolution) grids."""


class ResolutionTooCoarse(ValueError):
    """A wave packet oscillates below the resolution of the sampling grid."""


class ScaleTooFine(ValueError):
    """A scale parameter fell below the grid resolution."""


class ScaleTooCoarse(ValueError):
    """A scale parameter exceeded the representable domain."""


class InvalidTree(ValueError):
    """A tree member violates the top-containment conditions."""


class EmptySet(ValueError):
    """A measurable set that had to carry mass turned out to be null."""


class ZeroVariation(ValueError):
    """A variation certificate was requested for a constant sequence."""


class UnsortedBreakpoints(ValueError):
    """Breakpoints must be strictly increasing and inside the scale range."""


class PreconditionViolated(ValueError):
    """A documented operation precondition failed."""


class ConfigError(ValueError):
    """An experiment configuration is inconsistent."""


class InvalidInput(ValueError):
    """A field of an input file is missing or breaks its contract."""


class KernelUnsupported(ValueError):
    """Input cannot be routed through the accelerated integer kernels."""
