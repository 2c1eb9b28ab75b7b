"""Exact time-frequency analysis of Walsh packet sums on dyadic grids.

The package is organised in layers: exact scalar arithmetic, phase
plane geometry, wave packets on grids, variation norms, operators built
from truncated packet sums, and tree selection on quartile collections.
A separate experiments subpackage drives randomized checks and the
command line interface.
"""

from .errors import (
    ConfigError,
    EmptySet,
    GridMismatch,
    InvalidInput,
    InvalidTree,
    KernelUnsupported,
    NotDyadicError,
    PreconditionViolated,
    ResolutionTooCoarse,
    ScaleTooCoarse,
    ScaleTooFine,
    WalshtfError,
    ZeroVariation,
)
from .exact import (
    ONE,
    SQRT2,
    ZERO,
    DyadicRational,
    QuadScalar,
    inv_sqrt_pow2,
    pow2_fraction,
)
from .geometry import (
    DyadicInterval,
    Quartile,
    Tile,
    Tree,
    containing_interval,
    maximal_tree,
    tiles_disjoint,
)
from .operators import (
    FrequencySet,
    Linearization,
    TruncationField,
    average,
    freq_projection,
    lambda_form,
    maximal,
    model_terms,
    optimal_linearization,
    partial_sum_field,
    slot_coefficients,
)
from .trees import (
    JNReport,
    SelectedTree,
    SelectionResult,
    SizeReport,
    jn_quantities,
    jump_times,
    restricted_trees,
    select_trees,
    size,
)
from .variation import (
    VariationCertificate,
    linearize_weights,
    variation_norm,
)
from .wavepacket import (
    StepFunction,
    batch_inner_products,
    eval_wavepacket,
    inner_product,
    synthesize,
    wavepacket_step,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DyadicInterval",
    "DyadicRational",
    "EmptySet",
    "FrequencySet",
    "GridMismatch",
    "InvalidInput",
    "InvalidTree",
    "JNReport",
    "KernelUnsupported",
    "Linearization",
    "NotDyadicError",
    "ONE",
    "PreconditionViolated",
    "QuadScalar",
    "Quartile",
    "ResolutionTooCoarse",
    "SQRT2",
    "ScaleTooCoarse",
    "ScaleTooFine",
    "SelectedTree",
    "SelectionResult",
    "SizeReport",
    "StepFunction",
    "Tile",
    "Tree",
    "TruncationField",
    "WalshtfError",
    "VariationCertificate",
    "ZERO",
    "ZeroVariation",
    "average",
    "batch_inner_products",
    "containing_interval",
    "eval_wavepacket",
    "freq_projection",
    "inner_product",
    "inv_sqrt_pow2",
    "pow2_fraction",
    "jn_quantities",
    "jump_times",
    "lambda_form",
    "linearize_weights",
    "maximal",
    "maximal_tree",
    "optimal_linearization",
    "partial_sum_field",
    "model_terms",
    "restricted_trees",
    "select_trees",
    "size",
    "slot_coefficients",
    "synthesize",
    "tiles_disjoint",
    "variation_norm",
    "wavepacket_step",
]
