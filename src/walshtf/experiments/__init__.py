"""Randomized experiment drivers, reports and the command line entry."""

from .config import ExperimentConfig
from .render import selection_svg
from .report import ExperimentReport
from .restricted import run_counting_experiment, run_restricted_type
from .suites import LEMMA_NAMES, run_identity_suite, run_lemma_experiment
from .theorem import run_theorem1

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "LEMMA_NAMES",
    "run_counting_experiment",
    "run_identity_suite",
    "run_lemma_experiment",
    "run_restricted_type",
    "run_theorem1",
    "selection_svg",
]
