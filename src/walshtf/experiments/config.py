"""Run configuration shared by every experiment driver."""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import asdict, dataclass
from numbers import Real
from pathlib import Path

from ..errors import ConfigError
from ..geometry import MAX_GRID_EXP, _json_int, _json_object

_REL_TOL = 1e-9
_NUMBER_FIELDS = ("r", "p1", "p2", "q", "maximal_exp", "epsilon")
_FINITE = sys.float_info.max  # past it only an infinity, which r may be, is a float


@dataclass(frozen=True)
class ExperimentConfig:
    """Exponents, grid shape and trial budget of one experiment run.

    r drives the variation norms and must exceed 2.  p1, p2 and q are
    the outer Lebesgue exponents, tied by 1/q = 1/p1 + 1/p2 with q
    above 2/3.  maximal_exp is the exponent of the maximal averages
    used to carve exceptional sets and cap sizes; it must exceed 1 and
    sit close to it for the restricted runs to make sense.  epsilon is
    the growth exponent of the frequency-set bound.  grid_j and grid_m
    fix the dyadic box [0, 2^grid_j) at cell width 2^-grid_m, and
    grid_j + grid_m may not exceed `MAX_GRID_EXP`.  Each rule is
    checked in the form "the value satisfies it", so a NaN, which
    satisfies no comparison, is refused; an infinite r is accepted.
    The exponents must be real numbers (an int is one); trials (at
    least 1), seed, grid_j and grid_m are read by `geometry._json_int`,
    the integer rule of every input file.  A bool is neither.
    """

    r: float = 3.0
    p1: float = 4.0
    p2: float = 4.0
    q: float = 2.0
    maximal_exp: float = 1.25
    epsilon: float = 0.5
    trials: int = 100
    seed: int = 0
    grid_j: int = 3
    grid_m: int = 5

    def __post_init__(self) -> None:
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            number = isinstance(value, Real) and not isinstance(value, bool)
            if not number or _FINITE < abs(value) < math.inf:
                raise ConfigError(f"{name} must be a number a float holds, got {value!r}")
        try:
            _json_int(self.trials, "trials", 1)
            _json_int(self.seed, "seed")
            _json_int(self.grid_j, "grid_j", 0, MAX_GRID_EXP - 2)  # room for grid_m >= 2
            _json_int(self.grid_m, "grid_m", 2, MAX_GRID_EXP - self.grid_j)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        if not self.r > 2:
            raise ConfigError(f"variation exponent r must exceed 2, got {self.r}")
        if not (self.p1 > 0 and self.p2 > 0):
            raise ConfigError("p1 and p2 must be positive")
        if not 2.0 / 3.0 < self.q:
            raise ConfigError(f"q must exceed 2/3, got {self.q}")
        relation = 1.0 / self.p1 + 1.0 / self.p2
        # A tiny p overflows 1/p to inf, which a tolerance scaled by it would pass.
        close = abs(relation - 1.0 / self.q) <= _REL_TOL * max(1.0, abs(relation))
        if not (math.isfinite(relation) and close):
            raise ConfigError(
                f"exponents must satisfy 1/q = 1/p1 + 1/p2; "
                f"got 1/q = {1.0 / self.q}, 1/p1 + 1/p2 = {relation}"
            )
        if not self.maximal_exp > 1:
            raise ConfigError(
                f"maximal exponent must exceed 1, got {self.maximal_exp}"
            )
        if math.isnan(self.epsilon):
            raise ConfigError("epsilon must be a number, got nan")

    def rng(self, offset: int) -> random.Random:
        """The random stream seeded with seed * 1_000_003 + offset.

        Each driver draws from its own fixed offset, so for one seed the
        streams of different drivers stay apart and each is reproducible.
        """
        return random.Random(self.seed * 1_000_003 + offset)

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "ExperimentConfig":
        try:
            _json_object(data, "a config", (), cls.__dataclass_fields__)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cls(**data)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # as cli._load_json
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_json(data)
