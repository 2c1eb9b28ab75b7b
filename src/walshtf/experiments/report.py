"""Report containers and the deterministic CSV they serialize to."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..exact import QuadScalar


def format_value(value) -> str:
    """Render one cell deterministically.

    Floats go through repr, which is the shortest round-trip form and
    stable across platforms; exact scalars use their text form.
    """
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, QuadScalar):
        return value.to_text()
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def trend_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least squares slope of ys against xs; zero for degenerate input."""
    n = len(xs)
    if n != len(ys) or n < 2:
        return 0.0
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return 0.0
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial rows plus an ordered summary, reproducible from the seed.

    Every driver's summary carries a "failures" count.  Reports with
    identical inputs serialize to identical bytes.
    """

    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    summary: tuple[tuple[str, object], ...] = ()

    def summary_value(self, key: str):
        for k, v in self.summary:
            if k == key:
                return v
        raise KeyError(key)

    def to_csv(self) -> str:
        lines = [f"# report: {self.name}"]
        for key, value in self.summary:
            lines.append(f"# {key} = {format_value(value)}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_value(v) for v in row))
        return "\n".join(lines) + "\n"
