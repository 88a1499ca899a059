"""Return-series ingestion, sample moments, and bound report tables.

Loads return series from CSV, estimates (mean, standard deviation), and
drives the bound report: premium principles swept over a kappa grid and
entropy shortfalls swept over a tail-level grid, emitted as long-form rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import MomentInfo, ShortfallSpec, premium_bound, shortfall_value
from .errors import (
    DomainError,
    EmptySeries,
    MalformedCsv,
    NonNumericCell,
    TooFewObservations,
)

#: Moments of daily percentage returns for three Nasdaq tickers over
#: 2023-04-25 .. 2024-04-24, used by the bundled demo report.
DEMO_MOMENTS = (
    ("CSCO", MomentInfo.from_variance(0.04371627, 0.191021554)),
    ("AAPL", MomentInfo.from_variance(0.123873016, 3.204667195)),
    ("EBAY", MomentInfo.from_variance(0.021860317, 0.39813437)),
)

#: Premium-principle entropies and shortfall specs matching the demo sweep.
DEMO_PREMIUM_FAMILIES = (
    ("Gini", {}),
    ("CE", {}),
    ("CT", {"alpha": 2.0 / 3.0}),
    ("CT", {"alpha": 3.0}),
    ("EGini", {"r": 1.5}),
    ("EGini", {"r": 3.0}),
)

DEMO_SHORTFALLS = (
    ShortfallSpec("GS", p=0.9, tau=0.5),
    ShortfallSpec("EGS", p=0.9, tau=0.5, r=3.0),
    ShortfallSpec("CRES", p=0.9, tau=0.5),
    ShortfallSpec("CRTES", p=0.9, tau=0.5, alpha=2.0 / 3.0),
    ShortfallSpec("CRTES", p=0.9, tau=0.5, alpha=3.0),
)


@dataclass(frozen=True)
class ReturnSeries:
    """An ordered series of returns with optional date labels."""

    label: str
    values: np.ndarray
    dates: Optional[tuple] = None
    skipped: int = 0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.size == 0:
            raise EmptySeries(f"{self.label}: no observations")
        if not np.all(np.isfinite(vals)):
            raise DomainError(f"{self.label}: non-finite values in series")
        object.__setattr__(self, "values", vals)
        if self.dates is not None:
            if len(self.dates) != vals.size:
                raise MalformedCsv(f"{self.label}: dates and values differ in length")
            if any(b <= a for a, b in zip(self.dates[:-1], self.dates[1:])):
                raise MalformedCsv(f"{self.label}: dates must be strictly increasing")

    def __len__(self):
        return int(self.values.size)


def load_returns_csv(path: str, column, label: Optional[str] = None) -> ReturnSeries:
    """Parse a one-header-row CSV and extract the named or indexed column.

    Rows whose selected cell is blank are skipped and counted; any other
    non-numeric cell raises NonNumericCell with its row number.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedCsv(f"{path}: empty file") from None
        if isinstance(column, int):
            if not (0 <= column < len(header)):
                raise MalformedCsv(f"{path}: column index {column} out of range")
            col = column
        else:
            try:
                col = header.index(str(column))
            except ValueError:
                raise MalformedCsv(
                    f"{path}: no column {column!r} in header {header}") from None
        values = []
        skipped = 0
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedCsv(
                    f"{path}:{lineno}: row has {len(row)} cells, header has {len(header)}")
            cell = row[col].strip()
            if not cell:
                skipped += 1
                continue
            try:
                values.append(float(cell))
            except ValueError:
                raise NonNumericCell(f"{path}:{lineno}: non-numeric cell {cell!r}") from None
    if not values:
        raise EmptySeries(f"{path}: column {column!r} has no numeric cells")
    return ReturnSeries(label=label or str(column), values=np.asarray(values),
                        skipped=skipped)


def prices_to_simple_returns(prices: Sequence[float]) -> np.ndarray:
    """Simple percentage returns 100 * (P_t - P_{t-1}) / P_{t-1}."""
    arr = np.asarray(prices, dtype=float)
    if arr.size < 2:
        raise TooFewObservations("need at least two prices")
    if np.any(arr[:-1] == 0.0):
        raise DomainError("zero price encountered; returns undefined")
    return 100.0 * np.diff(arr) / arr[:-1]


def sample_moments(series: ReturnSeries, estimator: str = "population") -> MomentInfo:
    """Mean and standard deviation of the series (population or n-1 variance)."""
    n = len(series)
    if n < 2:
        raise TooFewObservations(f"{series.label}: need >= 2 observations, got {n}")
    if estimator not in ("population", "sample"):
        raise DomainError(f"unknown estimator {estimator!r}")
    mean = float(np.mean(series.values))
    dd = 0 if estimator == "population" else 1
    var = float(np.var(series.values, ddof=dd))
    return MomentInfo.from_variance(mean, var)


REPORT_COLUMNS = ("label", "family", "params", "grid_var", "grid_value",
                  "bound", "delta_vs_prev")


@dataclass(frozen=True)
class Report:
    """Long-form bound table with a per-group monotonicity column."""

    rows: tuple

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for row in self.rows:
            cells = [repr(v) if isinstance(v, float) else v
                     for v in (row[c] for c in REPORT_COLUMNS)]
            writer.writerow(cells)
        return buf.getvalue()


def _param_str(params: dict) -> str:
    return ";".join(f"{k}={params[k]:g}" for k in sorted(params))


def build_report(moment_sets, premium_families=DEMO_PREMIUM_FAMILIES,
                 shortfall_specs=DEMO_SHORTFALLS,
                 kappa_grid=None, p_grid=None) -> Report:
    """Bound tables over kappa and tail-level grids for each moment set.

    ``moment_sets`` is a sequence of (label, MomentInfo).  Premium rows sweep
    kappa; shortfall rows sweep the tail level p at each shortfall's loading.
    """
    kappa_grid = list(kappa_grid if kappa_grid is not None else np.linspace(0.0, 1.0, 11))
    p_grid = list(p_grid if p_grid is not None else np.arange(0.90, 1.00, 0.01))
    if not kappa_grid or not p_grid:
        raise DomainError("grids must be nonempty")
    if any(not (0.0 < p < 1.0) for p in p_grid):
        raise DomainError("p grid must lie inside (0, 1)")
    rows = []
    for label, mom in moment_sets:
        for family, params in premium_families:
            prev = None
            for kappa in kappa_grid:
                bound = premium_bound(family, params, float(kappa), mom)
                rows.append({"label": label, "family": family,
                             "params": _param_str(dict(params)),
                             "grid_var": "kappa", "grid_value": float(kappa),
                             "bound": bound,
                             "delta_vs_prev": "" if prev is None else bound - prev})
                prev = bound
        for spec in shortfall_specs:
            prev = None
            for p in p_grid:
                sweep = ShortfallSpec(spec.family, p=float(p), tau=spec.tau,
                                      alpha=spec.alpha, r=spec.r,
                                      custom_g=spec.custom_g)
                bound = shortfall_value(sweep, mom)
                params = dict(sweep.catalog_params())
                params.pop("p", None)
                rows.append({"label": label, "family": spec.family,
                             "params": _param_str(params),
                             "grid_var": "p", "grid_value": float(p),
                             "bound": bound,
                             "delta_vs_prev": "" if prev is None else bound - prev})
                prev = bound
    return Report(rows=tuple(rows))
