"""Return-series ingestion, sample moments, and bound report tables.

Loads return series from CSV, estimates (mean, standard deviation), and
drives the bound report: premium principles swept over a kappa grid and
entropy shortfalls swept over a tail-level grid, emitted as long-form rows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    MomentInfo,
    ShortfallSpec,
    closed_form_factor,
    premium_factor,
    premium_value,
    shortfall_bound,
)
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

    ``column`` is an int index or a string.  A string is a header name
    first; a string of digits that names no header cell is an index.  The
    series is labelled ``label``, or else the header cell of the column.  Rows
    whose selected cell is blank are skipped and counted; any other
    non-numeric cell raises NonNumericCell with its row number.  A file that
    is not UTF-8 text, or that the csv module cannot split, raises
    MalformedCsv.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            name, values, skipped = _read_column(csv.reader(fh), path, column)
        except (UnicodeDecodeError, csv.Error) as exc:
            raise MalformedCsv(f"{path}: not a readable CSV text file ({exc})") from None
    if not values:
        raise EmptySeries(f"{path}: column {column!r} has no numeric cells")
    return ReturnSeries(label=label or name, values=np.asarray(values),
                        skipped=skipped)


def _read_column(reader, path: str, column) -> tuple:
    """(header cell, numeric cells, blank cells skipped) of one column of a
    CSV reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedCsv(f"{path}: empty file") from None
    name = str(column)
    if isinstance(column, int):
        col = column
    elif name in header:
        col = header.index(name)
    elif name.isdecimal():
        col = int(name)
    else:
        raise MalformedCsv(f"{path}: no column {name!r} in header {header}")
    if not (0 <= col < len(header)):
        raise MalformedCsv(f"{path}: column index {col} out of range")
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
    return header[col], values, skipped


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
        """The rows as CSV text, byte for byte what ``csv.writer`` writes.

        The csv module quotes a sweep group's four string cells (label,
        family, params, grid_var) once per run of rows that share them, and
        each distinct grid value is formatted once.  A float cell is written
        as its ``repr``, which is what ``csv.writer`` writes for a float, and
        an empty delta as nothing; a row with any other value cell goes
        through ``csv.writer`` whole.
        """
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")

        def line(cells) -> str:
            buf.seek(0)
            buf.truncate()
            writer.writerow(cells)
            return buf.getvalue()

        lines = [line(REPORT_COLUMNS)]
        label_ = family_ = params_ = grid_var_ = object()  # held by no row
        head = ""
        # keyed by id: 0.0 and -0.0 are equal keys with different reprs, and
        # the rows keep every grid value alive, so no id is reused meanwhile
        grid_text = {}
        for row in map(itemgetter(*REPORT_COLUMNS), self.rows):
            label, family, params, grid_var, x, bound, delta = row
            if not (type(x) is float and type(bound) is float
                    and (type(delta) is float or delta == "")):
                lines.append(line(row))
                continue
            # a group's rows share its cell objects; identity, unlike
            # equality, never takes 1 for 1.0 or True
            if (label is not label_ or family is not family_
                    or params is not params_ or grid_var is not grid_var_):
                label_, family_, params_, grid_var_ = label, family, params, grid_var
                head = line(row[:4])[:-1]
            x_text = grid_text.get(id(x))
            if x_text is None:
                x_text = grid_text[id(x)] = repr(x)
            lines.append(f"{head},{x_text},{bound!r},{'' if delta == '' else repr(delta)}\n")
        return "".join(lines)


def _param_str(params: dict) -> str:
    return ";".join(f"{k}={params[k]:g}" for k in sorted(params))


def _sweep_rows(label, family, params, grid_var, grid, bounds):
    """One row per grid point, each with its change from the previous row."""
    prev = None
    for x, bound in zip(grid, bounds):
        yield {"label": label, "family": family, "params": params,
               "grid_var": grid_var, "grid_value": x, "bound": bound,
               "delta_vs_prev": "" if prev is None else bound - prev}
        prev = bound


def build_report(moment_sets, premium_families=DEMO_PREMIUM_FAMILIES,
                 shortfall_specs=DEMO_SHORTFALLS,
                 kappa_grid=None, p_grid=None) -> Report:
    """Bound tables over kappa and tail-level grids for each moment set.

    ``moment_sets`` is a sequence of (label, MomentInfo).  Premium rows sweep
    kappa; shortfall rows sweep the tail level p at each shortfall's loading.
    A premium's ``L`` depends only on its family and parameters, and a
    shortfall's only on its spec and p, so each distinct ``L`` is computed
    once per report: from the closed form for a named shortfall, and by one
    engine run per tail level for a custom one.
    """
    kappa_grid = [float(k) for k in
                  (kappa_grid if kappa_grid is not None else np.linspace(0.0, 1.0, 11))]
    p_grid = [float(p) for p in
              (p_grid if p_grid is not None else np.arange(0.90, 1.00, 0.01))]
    if not kappa_grid or not p_grid:
        raise DomainError("grids must be nonempty")
    if any(not (0.0 < p < 1.0) for p in p_grid):
        raise DomainError("p grid must lie inside (0, 1)")
    premiums = [(family, _param_str(dict(params)), premium_factor(family, params))
                for family, params in premium_families]
    shortfalls = []
    for spec in shortfall_specs:
        params = spec.catalog_params()
        if spec.family == "custom":
            # the engine's sup is mu*center + sigma*L with L free of the moments
            factors = [(r.center, r.l2_term) for r in
                       (shortfall_bound(replace(spec, p=p), MomentInfo(0.0, 1.0))
                        for p in p_grid)]
        else:
            factors = [closed_form_factor(spec.family, dict(params, p=p)) for p in p_grid]
        params.pop("p", None)
        shortfalls.append((spec.family, _param_str(params), factors))
    rows = []
    for label, mom in moment_sets:
        for family, params, L in premiums:
            bounds = [premium_value(L, kappa, mom) for kappa in kappa_grid]
            rows.extend(_sweep_rows(label, family, params, "kappa", kappa_grid, bounds))
        for family, params, factors in shortfalls:
            bounds = [mom.mu * center + mom.sigma * L for center, L in factors]
            rows.extend(_sweep_rows(label, family, params, "p", p_grid, bounds))
    return Report(rows=tuple(rows))
