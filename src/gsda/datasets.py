"""CSV reading and writing, dataset container, and synthetic data generators."""

import csv
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidInput, MissingColumn, ParseError

_MISSING = ("", "na", "nan", "null", "none")
_LINE_BREAK = re.compile(r"[\r\n]")

DAY_LABELS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")


@dataclass
class Dataset:
    """A response vector plus named covariate columns.

    Factor columns are stored as integer level codes inside the float
    matrix ``W``; the code -> label mapping (first-appearance order)
    lives in ``levels``.
    """

    y: np.ndarray
    W: np.ndarray
    columns: list
    kinds: list  # "numeric" | "factor" per column
    levels: dict = field(default_factory=dict)
    response: str = "y"
    n_dropped: int = 0

    @property
    def n(self):
        return self.y.size

    def column(self, name):
        return self.W[:, self.columns.index(name)]

    def kind_of(self, name):
        return self.kinds[self.columns.index(name)]

    def labels(self, name):
        """String labels for a factor column, one per observation."""
        lv = self.levels[name]
        return np.array([lv[int(c)] for c in self.column(name)])

    def table(self):
        """``(header, columns)``: the response, then each covariate, a factor as its labels."""
        return [self.response, *self.columns], [self.y] + [
            self.labels(name) if kind == "factor" else self.column(name)
            for name, kind in zip(self.columns, self.kinds)]

    def interaction(self, name_a, name_b):
        """Codes and levels of the concatenated factor ``a:b``.

        Two distinct label pairs that join to one level, as (``x:y``, ``z``)
        and (``x``, ``y:z``) do, raise :class:`InvalidInput`.
        """
        pairs = list(zip(self.labels(name_a), self.labels(name_b)))
        index = {pair: i for i, pair in enumerate(dict.fromkeys(pairs))}
        lv = [f"{a}:{b}" for a, b in index]
        clash = next((label for label, count in Counter(lv).items() if count > 1), None)
        if clash is not None:
            raise InvalidInput(f"interaction {name_a}:{name_b} joins two label pairs "
                               f"into level {clash!r}")
        return np.array([index[p] for p in pairs], dtype=float), lv


def _parse_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("non-finite")
    return value


def load_csv(path, response_column="y", factor_columns=()):
    """Read a headed CSV into a Dataset.

    Rows with a missing or unparseable numeric entry are dropped and
    counted; fewer than 3 rows left raise :class:`InvalidInput` naming
    the column that dropped the most.  A row with the wrong number of
    fields, a header that names a column twice, or a column name or
    factor label holding a line break raises :class:`ParseError` with
    its line number: the physical line of the file the row starts on.
    Factor columns keep their labels, coded in first-appearance order.
    """
    factor_columns = list(factor_columns)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ParseError(f"column {name!r} appears twice in the header", line=1)
            if _LINE_BREAK.search(name):
                raise ParseError(f"column name {name!r} holds a line break", line=1)
        if response_column not in header:
            raise MissingColumn(f"response column {response_column!r} not in header")
        for name in factor_columns:
            if name not in header:
                raise MissingColumn(f"factor column {name!r} not in header")
        covariates = [h for h in header if h != response_column]
        is_factor = {h: h in factor_columns for h in header}
        response = header.index(response_column)
        # (field index, is a factor) per covariate, in column order
        cells = [(header.index(h), is_factor[h]) for h in covariates]
        y_list = []
        rows = []
        dropped = Counter()  # field index -> rows it dropped
        start = reader.line_num + 1
        for fields in reader:
            # the physical line the row starts on: a quoted cell may span lines
            lineno, start = start, reader.line_num + 1
            if not fields:
                continue
            if len(fields) != len(header):
                raise ParseError(
                    f"expected {len(header)} fields, found {len(fields)}", line=lineno)
            try:
                i = response
                yv = _parse_float(fields[response].strip())
                values = []
                for i, factor in cells:
                    raw = fields[i].strip()
                    if raw.lower() in _MISSING:
                        raise ValueError("missing")
                    if factor and _LINE_BREAK.search(raw):
                        raise ParseError(f"label {raw!r} holds a line break", line=lineno)
                    values.append(raw if factor else _parse_float(raw))
            except ValueError:
                dropped[i] += 1
                continue
            y_list.append(yv)
            rows.append(values)
    if len(y_list) < 3:
        why = "".join(f"; column {header[i]!r} failed to parse in {count} rows (a label "
                      "column must be read as a factor)" for i, count in dropped.most_common(1))
        raise InvalidInput(f"need at least 3 usable rows, found {len(y_list)}{why}")
    y = np.array(y_list)
    W = np.empty((y.size, len(covariates)))
    kinds = []
    levels = {}
    for j, name in enumerate(covariates):
        col = [r[j] for r in rows]
        if is_factor[name]:
            lv = list(dict.fromkeys(col))
            index = {label: i for i, label in enumerate(lv)}
            W[:, j] = [index[c] for c in col]
            kinds.append("factor")
            levels[name] = lv
        else:
            W[:, j] = col
            kinds.append("numeric")
    return Dataset(y, W, covariates, kinds, levels, response_column, dropped.total())


def format_cell(value):
    """A value as text: true/false for a bool, 17 significant digits for a float."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{value:.17g}"
    return str(value)


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _quoted(text):
    """text in double quotes, each quote doubled, if it holds ``,``, ``"`` or a line break."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _cells(column):
    """A column's cells as text: a float64 array in one pass, else quoted format_cell text."""
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return [f"{v:.17g}" for v in column.tolist()]
    cells = [format_cell(v) for v in column]
    return list(map(_quoted, cells)) if _NEEDS_QUOTES.search("".join(cells)) else cells


def write_table(path, header, columns):
    """Write named columns as CSV that :func:`load_csv` reads back.

    A cell or header name holding ``,``, ``"`` or a line break is quoted
    as RFC 4180 has it, and every line ends with ``\\n``.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        for row in zip(*map(_cells, columns)):
            fh.write(",".join(row) + "\n")


def write_csv(dataset, path):
    """Write :meth:`Dataset.table` by :func:`write_table`; a number carries 17 digits."""
    write_table(path, *dataset.table())


def gpd_inverse_cdf(u, sigma, kappa):
    """Quantile function of the GPD: the return level at c = 1 - u (``_kernels.theta_of``)."""
    logc, sigma, kappa = np.broadcast_arrays(np.log1p(-np.asarray(u, float)), sigma, kappa)
    return _kernels.theta_of(sigma.ravel(), kappa.ravel(), logc.ravel()).reshape(logc.shape)


def _as_fn(value):
    return value if callable(value) else (lambda t, v=float(value): np.full(t.shape, v))


def simulate_gpd(n, sigma_fn, kappa_fn, seed):
    """GPD excesses by inverse-CDF sampling over a unit time covariate.

    ``sigma_fn`` and ``kappa_fn`` may be constants or callables of the
    time covariate t in [0, 1].
    """
    if n < 1:
        raise InvalidInput("n must be >= 1")
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n)
    sigma = np.asarray(_as_fn(sigma_fn)(t), dtype=float)
    kappa = np.asarray(_as_fn(kappa_fn)(t), dtype=float)
    if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
        raise InvalidInput("sigma must be positive and finite")
    if not np.all(np.isfinite(kappa)):
        raise InvalidInput("kappa must be finite")
    y = gpd_inverse_cdf(rng.random(n), sigma, kappa)
    return Dataset(y, t[:, None].copy(), ["t"], ["numeric"])


def simulate_gpd_sites(n_per_site, seed, kappa=0.1):
    """Pooled multi-site excesses with a smooth time trend in the scale.

    Three sites with different base scales share a common seasonal-style
    trend: sigma(site, t) = exp(base_site + 0.6*sin(2*pi*t)).
    """
    if n_per_site < 2:
        raise InvalidInput("n_per_site must be >= 2")
    rng = np.random.default_rng(seed)
    bases = {"alpha": 0.3, "bravo": 0.0, "charlie": 0.8}
    y_parts, t_parts, site_codes = [], [], []
    for code, (name, base) in enumerate(bases.items()):
        t = np.linspace(0.0, 1.0, n_per_site)
        sigma = np.exp(base + 0.6 * np.sin(2.0 * np.pi * t))
        y_parts.append(gpd_inverse_cdf(rng.random(n_per_site), sigma,
                                       np.full(n_per_site, kappa)))
        t_parts.append(t)
        site_codes.append(np.full(n_per_site, code, dtype=float))
    W = np.column_stack([np.concatenate(site_codes), np.concatenate(t_parts)])
    return Dataset(np.concatenate(y_parts), W, ["site", "t"],
                   ["factor", "numeric"], {"site": list(bases)})


def simulate_hetero(n, seed):
    """Heteroscedastic regression data y = sin(w) + (0.5 + 0.4 w) * noise."""
    if n < 3:
        raise InvalidInput("n must be >= 3")
    rng = np.random.default_rng(seed)
    w = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    y = np.sin(w) + (0.5 + 0.4 * w) * rng.standard_normal(n)
    return Dataset(y, w[:, None].copy(), ["w"], ["numeric"])


def sales_pattern_table(hours_per_day):
    """Mean hourly sales per (day, hour) cell, shape (7, hours_per_day).

    Weekdays follow a morning-peaked curve with a small late-afternoon
    bump; Sunday uses its own afternoon-heavy row.
    """
    if hours_per_day < 2:
        raise InvalidInput("hours_per_day must be >= 2")
    x = np.linspace(0.0, 1.0, hours_per_day)
    weekday = 0.5 + 1.6 * np.exp(-((x - 0.10) / 0.22) ** 2) \
        + 0.45 * np.exp(-((x - 0.65) / 0.10) ** 2)
    sunday = 0.4 + 1.5 * np.exp(-((x - 0.70) / 0.25) ** 2)
    day_base = np.array([38.0, 36.0, 36.0, 37.0, 40.0, 46.0, 30.0])
    table = np.outer(day_base, weekday)
    table[6] = day_base[6] * sunday
    return table


def simulate_sales(days, hours_per_day, seed, dispersion=50.0):
    """Hourly count data with a day-of-week by hour-of-day mean pattern.

    Counts are negative-binomial around the embedded pattern table
    (variance mu + mu^2/dispersion); Sunday gets a distinct pattern row.
    Emits ``day`` and ``hour`` factor columns.
    """
    if days < 7:
        raise InvalidInput("days must be >= 7")
    table = sales_pattern_table(hours_per_day)
    rng = np.random.default_rng(seed)
    day_idx = np.repeat(np.arange(days) % 7, hours_per_day)
    hour_idx = np.tile(np.arange(hours_per_day), days)
    mu = table[day_idx, hour_idx]
    p = dispersion / (dispersion + mu)
    y = rng.negative_binomial(dispersion, p).astype(float)
    W = np.column_stack([day_idx.astype(float), hour_idx.astype(float)])
    hour_labels = [f"{(6 + h) % 24:02d}" for h in range(hours_per_day)]
    return Dataset(y, W, ["day", "hour"], ["factor", "factor"],
                   {"day": list(DAY_LABELS), "hour": hour_labels})
