"""Incident-log datasets: loading, encoding, synthesis and profiling."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FeatureColumn",
    "FeatureSchema",
    "Dataset",
    "Encoder",
    "ProfileReport",
    "PlantedEffect",
    "SynthConfig",
    "load_csv",
    "encode",
    "synthesize",
    "profile",
    "ecdf_at",
]

MISSING_LEVEL = "missing"


def fit_distributions() -> dict:
    """Distributions fitted during profiling, all positive-support and fitted
    in log/scale space with the location pinned at zero."""
    from scipy import stats  # imported on use: it takes over a second to load

    return {"log-normal": stats.lognorm, "log-logistic": stats.fisk,
            "weibull": stats.weibull_min}


class DatasetError(ValueError):
    """Raised for schema violations and unusable inputs; ``field`` names the
    config object field at fault, when there is one."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class FeatureColumn:
    name: str
    kind: str = "numeric"  # numeric | categorical | boolean

    def __post_init__(self):
        if self.kind not in ("numeric", "categorical", "boolean"):
            raise DatasetError(
                f"unknown column kind {self.kind!r} for {self.name!r}", "kind"
            )


@dataclass(frozen=True)
class FeatureSchema:
    columns: tuple[FeatureColumn, ...]
    target_column: str = "duration"

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(names) != len(set(names)):
            raise DatasetError("column names must be unique", "columns")
        if self.target_column in names:
            raise DatasetError(
                "target column must not be listed among features", "target_column"
            )
        if not names:
            raise DatasetError("need at least one feature column", "columns")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)


@dataclass(frozen=True)
class Dataset:
    """Raw incident records: one value per schema column plus a duration.

    Missing values are stored as ``None``. Durations are finite, >= 0 minutes.
    Immutable after construction; safe to share across workers.
    """

    schema: FeatureSchema
    rows: tuple[tuple, ...]
    durations: np.ndarray
    load_report: dict = field(default_factory=dict, compare=False)
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        durations = np.asarray(self.durations, dtype=float)
        object.__setattr__(self, "durations", durations)
        if len(self.rows) != durations.shape[0]:
            raise DatasetError("durations length must match row count")
        n_cols = len(self.schema.columns)
        for r in self.rows:
            if len(r) != n_cols:
                raise DatasetError("every row must have one value per schema column")
        if durations.size and (
            not np.all(np.isfinite(durations)) or np.any(durations < 0)
        ):
            raise DatasetError("durations must be finite and >= 0")

    def __len__(self) -> int:
        return len(self.rows)

    def column_values(self, name: str) -> list:
        j = self.schema.names.index(name)
        return [r[j] for r in self.rows]

    def subset(self, indices) -> "Dataset":
        indices = np.asarray(indices, dtype=int)
        return Dataset(
            schema=self.schema,
            rows=tuple(self.rows[i] for i in indices),
            durations=self.durations[indices],
        )


@dataclass(frozen=True)
class Encoder:
    """Deterministic dataset -> float matrix encoder with a frozen vocabulary.

    Column order follows the schema; categorical levels are sorted
    lexicographically and fixed by ``fit``. Missing numerics take the
    training median, missing or unseen categoricals map to the dedicated
    "missing" level (or to no active indicator when none was observed).
    """

    plan: tuple  # (column, kind, payload) per schema column

    @classmethod
    def fit(cls, dataset: Dataset) -> "Encoder":
        if len(dataset) == 0:
            raise DatasetError("cannot encode an empty dataset")
        plan = []
        for col in dataset.schema.columns:
            values = dataset.column_values(col.name)
            if col.kind == "categorical":
                levels = sorted(
                    {str(v) for v in values if v is not None}
                    | ({MISSING_LEVEL} if any(v is None for v in values) else set())
                )
                plan.append((col.name, "categorical", tuple(levels)))
            else:
                present = [float(v) for v in values if v is not None]
                if not present:
                    raise DatasetError(
                        f"column {col.name!r} is entirely missing; cannot impute"
                    )
                plan.append((col.name, "numeric", _median(present)))
        return cls(tuple(plan))

    @property
    def feature_names(self) -> tuple[str, ...]:
        names = []
        for name, kind, payload in self.plan:
            if kind == "categorical":
                names.extend(f"{name}={lvl}" for lvl in payload)
            else:
                names.append(name)
        return tuple(names)

    def transform(self, dataset: Dataset) -> np.ndarray:
        """One row per record, one column per ``feature_names`` entry."""
        n = len(dataset)
        cols = []
        for name, kind, payload in self.plan:
            j = dataset.schema.names.index(name)
            raw = [r[j] for r in dataset.rows]
            if kind == "categorical":
                block = np.zeros((n, len(payload)))
                index = {lvl: i for i, lvl in enumerate(payload)}
                fallback = index.get(MISSING_LEVEL)
                for i, v in enumerate(raw):
                    key = MISSING_LEVEL if v is None else str(v)
                    pos = index.get(key, fallback)
                    if pos is not None:
                        block[i, pos] = 1.0
                cols.append(block)
            else:
                col = np.array(
                    [payload if v is None else float(v) for v in raw]
                ).reshape(n, 1)
                if not np.all(np.isfinite(col)):
                    raise DatasetError(f"column {name!r} has non-finite values")
                cols.append(col)
        return np.hstack(cols)


def _median(values) -> float:
    """``np.median`` of a non-empty list, bit for bit (NaN if any value is):
    the mean of the middle one or two values, without the ``numpy.ma``
    import that ``np.median`` makes on first use."""
    ordered = np.sort(values)  # NaN sorts last
    n = ordered.shape[0]
    if np.isnan(ordered[-1]):
        return float(ordered[-1])
    return float(np.mean(ordered[(n - 1) // 2:n // 2 + 1]))


def encode(dataset: Dataset, rows=None) -> np.ndarray:
    """Encode every record with an encoder fitted on the records ``rows``
    (all by default); a categorical level unseen there encodes as missing."""
    fitted_on = dataset if rows is None else dataset.subset(rows)
    return Encoder.fit(fitted_on).transform(dataset)


def load_csv(path, schema: FeatureSchema, column_map: dict | None = None) -> Dataset:
    """Load an RFC-4180 CSV into a Dataset.

    ``column_map`` maps schema names (and the target name) to CSV header
    names; identity by default. A column the header lacks raises
    ``DatasetError`` whose ``field`` is the argument that named it
    (``column_map``, ``columns`` or ``target_column``). Rows whose target
    does not parse as a non-negative number are dropped and counted in
    ``load_report``. In the rows kept, an empty feature cell is missing
    (``None``), and a cell that does not parse as its column's kind raises
    ``DatasetError``.
    """
    column_map = dict(column_map or {})
    wanted = list(schema.names) + [schema.target_column]
    mapped = {name: column_map.get(name, name) for name in wanted}

    try:
        handle = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(f"cannot open {path}: {exc.strerror}", field="path") from None

    with handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        for name, csv_name in mapped.items():
            if csv_name not in header:
                raise DatasetError(
                    f"mapped column {csv_name!r} (for {name!r}) missing from header",
                    "column_map" if name in column_map
                    else "target_column" if name == schema.target_column
                    else "columns",
                )
        rows = []
        durations = []
        dropped = 0
        for record in reader:
            raw_target = (record.get(mapped[schema.target_column]) or "").strip()
            try:
                target = float(raw_target)
            except ValueError:
                dropped += 1
                continue
            if not math.isfinite(target) or target < 0:
                dropped += 1
                continue
            row = []
            for col in schema.columns:
                raw = (record.get(mapped[col.name]) or "").strip()
                try:
                    row.append(_parse_cell(raw, col.kind))
                except ValueError:
                    raise DatasetError(
                        f"column {col.name!r}, CSV line {reader.line_num}: "
                        f"{raw!r} is not {col.kind}"
                    ) from None
            rows.append(tuple(row))
            durations.append(target)

    if not rows:
        raise DatasetError("zero usable rows")
    return Dataset(
        schema=schema,
        rows=tuple(rows),
        durations=np.array(durations),
        load_report={"n_rows": len(rows), "n_dropped": dropped},
    )


def _parse_cell(raw: str, kind: str):
    """A stripped CSV cell as a row value: ``None`` when empty; raises
    ``ValueError`` when it does not parse as ``kind``."""
    if raw == "":
        return None
    if kind == "categorical":
        return raw
    if kind == "numeric":
        return float(raw)
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "y", "t"):
        return 1.0
    if lowered in ("0", "false", "no", "n", "f"):
        return 0.0
    # numeric encodings ("1.0"/"0.0") appear in round-tripped CSVs
    value = float(lowered)
    if value not in (0.0, 1.0):
        raise ValueError(raw)
    return value


# ---------------------------------------------------------------------------
# Synthetic data (stand-in for the private arterial/motorway incident logs)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlantedEffect:
    """One generated feature with a known multiplicative effect on duration.

    numeric:     value ~ Uniform(low, high); multiplier = exp(slope * u)
                 where u is the value rescaled to [0, 1].
    boolean:     value ~ Bernoulli(true_rate); multiplier applies when true.
    categorical: value ~ uniform choice of ``levels``; per-level multipliers
                 (all 1.0 when omitted, i.e. a pure noise feature).

    ``min_base_duration`` gates the effect: it only multiplies records whose
    base (pre-effect) duration exceeds it.
    """

    name: str
    kind: str = "numeric"
    low: float = 0.0
    high: float = 1.0
    slope: float = 0.0
    true_rate: float = 0.5
    multiplier: float = 1.0
    levels: tuple[str, ...] = ()
    multipliers: tuple[float, ...] = ()
    min_base_duration: float = 0.0

    def __post_init__(self):
        if self.kind not in ("numeric", "boolean", "categorical"):
            raise DatasetError(f"unknown effect kind {self.kind!r}", "kind")
        if self.kind == "categorical":
            if not self.levels:
                raise DatasetError(f"effect {self.name!r} needs levels", "levels")
            if self.multipliers and len(self.multipliers) != len(self.levels):
                raise DatasetError(
                    f"effect {self.name!r}: one multiplier per level", "multipliers"
                )


@dataclass(frozen=True)
class SynthConfig:
    n: int
    seed: int
    mu: float
    sigma: float
    effects: tuple[PlantedEffect, ...] = ()
    corrupt_fraction: float = 0.0
    corrupt_multiplier: float = 30.0

    def __post_init__(self):
        if self.n < 1:
            raise DatasetError("n must be >= 1", "n")
        if self.sigma <= 0:
            raise DatasetError("sigma must be > 0", "sigma")
        if not 0.0 <= self.corrupt_fraction < 1.0:
            raise DatasetError("corrupt_fraction must be in [0, 1)", "corrupt_fraction")


def synthesize(config: SynthConfig) -> Dataset:
    """Draw a reproducible long-tail dataset with planted feature effects.

    Durations are exp(Normal(mu, sigma)) times the product of the planted
    multiplicative effects. ``corrupt_fraction`` optionally multiplies a
    random subset of durations by ``corrupt_multiplier`` to plant
    implausible records; their indices are recorded in ``meta``.
    """
    rng = np.random.default_rng(config.seed)
    n = config.n
    base = np.exp(rng.normal(config.mu, config.sigma, size=n))

    columns = []
    feature_cols = []
    multiplier = np.ones(n)
    for eff in config.effects:
        if eff.kind == "numeric":
            x = rng.uniform(eff.low, eff.high, size=n)
            span = eff.high - eff.low
            unit = (x - eff.low) / span if span > 0 else np.zeros(n)
            m = np.exp(eff.slope * unit)
            feature_cols.append([float(v) for v in x])
        elif eff.kind == "boolean":
            x = (rng.random(n) < eff.true_rate).astype(float)
            m = np.where(x > 0, eff.multiplier, 1.0)
            feature_cols.append([float(v) for v in x])
        else:  # categorical
            idx = rng.integers(0, len(eff.levels), size=n)
            mults = (
                np.asarray(eff.multipliers, dtype=float)
                if eff.multipliers
                else np.ones(len(eff.levels))
            )
            m = mults[idx]
            feature_cols.append([eff.levels[i] for i in idx])
        active = base > eff.min_base_duration
        multiplier = multiplier * np.where(active, m, 1.0)
        columns.append(FeatureColumn(eff.name, eff.kind))

    durations = base * multiplier
    corrupted_idx = np.array([], dtype=int)
    if config.corrupt_fraction > 0:
        k = int(config.corrupt_fraction * n)
        corrupted_idx = np.sort(rng.choice(n, size=k, replace=False))
        durations = durations.copy()
        durations[corrupted_idx] *= config.corrupt_multiplier

    if not columns:
        # keep the dataset schema-valid even with no planted effects
        columns = [FeatureColumn("noise", "numeric")]
        feature_cols = [[float(v) for v in rng.uniform(0, 1, size=n)]]

    schema = FeatureSchema(columns=tuple(columns))
    rows = tuple(zip(*feature_cols))
    return Dataset(
        schema=schema,
        rows=rows,
        durations=durations,
        meta={"corrupted_indices": corrupted_idx.tolist()},
    )


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileReport:
    """ECDF, log-space histogram and MLE distribution fits with AIC ranking."""

    ecdf: tuple[tuple[float, float], ...]
    log_histogram: dict
    fitted: tuple[dict, ...]  # sorted by AIC ascending; failed fits flagged
    n: int
    mean_duration: float
    zero_shifted: int


def ecdf_at(durations, t: float) -> float:
    durations = np.asarray(durations, dtype=float)
    return float(np.sum(durations <= t)) / durations.shape[0]


def profile(dataset: Dataset, n_bins: int = 30) -> ProfileReport:
    """Profile the duration distribution of a dataset.

    Distribution fitting (log-normal, log-logistic, Weibull; location pinned
    at zero) requires at least 10 records; the ECDF is computed for any size.
    Zero durations are shifted by +0.5 minutes before fitting, since the
    fitted families have positive support; the shift count is reported.
    """
    d = np.asarray(dataset.durations, dtype=float)
    if d.size < 1:
        raise DatasetError("profile needs at least one record")

    xs = np.unique(d)
    counts = np.searchsorted(np.sort(d), xs, side="right")
    ecdf = tuple((float(x), float(c) / d.size) for x, c in zip(xs, counts))

    log_d = np.log(d + 1.0)
    hist, edges = np.histogram(log_d, bins=n_bins)
    log_histogram = {"edges": edges.tolist(), "counts": hist.tolist()}

    zero_shifted = int(np.sum(d == 0))
    fitted: list[dict] = []
    if d.size >= 10:
        shifted = np.where(d == 0, 0.5, d)
        for name, dist in fit_distributions().items():
            entry = {"distribution": name}
            try:
                params = dist.fit(shifted, floc=0)
                loglik = float(np.sum(dist.logpdf(shifted, *params)))
                if not math.isfinite(loglik):
                    raise FloatingPointError("non-finite log-likelihood")
                k = len(params) - 1  # loc was fixed
                entry.update(
                    params=[float(p) for p in params],
                    log_likelihood=loglik,
                    aic=2.0 * k - 2.0 * loglik,
                    failed=False,
                )
            except Exception as exc:  # fit divergence: flag, keep the others
                entry.update(failed=True, error=str(exc), aic=math.inf)
            fitted.append(entry)
        fitted.sort(key=lambda e: e["aic"])

    return ProfileReport(
        ecdf=ecdf,
        log_histogram=log_histogram,
        fitted=tuple(fitted),
        n=int(d.size),
        mean_duration=float(np.mean(d)),
        zero_shifted=zero_shifted,
    )
