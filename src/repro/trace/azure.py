"""Azure Functions 2019 trace front-end.

The public Azure Functions dataset (Shahrad et al., *Serverless in the
Wild*, ATC 2020; released at
https://github.com/Azure/AzurePublicDataset) records two weeks of
production serverless traffic: per-function invocation counts in
1,440 one-minute bins per day, per-function execution-duration
statistics, and per-app allocated-memory statistics.  Three CSVs per
day::

    invocations_per_function_md.anon.d<DD>.csv
        HashOwner, HashApp, HashFunction, Trigger, 1, 2, ..., 1440
    function_durations_percentiles.anon.d<DD>.csv
        HashOwner, HashApp, HashFunction, Average, Count, Minimum,
        Maximum, percentile_Average_0, ..., percentile_Average_100
    app_memory_percentiles.anon.d<DD>.csv
        HashOwner, HashApp, SampleCount, AverageAllocatedMb,
        AverageAllocatedMb_pct1, ..., AverageAllocatedMb_pct100

This module parses those files into :class:`AzureDataset` — the
normalized form :mod:`repro.trace.scenarios` maps onto the
reproduction's workload model — caches the parse as a compact ``.npz``
next to the CSVs (the raw invocation file is ~GB-scale; the cache
reloads in milliseconds), and, crucially, ships a **seeded synthetic
fallback** calibrated to the dataset's published distributions, so CI
and offline hosts exercise the same scenario machinery with zero
network access: :func:`azure_dataset` returns the real data when a
directory is given and the fallback otherwise, and everything
downstream is deterministic in (source, seed).

Published statistics the fallback is calibrated to (ATC '20 §3):

* daily invocations per function span **eight orders of magnitude**,
  heavy-tailed — the most popular 18.6 % of apps drive 99.6 % of all
  invocations (log₁₀ daily invocations ≈ normal, heavy right tail);
* triggers: ~55 % HTTP, ~16 % timer (periodic, phase-locked spikes),
  ~15 % queue, the rest event/storage/orchestration;
* aggregate load is **diurnal** — smooth daytime peak over a nighttime
  trough (roughly 2:1), which is exactly the curve the ``diurnal``
  scenario replays;
* 50 % of functions average < 1 s execution, ~96 % < 60 s (log-normal);
* allocated memory: ~170 MB median, 90 % below ~400 MB, capped at the
  platform's 1.5 GB.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: minutes per trace day — the invocation CSV has one column per minute.
MINUTES_PER_DAY = 1440

#: trigger mix of the published dataset (ATC '20 Fig. 2), used by the
#: synthetic fallback; shares are fractions of *functions*.
TRIGGER_SHARES = (
    ("http", 0.55),
    ("timer", 0.16),
    ("queue", 0.15),
    ("storage", 0.07),
    ("event", 0.04),
    ("orchestration", 0.03),
)

#: defaults for functions the duration/memory files do not cover (the
#: real dataset's joins are incomplete); published medians.
DEFAULT_DURATION_MS = 600.0
DEFAULT_MEMORY_MB = 170.0

_INVOCATIONS_FILE = "invocations_per_function_md.anon.d{day:02d}.csv"
_DURATIONS_FILE = "function_durations_percentiles.anon.d{day:02d}.csv"
_MEMORY_FILE = "app_memory_percentiles.anon.d{day:02d}.csv"


class AzureTraceError(ValueError):
    """A dataset file is missing, truncated or garbled."""


@dataclass(frozen=True)
class AzureFunction:
    """One serverless function: identity, trigger, load and footprint."""

    owner: str
    app: str
    function: str
    trigger: str
    #: per-minute invocation counts, shape ``(MINUTES_PER_DAY,)``
    invocations: np.ndarray
    #: average execution duration in milliseconds
    duration_ms: float
    #: average allocated memory in MB
    memory_mb: float

    @property
    def daily_invocations(self) -> int:
        return int(self.invocations.sum())


@dataclass
class AzureDataset:
    """A normalized one-day slice of the Azure Functions trace."""

    functions: list[AzureFunction]
    #: provenance: ``azure-2019:<dir>`` or ``synthetic-fallback:seed=N``
    source: str = "unknown"

    def __post_init__(self) -> None:
        for fn in self.functions:
            if fn.invocations.shape != (MINUTES_PER_DAY,):
                raise AzureTraceError(
                    f"function {fn.function!r} has "
                    f"{fn.invocations.shape[0]} minute bins, expected "
                    f"{MINUTES_PER_DAY}"
                )

    @property
    def n_functions(self) -> int:
        return len(self.functions)

    @property
    def total_invocations(self) -> int:
        return sum(f.daily_invocations for f in self.functions)

    def minute_curve(self) -> np.ndarray:
        """Aggregate invocations per minute — the diurnal load curve."""
        if not self.functions:
            return np.zeros(MINUTES_PER_DAY, dtype=np.int64)
        return np.sum([f.invocations for f in self.functions], axis=0)

    def top_functions(self, n: int) -> list[AzureFunction]:
        """The ``n`` busiest functions by daily invocation count."""
        return sorted(
            self.functions, key=lambda f: -f.daily_invocations
        )[:n]


# ----------------------------------------------------------------------
# real-dataset parsing + cache
# ----------------------------------------------------------------------
def _parse_float(row: dict, key: str, path: Path, line: int) -> float:
    raw = row.get(key)
    if raw is None or raw == "":
        raise AzureTraceError(
            f"{path.name}:{line}: missing column {key!r}"
        )
    try:
        return float(raw)
    except ValueError as exc:
        raise AzureTraceError(
            f"{path.name}:{line}: garbled {key}={raw!r}"
        ) from exc


def _read_rows(path: Path, required: tuple[str, ...]) -> list[dict]:
    if not path.exists():
        raise AzureTraceError(f"dataset file missing: {path}")
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise AzureTraceError(
                f"{path.name}: header lacks columns {missing} "
                f"(got {header[:6]}...)"
            )
        rows = []
        for line, row in enumerate(reader, start=2):
            # csv.DictReader maps short rows to None values — a
            # truncated tail row must fail loudly, not parse as zeros.
            if any(row.get(c) is None for c in required):
                raise AzureTraceError(
                    f"{path.name}:{line}: truncated row"
                )
            row["_line"] = line
            rows.append(row)
    return rows


def load_invocations(path: str | Path) -> list[dict]:
    """Parse one ``invocations_per_function_md`` CSV.

    Returns one record per function: identity, trigger and the
    1,440-minute count vector.  Garbled counts and truncated rows raise
    :class:`AzureTraceError` with file/line context.
    """
    path = Path(path)
    minute_cols = [str(m) for m in range(1, MINUTES_PER_DAY + 1)]
    required = ("HashOwner", "HashApp", "HashFunction", "Trigger",
                minute_cols[0], minute_cols[-1])
    out = []
    for row in _read_rows(path, required):
        line = row["_line"]
        counts = np.empty(MINUTES_PER_DAY, dtype=np.int64)
        for i, col in enumerate(minute_cols):
            raw = row.get(col)
            if raw is None:
                raise AzureTraceError(f"{path.name}:{line}: truncated row")
            try:
                counts[i] = int(float(raw))
            except ValueError as exc:
                raise AzureTraceError(
                    f"{path.name}:{line}: garbled minute {col}={raw!r}"
                ) from exc
        if (counts < 0).any():
            raise AzureTraceError(
                f"{path.name}:{line}: negative invocation count"
            )
        out.append(
            {
                "owner": row["HashOwner"],
                "app": row["HashApp"],
                "function": row["HashFunction"],
                "trigger": row["Trigger"],
                "invocations": counts,
            }
        )
    if not out:
        raise AzureTraceError(f"{path.name}: no invocation rows (empty trace)")
    return out


def _load_averages(
    path: str | Path, keys: tuple[str, ...], column: str, what: str
) -> dict[tuple[str, ...], float]:
    """``keys`` columns → the non-negative ``column`` value of each row."""
    path = Path(path)
    out: dict[tuple[str, ...], float] = {}
    for row in _read_rows(path, (*keys, column)):
        value = _parse_float(row, column, path, row["_line"])
        if value < 0:
            raise AzureTraceError(
                f"{path.name}:{row['_line']}: negative {what} {value}"
            )
        out[tuple(row[k] for k in keys)] = value
    return out


def load_durations(path: str | Path) -> dict[tuple[str, str, str], float]:
    """(owner, app, function) → average duration in ms."""
    keys = ("HashOwner", "HashApp", "HashFunction")
    return _load_averages(path, keys, "Average", "duration")


def load_memory(path: str | Path) -> dict[tuple[str, str], float]:
    """(owner, app) → average allocated memory in MB."""
    keys = ("HashOwner", "HashApp")
    return _load_averages(path, keys, "AverageAllocatedMb", "memory")


def _cache_path(root: Path, day: int) -> Path:
    return root / f"azure_d{day:02d}.cache.npz"


def _source_files(root: Path, day: int) -> list[Path]:
    return [
        root / _INVOCATIONS_FILE.format(day=day),
        root / _DURATIONS_FILE.format(day=day),
        root / _MEMORY_FILE.format(day=day),
    ]


def _save_cache(path: Path, dataset: AzureDataset) -> None:
    fns = dataset.functions
    np.savez_compressed(
        path,
        owner=np.array([f.owner for f in fns]),
        app=np.array([f.app for f in fns]),
        function=np.array([f.function for f in fns]),
        trigger=np.array([f.trigger for f in fns]),
        invocations=np.stack([f.invocations for f in fns]),
        duration_ms=np.array([f.duration_ms for f in fns]),
        memory_mb=np.array([f.memory_mb for f in fns]),
        source=np.array(dataset.source),
    )


def _load_cache(path: Path) -> AzureDataset:
    with np.load(path, allow_pickle=False) as z:
        functions = [
            AzureFunction(
                owner=str(z["owner"][i]),
                app=str(z["app"][i]),
                function=str(z["function"][i]),
                trigger=str(z["trigger"][i]),
                invocations=z["invocations"][i].astype(np.int64),
                duration_ms=float(z["duration_ms"][i]),
                memory_mb=float(z["memory_mb"][i]),
            )
            for i in range(z["owner"].shape[0])
        ]
        return AzureDataset(functions=functions, source=str(z["source"]))


def load_azure_dataset(
    root: str | Path, day: int = 1, cache: bool = True
) -> AzureDataset:
    """Parse (or reload from cache) one day of the real dataset.

    ``root`` is the directory holding the three per-day CSVs.  With
    ``cache`` (the default) the parse is memoised as
    ``azure_d<DD>.cache.npz`` in the same directory; the cache is
    invalidated whenever any source CSV is newer than it.  The download
    itself is **never** automated — see docs/WORKLOADS.md for the
    dataset URL and the fallback semantics.
    """
    root = Path(root)
    sources = _source_files(root, day)
    cpath = _cache_path(root, day)
    if cache and cpath.exists():
        mtime = cpath.stat().st_mtime
        if all(
            not s.exists() or s.stat().st_mtime <= mtime for s in sources
        ):
            try:
                return _load_cache(cpath)
            except (OSError, KeyError, ValueError):
                pass  # corrupt cache: fall through to a fresh parse

    records = load_invocations(sources[0])
    durations = load_durations(sources[1]) if sources[1].exists() else {}
    memory = load_memory(sources[2]) if sources[2].exists() else {}
    functions = [
        AzureFunction(
            owner=r["owner"],
            app=r["app"],
            function=r["function"],
            trigger=r["trigger"],
            invocations=r["invocations"],
            duration_ms=durations.get(
                (r["owner"], r["app"], r["function"]), DEFAULT_DURATION_MS
            ),
            memory_mb=memory.get((r["owner"], r["app"]), DEFAULT_MEMORY_MB),
        )
        for r in records
    ]
    dataset = AzureDataset(functions=functions, source=f"azure-2019:{root}")
    if cache:
        try:
            _save_cache(cpath, dataset)
        except OSError:
            pass  # read-only dataset dir: serve uncached
    return dataset


# ----------------------------------------------------------------------
# seeded synthetic fallback
# ----------------------------------------------------------------------
def _hash_name(seed: int, kind: str, index: int) -> str:
    """Deterministic hex identifier shaped like the dataset's hashes."""
    digest = hashlib.sha256(f"{seed}:{kind}:{index}".encode()).hexdigest()
    return digest[:16]


def synthetic_azure_dataset(
    seed: int = 0,
    n_functions: int = 200,
    trough_to_peak: float = 0.45,
) -> AzureDataset:
    """A seeded stand-in matching the dataset's published distributions.

    Fully deterministic in ``(seed, n_functions)``: same arguments →
    bit-identical invocation matrices, durations and memory draws, which
    is what lets the scenario differential tests and the checkpoint
    fingerprint treat the fallback exactly like a file on disk.

    * log₁₀(daily invocations) ~ N(2.0, 1.2) clipped to [0, 7] — the
      heavy tail where a handful of functions dominate total load;
    * non-timer functions spread their mass over a **diurnal** rate
      curve (trough ``trough_to_peak`` of peak, per-function phase
      jitter) sampled as a Poisson count per minute;
    * timer functions fire on a fixed period (1/5/15/60/1440 min) with
      a per-function phase — the metronomic spikes of the real data;
    * duration: log-normal around ~600 ms with a minutes-long tail,
      clipped to [1 ms, 10 min];
    * memory: log-normal around ~170 MB, clipped to [64 MB, 1536 MB].
    """
    if n_functions < 1:
        raise AzureTraceError("n_functions must be >= 1")
    rng = np.random.default_rng(seed)
    minutes = np.arange(MINUTES_PER_DAY)

    names = np.array([t for t, _ in TRIGGER_SHARES])
    shares = np.array([s for _, s in TRIGGER_SHARES])
    triggers = rng.choice(names, size=n_functions, p=shares / shares.sum())

    daily = np.power(
        10.0, np.clip(rng.normal(2.0, 1.2, n_functions), 0.0, 7.0)
    )
    durations = np.clip(
        rng.lognormal(np.log(DEFAULT_DURATION_MS), 1.6, n_functions),
        1.0, 600_000.0,
    )
    memory = np.clip(
        rng.lognormal(np.log(DEFAULT_MEMORY_MB), 0.7, n_functions),
        64.0, 1536.0,
    )

    functions: list[AzureFunction] = []
    for i in range(n_functions):
        if triggers[i] == "timer":
            period = int(rng.choice([1, 5, 15, 60, 1440],
                                    p=[0.15, 0.3, 0.3, 0.2, 0.05]))
            phase = int(rng.integers(period))
            fires = ((minutes % period) == phase)
            per_fire = max(1, round(daily[i] / max(1, fires.sum())))
            counts = np.where(fires, per_fire, 0).astype(np.int64)
        else:
            # Per-function phase jitter stays within ±2 h of the shared
            # daytime peak — spread any wider, the per-function
            # sinusoids decorrelate and the *aggregate* curve flattens,
            # losing the diurnal swing the dataset actually shows.
            phase = rng.uniform(-120.0, 120.0)
            shape = 1.0 + (1.0 - trough_to_peak) * np.sin(
                2.0 * np.pi * (minutes - phase) / MINUTES_PER_DAY
            )
            rate = daily[i] * shape / shape.sum()
            counts = rng.poisson(rate).astype(np.int64)
        functions.append(
            AzureFunction(
                owner=_hash_name(seed, "owner", i // 4),
                app=_hash_name(seed, "app", i // 2),
                function=_hash_name(seed, "fn", i),
                trigger=str(triggers[i]),
                invocations=counts,
                duration_ms=float(durations[i]),
                memory_mb=float(memory[i]),
            )
        )
    return AzureDataset(
        functions=functions, source=f"synthetic-fallback:seed={seed}"
    )


def azure_dataset(
    path: str | Path | None = None,
    *,
    seed: int = 0,
    day: int = 1,
    n_functions: int = 200,
) -> AzureDataset:
    """The front door: real data when available, seeded fallback otherwise.

    ``path`` names the dataset directory; ``None`` (or a directory whose
    invocation CSV is absent) selects :func:`synthetic_azure_dataset`,
    so offline hosts and CI never attempt a download.  Passing a ``path``
    whose directory exists but lacks the CSVs raises — a typo'd path
    silently falling back would fake a real-trace run.
    """
    if path is None:
        return synthetic_azure_dataset(seed=seed, n_functions=n_functions)
    return load_azure_dataset(path, day=day)
