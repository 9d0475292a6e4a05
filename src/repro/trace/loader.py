"""CSV round-trip for traces.

Two files per trace: ``<stem>.apps.csv`` (one row per application) and
``<stem>.conflicts.csv`` (one row per cross-application conflict pair).
The format is deliberately trivial so traces can be inspected, diffed
and regenerated without the library.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro.cluster.container import Application
from repro.trace.schema import Trace, TraceConfig

_APP_FIELDS = [
    "app_id",
    "n_containers",
    "cpu",
    "mem_gb",
    "priority",
    "anti_affinity_within",
    "anti_affinity_scope",
    "affinities",
    "name",
]


def save_trace(trace: Trace, stem: str | Path) -> tuple[Path, Path]:
    """Write ``trace`` next to ``stem``; returns the two file paths."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    apps_path = stem.with_suffix(".apps.csv")
    conflicts_path = stem.with_suffix(".conflicts.csv")

    with apps_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_APP_FIELDS)
        for app in trace.applications:
            writer.writerow(
                [
                    app.app_id,
                    app.n_containers,
                    app.cpu,
                    app.mem_gb,
                    app.priority,
                    int(app.anti_affinity_within),
                    app.anti_affinity_scope,
                    " ".join(str(a) for a in sorted(app.affinities)),
                    app.name,
                ]
            )

    with conflicts_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["app_a", "app_b"])
        writer.writerows(trace.constraints.conflicting_pairs())

    return apps_path, conflicts_path


def load_trace(stem: str | Path, config: TraceConfig | None = None) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    ``config`` is attached verbatim (it is metadata only at this point);
    a default config is used when omitted.
    """
    stem = Path(stem)
    apps_path = stem.with_suffix(".apps.csv")
    conflicts_path = stem.with_suffix(".conflicts.csv")

    conflicts: dict[int, set[int]] = {}
    with conflicts_path.open(newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            try:
                a, b = int(row["app_a"]), int(row["app_b"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{conflicts_path.name}:{line}: garbled conflict row "
                    f"{row!r}"
                ) from exc
            conflicts.setdefault(a, set()).add(b)
            conflicts.setdefault(b, set()).add(a)

    apps: list[Application] = []
    with apps_path.open(newline="") as fh:
        for line, row in enumerate(csv.DictReader(fh), start=2):
            # csv.DictReader maps short rows to None values; a truncated
            # or garbled row must name its line, not surface as a bare
            # int()/float() error from deep inside the parse.
            try:
                app_id = int(row["app_id"])
                apps.append(
                    Application(
                        app_id=app_id,
                        n_containers=int(row["n_containers"]),
                        cpu=float(row["cpu"]),
                        mem_gb=float(row["mem_gb"]),
                        priority=int(row["priority"]),
                        anti_affinity_within=bool(
                            int(row["anti_affinity_within"])
                        ),
                        anti_affinity_scope=row.get("anti_affinity_scope")
                        or "machine",
                        conflicts=conflicts.get(app_id, ()),
                        affinities=frozenset(
                            int(a)
                            for a in (row.get("affinities") or "").split()
                        ),
                        name=row.get("name") or "",
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{apps_path.name}:{line}: truncated or garbled "
                    f"application row: {exc}"
                ) from exc
    if not apps:
        raise ValueError(
            f"{apps_path.name}: no application rows (empty trace)"
        )
    apps.sort(key=lambda a: a.app_id)
    for i, app in enumerate(apps):
        if app.app_id != i:
            raise ValueError(f"application ids are not dense: missing {i}")
    return Trace(config=config or TraceConfig(), applications=apps)
