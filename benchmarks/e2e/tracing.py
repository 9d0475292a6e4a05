"""Outside-in span tracing for the ``--trace`` run.

Nothing under ``src/`` knows it is traced: :func:`install` wraps the
program's functions from here — class attributes are replaced on the
class, module functions are rebound in every loaded ``repro`` module that
imported them by name (``repro.serve.server.apply_window`` and friends).
A target that no longer exists is skipped and listed in
:attr:`Tracer.absent`; its metrics then read ``None``, the run goes on.

A span is ``(name, start, end, parent, request_id)`` on
``time.monotonic()`` — one clock for the load generator and the server
process.  Spans stay in per-thread lists (``parent`` indexes the same
list, -1 at the top) until the run ends; a span's self time is its
duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from contextlib import contextmanager, nullcontext

#: span name -> "module:attr" or "module:Class.attr" targets timed under it
TARGETS: dict[str, tuple[str, ...]] = {
    "protocol.decode": ("repro.serve.protocol:_decode_payload",),
    "protocol.validate": ("repro.serve.protocol:validate_request",),
    "protocol.encode": ("repro.serve.protocol:encode_frame",),
    "server.window": ("repro.serve.server:PlacementServer._apply_window",),
    "online.apply_window": ("repro.sim.online:apply_window",),
    "online.record_window": ("repro.sim.online:record_window",),
    "state.evict_block": ("repro.cluster.state:ClusterState.evict_block",),
    "state.deploy_block": ("repro.cluster.state:ClusterState.deploy_block",),
    "state.used_machines": ("repro.cluster.state:ClusterState.used_machines",),
    "state.used_utilization": (
        "repro.cluster.state:ClusterState.used_utilization",
    ),
    "state.anti_affinity_violations": (
        "repro.cluster.state:ClusterState.anti_affinity_violations",
    ),
    "scheduler.schedule": ("repro.core.scheduler:AladdinScheduler.schedule",),
    "feascache.query": (
        "repro.core.feascache:FeasibilityCache.feasible_mask",
        "repro.core.feascache:FeasibilityCache.dominance_mask",
    ),
    "machindex.sync": ("repro.core.machindex:MachineIndex.sync",),
    "machindex.candidates": ("repro.core.machindex:MachineIndex.candidates",),
    "batchkernel.block_plan": ("repro.core.batchkernel:block_plan",),
    "rescue.plan": ("repro.core.migration:RescuePlanner.rescue",),
}


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[list] = []
        self._lock = threading.Lock()
        #: span names with a target that could not be resolved
        self.absent: list[str] = []

    def _ctx(self):
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            ctx = self._local.ctx = ([], [])  # (spans, open-span stack)
            with self._lock:
                self._threads.append(ctx[0])
        return ctx

    def _open(self):
        """Push a span on this thread's stack; ``(spans, stack, index,
        parent, start)`` for :meth:`_close`."""
        spans, stack = self._ctx()
        index = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        return spans, stack, index, parent, time.monotonic()

    @staticmethod
    def _close(opened, name: str, request_id=None) -> None:
        end = time.monotonic()
        spans, stack, index, parent, start = opened
        stack.pop()
        spans[index] = (name, start, end, parent, request_id)

    @contextmanager
    def span(self, name: str):
        """Record one span around the block (the benchmark's own calls)."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    def wrap(self, name: str, fn, label=None):
        """A timing wrapper around ``fn`` recording spans named ``name``.

        ``label(args, kwargs, result)``, when given, runs after the span
        is closed and becomes its request id.  No context manager here:
        these wrappers sit on the program's hottest calls.
        """
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            opened = open_span()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close_span(opened, name)
                raise
            close_span(opened, name)
            if label is not None:
                spans, _stack, index, *_ = opened
                spans[index] = spans[index][:4] + (label(args, kwargs, result),)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def threads(self) -> list[list]:
        """One span list per recording thread; a span still open is
        ``None`` (indexes stay valid as parents)."""
        with self._lock:
            return [list(spans) for spans in self._threads]


def summarize(threads, since: float = 0.0, until: float = float("inf")) -> dict:
    """``name -> {count, total_s, self_s}`` over the spans that started
    inside ``[since, until]``."""
    out: dict[str, dict] = {}
    for spans in threads:
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for span, child_s in zip(spans, covered):
            if span is None or not since <= span[1] <= until:
                continue
            row = out.setdefault(
                span[0], {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += span[2] - span[1]
            row["self_s"] += span[2] - span[1] - child_s
    return out


def spans_named(threads, name: str, since: float = 0.0,
                until: float = float("inf")) -> list:
    """Closed spans called ``name`` that started inside ``[since,
    until]``, in recording order per thread."""
    return [
        s for spans in threads for s in spans
        if s is not None and s[0] == name and since <= s[1] <= until
    ]


def _resolve(target: str):
    """``(owner, attr, original)`` for a ``module:dotted.attr`` target."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


#: a rescue span is labelled 1 when the attempt freed a machine, else 0
_LABELS = {"rescue.plan": lambda _args, _kwargs, outcome: int(outcome.ok)}


def install(tracer: Tracer, labels: dict | None = None) -> None:
    """Wrap every resolvable :data:`TARGETS` entry (``labels``: span name
    -> :meth:`Tracer.wrap` label, on top of the built-in ones).

    Functions imported by name elsewhere (``from x import f``) are
    rebound in every loaded ``repro`` / benchmark module holding them.
    """
    labels = {**_LABELS, **(labels or {})}
    for name, specs in TARGETS.items():
        for spec in specs:
            try:
                owner, attr, original = _resolve(spec)
            except (ImportError, AttributeError):
                tracer.absent.append(name)
                continue
            traced = tracer.wrap(name, original, labels.get(name))
            setattr(owner, attr, traced)
            if isinstance(owner, type):
                continue
            for module in list(sys.modules.values()):
                module_name = getattr(module, "__name__", "")
                if not module_name.startswith(("repro", "benchmarks.e2e")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)


def span(tracer: Tracer | None, name: str):
    """``tracer.span(name)``, or a no-op block when the run is untraced."""
    return tracer.span(name) if tracer is not None else nullcontext()
