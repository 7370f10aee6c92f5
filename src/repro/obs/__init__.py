"""Observability: spans, metrics, trace export, and the run-history stack.

:func:`span` is the one timing primitive (the Table 4 stages are its root
spans). See :mod:`repro.obs.diagnostics` (span/hook bus),
:mod:`repro.obs.metrics` (typed counter/gauge/histogram registry),
:mod:`repro.obs.tracing` (Chrome trace-event export),
:mod:`repro.obs.history` (append-only sqlite run ledger),
:mod:`repro.obs.diffing` (differential run analysis / ``repro diff``),
:mod:`repro.obs.log` (structured JSON event log),
:mod:`repro.obs.telemetry` (Prometheus exposition, ring-buffer sampler,
SLO watchdog), and ``docs/observability.md``.

Only the modules the analysis engine uses (diagnostics, metrics, profile,
log) load with the package; the rest, and the names they export, load on
first access through the module-level ``__getattr__``.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional

from repro.obs import log, metrics, profile
from repro.obs.diagnostics import (
    DEGRADED,
    Recorder,
    RunEvent,
    SPAN_END,
    SPAN_START,
    Span,
    WARNING,
    add_hook,
    emit,
    emit_degraded,
    emit_warning,
    reemit,
    remove_hook,
    span,
)

#: submodules the analysis engine never needs: imported on first access
_LAZY_MODULES = frozenset({"diffing", "history", "telemetry", "tracing"})

#: names re-exported from a lazily imported submodule
_LAZY_NAMES = {
    "chrome_trace": "tracing",
    "validate_chrome_trace": "tracing",
    "validate_trace_file": "tracing",
}

#: environment variable naming the default run-history ledger
HISTORY_ENV = "REPRO_HISTORY"


def history_path_from_env(explicit: Optional[str] = None) -> Optional[str]:
    """Resolve the ledger path: explicit flag first, then ``REPRO_HISTORY``.

    Lives here rather than in :mod:`repro.obs.history` so reading the
    variable does not import the sqlite-backed ledger."""
    if explicit:
        return explicit
    return os.environ.get(HISTORY_ENV) or None


def __getattr__(name: str):
    if name in _LAZY_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY_NAMES:
        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEGRADED",
    "Recorder",
    "RunEvent",
    "SPAN_END",
    "SPAN_START",
    "Span",
    "WARNING",
    "add_hook",
    "chrome_trace",
    "diffing",
    "emit",
    "emit_degraded",
    "emit_warning",
    "history",
    "log",
    "metrics",
    "profile",
    "reemit",
    "remove_hook",
    "span",
    "telemetry",
    "tracing",
    "validate_chrome_trace",
    "validate_trace_file",
]
