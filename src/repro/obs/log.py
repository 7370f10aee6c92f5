"""Structured event log: stdlib ``logging`` with JSON lines + correlation.

The serving path needs a *log stream*, not just metrics: an operator
tailing the daemon must be able to reconstruct one job's whole
lifecycle (submitted → claimed → done/failed) from the stream alone.
Every record this module emits therefore carries correlation fields —

* ``pid`` — always (fork workers log into the same stream);
* ``span_id`` — when a tracing span is open
  (:func:`repro.obs.diagnostics.current_span_id`), so a log line joins
  the same tree the Chrome trace exports;
* whatever the enclosing code has **bound**: ``run_id``, ``job_id``,
  ``app``, ``worker`` — see :func:`bind`. Bindings live in a
  ``contextvars.ContextVar``, so they are per-thread (each serve worker
  thread binds its own job) and survive ``fork()`` into the analysis
  child, which is exactly what stamps detector-stage lines with the job
  that forked them.

Configuration is one call — :func:`configure` — driven by the CLI's
``--log-level`` / ``--log-json`` flags or the ``REPRO_LOG_LEVEL`` /
``REPRO_LOG_JSON`` environment variables (the env reaches forked corpus
workers and subprocess tests for free). Unconfigured, the logger stays
silent (a ``NullHandler``): the detector is also a library, and a
library must not spray a host application's stderr.

Fork safety follows the metrics registry's pattern: a multithreaded
parent may fork while some thread holds the handler's I/O lock, so an
``os.register_at_fork`` hook rebuilds the handler (fresh lock, same
stream) in the child. Children also re-emit nothing retroactively —
the stream is append-only per process.

When logging is configured, an obs-hook bridge mirrors the diagnostics
bus into the stream: root-span (stage) ends become DEBUG lines with their
wall-clock seconds, ``warning``/``degraded`` events become WARNING
lines — the detector stages log without knowing this module exists.
"""

from __future__ import annotations

import contextvars
import json
import logging
import os
import sys
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from typing import Dict, Iterator, Optional, TextIO

from repro.obs import diagnostics

#: environment fallbacks (the CLI flags win)
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"
LOG_JSON_ENV = "REPRO_LOG_JSON"

#: every repro logger hangs off this root
ROOT_LOGGER_NAME = "repro"

# unconfigured, the logger must stay silent: without this, stdlib
# logging's lastResort handler would spray WARNING-level events (e.g.
# a failed serve job) onto a host application's stderr
logging.getLogger(ROOT_LOGGER_NAME).addHandler(logging.NullHandler())

_LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
}

#: contextvar of bound correlation fields ({} when nothing is bound);
#: per-thread in the daemon, copied into forked analysis children
_bound: contextvars.ContextVar[Optional[Dict[str, object]]] = contextvars.ContextVar(
    "repro_log_bound", default=None
)


def parse_level(name: str) -> int:
    """``"debug" | "info" | "warning" | "error"`` → stdlib level int."""
    try:
        return _LEVELS[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown log level {name!r} (takes {', '.join(sorted(_LEVELS))})"
        ) from None


def bound_fields() -> Dict[str, object]:
    """The correlation fields currently bound in this context."""
    fields = _bound.get()
    return dict(fields) if fields else {}


@contextmanager
def bind(**fields: object) -> Iterator[None]:
    """Bind correlation fields for the dynamic extent of the block.

    Nested binds overlay (inner wins on key collisions); ``None`` values
    are dropped. Every record emitted inside the block — including from
    a child process forked inside it — carries the merged fields.

    >>> with bind(job_id=job.job_id, app=job.app):
    ...     run_the_analysis()   # all its log lines carry job_id + app
    """
    merged = bound_fields()
    merged.update({k: v for k, v in fields.items() if v is not None})
    token = _bound.set(merged)
    try:
        yield
    finally:
        _bound.reset(token)


class JsonFormatter(logging.Formatter):
    """One JSON object per line: ``ts``/``level``/``logger``/``event``
    plus pid, open span id, bound context, and per-record fields."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, object] = {
            "ts": datetime.fromtimestamp(record.created, timezone.utc).isoformat(
                timespec="milliseconds"
            ),
            "level": record.levelname,
            "logger": record.name,
            "event": record.getMessage(),
            "pid": record.process,
        }
        span_id = diagnostics.current_span_id()
        if span_id is not None:
            payload["span_id"] = span_id
        payload.update(bound_fields())
        payload.update(getattr(record, "repro_fields", {}))
        if record.exc_info and record.exc_info[0] is not None:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=repr)


class TextFormatter(logging.Formatter):
    """Human-shaped fallback: timestamp, level, event, ``k=v`` fields."""

    def format(self, record: logging.LogRecord) -> str:
        fields = bound_fields()
        fields.update(getattr(record, "repro_fields", {}))
        span_id = diagnostics.current_span_id()
        if span_id is not None:
            fields.setdefault("span_id", span_id)
        stamp = datetime.fromtimestamp(record.created, timezone.utc).strftime(
            "%H:%M:%S.%f"
        )[:-3]
        suffix = "".join(
            f" {key}={fields[key]}" for key in sorted(fields)
        )
        line = f"{stamp} {record.levelname:<7} {record.name} {record.getMessage()}{suffix}"
        if record.exc_info and record.exc_info[0] is not None:
            line += "\n" + self.formatException(record.exc_info)
        return line


# -- configuration ------------------------------------------------------
_state_lock = threading.Lock()
_handler: Optional[logging.Handler] = None
_bridge_installed = False


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro`` root (``get_logger("serve.worker")``
    → ``repro.serve.worker``); plain :mod:`logging` loggers, so host
    applications can attach their own handlers instead of ours."""
    if not name:
        return logging.getLogger(ROOT_LOGGER_NAME)
    if name.startswith(ROOT_LOGGER_NAME + ".") or name == ROOT_LOGGER_NAME:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER_NAME}.{name}")


def event(
    logger: logging.Logger, name: str, level: int = logging.INFO, **fields: object
) -> None:
    """Emit one structured event: ``name`` is the machine-matchable
    ``event`` field, ``fields`` land as first-class JSON keys."""
    if logger.isEnabledFor(level):
        logger.log(
            level, name, extra={"repro_fields": {k: v for k, v in fields.items() if v is not None}}
        )


def configure(
    level: Optional[str] = None,
    json_mode: Optional[bool] = None,
    stream: Optional[TextIO] = None,
) -> Optional[logging.Handler]:
    """Install (or replace) the repro log handler.

    ``level``/``json_mode`` fall back to ``REPRO_LOG_LEVEL`` /
    ``REPRO_LOG_JSON``; when *neither* flag nor env asks for logging,
    this is a no-op and the logger stays silent. ``REPRO_LOG_JSON``
    alone implies level ``info``. Returns the installed handler (tests
    pass an explicit ``stream`` and read it back).
    """
    env_level = os.environ.get(LOG_LEVEL_ENV, "").strip()
    env_json = os.environ.get(LOG_JSON_ENV, "").strip().lower()
    if json_mode is None:
        json_mode = env_json in ("1", "true", "yes", "on") if env_json else None
    if level is None and env_level:
        level = env_level
    if level is not None and level.strip().lower() in ("off", "none"):
        return None  # explicit silence beats REPRO_LOG_JSON implying info
    if level is None and json_mode:
        level = "info"
    if level is None:
        return None
    level_no = parse_level(level)

    handler = logging.StreamHandler(stream or sys.stderr)
    handler.setFormatter(JsonFormatter() if json_mode else TextFormatter())

    global _handler
    with _state_lock:
        root = logging.getLogger(ROOT_LOGGER_NAME)
        if _handler is not None:
            root.removeHandler(_handler)
        root.addHandler(handler)
        root.setLevel(level_no)
        root.propagate = False
        _handler = handler
        _install_bridge()
    return handler


def unconfigure() -> None:
    """Remove the repro handler and the obs bridge (test teardown)."""
    global _handler
    with _state_lock:
        root = logging.getLogger(ROOT_LOGGER_NAME)
        if _handler is not None:
            root.removeHandler(_handler)
            _handler = None
        _remove_bridge()
        if not root.handlers:
            root.addHandler(logging.NullHandler())


# -- obs-bus bridge ------------------------------------------------------
_bridge_logger = logging.getLogger(f"{ROOT_LOGGER_NAME}.stage")


def _bridge_hook(ev: diagnostics.RunEvent) -> None:
    """Mirror diagnostics events into the log stream.

    Root spans (the stages) log their end at DEBUG (a handful per app),
    nested spans are skipped entirely (a refutation pass emits
    thousands; the trace exporter is the right consumer), anomalies log
    at WARNING — the one severity an operator must see.
    """
    if ev.kind == diagnostics.SPAN_END and ev.parent_id is None:
        if _bridge_logger.isEnabledFor(logging.DEBUG):
            event(
                _bridge_logger,
                "stage.end",
                level=logging.DEBUG,
                stage=ev.stage,
                seconds=round(ev.seconds, 4) if ev.seconds is not None else None,
            )
    elif ev.kind in (diagnostics.WARNING, diagnostics.DEGRADED):
        event(
            _bridge_logger,
            "stage.warning" if ev.kind == diagnostics.WARNING else "stage.degraded",
            level=logging.WARNING,
            stage=ev.stage,
            message=ev.message,
        )


def _install_bridge() -> None:
    global _bridge_installed
    if not _bridge_installed:
        diagnostics.add_hook(_bridge_hook)
        _bridge_installed = True


def _remove_bridge() -> None:
    global _bridge_installed
    if _bridge_installed:
        _bridge_installed = False
        diagnostics.remove_hook(_bridge_hook)


# fork safety, same reasoning as the metrics registry: the parent may
# fork while another thread holds the handler's I/O lock, and the child
# would inherit it locked forever. Rebuild the handler around the same
# stream in the child — fresh lock, uninterrupted stream.
def _reattach_after_fork() -> None:  # pragma: no cover — exercised via serve e2e
    global _handler
    if _handler is None:
        return
    old = _handler
    rebuilt = logging.StreamHandler(old.stream)  # type: ignore[attr-defined]
    rebuilt.setFormatter(old.formatter)
    root = logging.getLogger(ROOT_LOGGER_NAME)
    root.removeHandler(old)
    root.addHandler(rebuilt)
    _handler = rebuilt


if hasattr(os, "register_at_fork"):  # pragma: no branch — POSIX containers
    os.register_at_fork(after_in_child=_reattach_after_fork)
