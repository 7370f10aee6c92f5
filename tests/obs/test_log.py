"""Tests for :mod:`repro.obs.log`: JSON event lines, correlation-field
binding, env-driven configuration, and the obs-bus bridge."""

from __future__ import annotations

import io
import json
import logging
import os

import pytest

from repro import obs
from repro.obs import log as obs_log


@pytest.fixture(autouse=True)
def _clean_logging():
    yield
    obs_log.unconfigure()


def _configure_json(level="debug"):
    stream = io.StringIO()
    handler = obs_log.configure(level=level, json_mode=True, stream=stream)
    assert handler is not None
    return stream


def _lines(stream):
    return [json.loads(line) for line in stream.getvalue().splitlines()]


# ----------------------------------------------------------------------
# formatting + correlation
# ----------------------------------------------------------------------
def test_json_lines_carry_event_fields_and_pid():
    stream = _configure_json()
    log = obs_log.get_logger("test.unit")
    obs_log.event(log, "thing.happened", count=3, status="ok", skipme=None)
    (line,) = _lines(stream)
    assert line["event"] == "thing.happened"
    assert line["level"] == "INFO"
    assert line["logger"] == "repro.test.unit"
    assert line["count"] == 3
    assert line["status"] == "ok"
    assert line["pid"] == os.getpid()
    assert "skipme" not in line  # None fields are dropped
    assert line["ts"].endswith("+00:00")


def test_bind_nests_and_restores():
    stream = _configure_json()
    log = obs_log.get_logger("test.bind")
    with obs_log.bind(job_id="j1", app="quickstart"):
        obs_log.event(log, "outer")
        with obs_log.bind(app="newsreader", worker="w0"):
            obs_log.event(log, "inner")
        obs_log.event(log, "outer.again")
    obs_log.event(log, "unbound")
    outer, inner, again, unbound = _lines(stream)
    assert (outer["job_id"], outer["app"]) == ("j1", "quickstart")
    assert (inner["job_id"], inner["app"], inner["worker"]) == (
        "j1", "newsreader", "w0",
    )
    assert again["app"] == "quickstart" and "worker" not in again
    assert "job_id" not in unbound and "app" not in unbound


def test_span_id_stamped_inside_open_span():
    # info: a root span's end is a DEBUG stage.end line (bridge tests below)
    stream = _configure_json(level="info")
    log = obs_log.get_logger("test.span")
    with obs.span("refute-one"):
        obs_log.event(log, "inside")
    obs_log.event(log, "outside")
    inside, outside = _lines(stream)
    assert inside["span_id"]
    assert "span_id" not in outside


def test_level_filtering():
    stream = _configure_json(level="warning")
    log = obs_log.get_logger("test.levels")
    obs_log.event(log, "quiet", level=logging.INFO)
    obs_log.event(log, "loud", level=logging.WARNING)
    (line,) = _lines(stream)
    assert line["event"] == "loud"


def test_text_mode_renders_fields():
    stream = io.StringIO()
    obs_log.configure(level="info", json_mode=False, stream=stream)
    log = obs_log.get_logger("test.text")
    with obs_log.bind(job_id="j9"):
        obs_log.event(log, "did.thing", n=2)
    out = stream.getvalue()
    assert "did.thing" in out and "job_id=j9" in out and "n=2" in out


def test_exception_lands_in_the_record():
    stream = _configure_json()
    log = obs_log.get_logger("test.exc")
    try:
        raise ValueError("boom")
    except ValueError:
        log.exception("it broke")
    (line,) = _lines(stream)
    assert line["event"] == "it broke"
    assert "ValueError: boom" in line["exc"]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
def test_unconfigured_is_silent_no_op():
    assert obs_log.configure() is None  # nothing asked for logging


def test_env_configures(monkeypatch):
    monkeypatch.setenv(obs_log.LOG_LEVEL_ENV, "debug")
    stream = io.StringIO()
    handler = obs_log.configure(stream=stream)
    assert handler is not None
    obs_log.event(obs_log.get_logger("test.env"), "hi", level=logging.DEBUG)
    assert "hi" in stream.getvalue()


def test_env_json_alone_implies_info(monkeypatch):
    monkeypatch.setenv(obs_log.LOG_JSON_ENV, "1")
    stream = io.StringIO()
    assert obs_log.configure(stream=stream) is not None
    obs_log.event(obs_log.get_logger("test.envjson"), "structured")
    (line,) = _lines(stream)
    assert line["event"] == "structured"


def test_explicit_off_beats_env(monkeypatch):
    monkeypatch.setenv(obs_log.LOG_LEVEL_ENV, "debug")
    assert obs_log.configure(level="off") is None


def test_bad_level_raises():
    with pytest.raises(ValueError, match="unknown log level"):
        obs_log.configure(level="chatty")


def test_reconfigure_replaces_handler():
    first = io.StringIO()
    second = io.StringIO()
    obs_log.configure(level="info", json_mode=True, stream=first)
    obs_log.configure(level="info", json_mode=True, stream=second)
    obs_log.event(obs_log.get_logger("test.re"), "once")
    assert first.getvalue() == ""
    assert len(_lines(second)) == 1


# ----------------------------------------------------------------------
# the obs-bus bridge
# ----------------------------------------------------------------------
def test_bridge_mirrors_stage_and_warning_events():
    stream = _configure_json(level="debug")
    with obs.span("hbg"):  # a stage is a root span
        pass
    obs.emit_warning("pool fell back to serial", stage="refutation")
    events = {line["event"]: line for line in _lines(stream)}
    assert events["stage.end"]["stage"] == "hbg"
    assert events["stage.end"]["level"] == "DEBUG"
    assert events["stage.warning"]["stage"] == "refutation"
    assert events["stage.warning"]["level"] == "WARNING"
    assert "serial" in events["stage.warning"]["message"]


def test_bridge_skips_spans_and_detaches_on_unconfigure():
    stream = _configure_json(level="debug")
    with obs.span("hbg"):
        with obs.span("tiny"):
            pass
    ends = [l["stage"] for l in _lines(stream) if l["event"] == "stage.end"]
    assert ends == ["hbg"]  # the nested span logs nothing

    obs_log.unconfigure()
    before = stream.getvalue()
    with obs.span("after-teardown"):
        pass
    assert stream.getvalue() == before
