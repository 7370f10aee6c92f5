"""Shared fixtures: figure apps and cached pipeline results.

Pipeline runs are session-scoped — the analyses are deterministic and
read-only once built, so every test file can share one result per app.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.core import Sierra, SierraOptions
from repro.corpus import (
    SynthSpec,
    build_newsreader_app,
    build_opensudoku_app,
    build_quickstart_app,
    build_receiver_app,
    synthesize_app,
)


@pytest.fixture(scope="session")
def quickstart_apk():
    return build_quickstart_app()


@pytest.fixture(scope="session")
def newsreader_apk():
    return build_newsreader_app()


@pytest.fixture(scope="session")
def receiver_apk():
    return build_receiver_app()


@pytest.fixture(scope="session")
def opensudoku_apk():
    return build_opensudoku_app()


@pytest.fixture(scope="session")
def quickstart_result(quickstart_apk):
    return Sierra(SierraOptions()).analyze(quickstart_apk)


@pytest.fixture(scope="session")
def newsreader_result(newsreader_apk):
    return Sierra(SierraOptions()).analyze(newsreader_apk)


@pytest.fixture(scope="session")
def receiver_result(receiver_apk):
    return Sierra(SierraOptions()).analyze(receiver_apk)


@pytest.fixture(scope="session")
def opensudoku_result(opensudoku_apk):
    return Sierra(SierraOptions()).analyze(opensudoku_apk)


@pytest.fixture(scope="session")
def small_synth():
    """A compact synthetic app exercising every idiom once."""
    spec = SynthSpec(
        name="small",
        seed=42,
        activities=2,
        evrace=1,
        bgrace=1,
        guard=1,
        nullguard=1,
        ordered=1,
        factory=1,
        implicit=1,
        receivers=1,
        services=1,
        extra_gui=2,
    )
    return synthesize_app(spec)


@pytest.fixture(scope="session")
def small_synth_result(small_synth):
    apk, _truth = small_synth
    return Sierra(SierraOptions(compare_without_as=True)).analyze(apk)


@pytest.fixture
def no_fork(monkeypatch):
    """A platform whose multiprocessing has no ``fork`` start method."""
    real = multiprocessing.get_context

    def get_context(method=None):
        if method == "fork":
            raise ValueError("cannot find context for 'fork'")
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", get_context)
