"""Every execution mode reproduces the serial cold run, over the full corpus.

Tier-1 runs the differential matrix of ``tests/test_modes.py`` over the
effort gate's eight apps plus four small family apps, which keeps it
cheap. Here the same app-set legs (parallel refutation, warm cache,
sharded batch, serve) run over all 20 paper apps plus one size-1 app of
every family, so K-9 Mail and the other large stand-ins are checked in
every mode too. The incremental leg resumes one mutated app and stays in
tier-1 only.
"""

from __future__ import annotations

import pytest

from repro.corpus import TWENTY_APPS
from repro.corpus.families import FAMILY_NAMES
from tests.test_modes import LEGS, serial_leg

APPS = [f"paper:{row.name}" for row in TWENTY_APPS] + [
    f"family:{family}:1:1" for family in FAMILY_NAMES
]


@pytest.fixture(scope="module")
def baseline():
    return serial_leg(APPS)


@pytest.mark.parametrize("mode", list(LEGS))
def test_mode_matches_serial(mode, baseline, tmp_path):
    LEGS[mode](APPS, baseline, tmp_path)
