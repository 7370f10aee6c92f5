"""Output checks: race fields against the synthesizer's ground truth, and
cache hits against the cold result of the same app.

The truth comes from :class:`repro.corpus.GroundTruth`, which the app
generator writes while it plants races; it does not depend on the
detector. Scoring is micro-averaged over apps: every planted true race
counts once toward recall, every reported field once toward precision.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence


@dataclass
class Score:
    expected: int = 0  # planted true race fields
    detected: int = 0  # distinct fields the program reported
    found: int = 0  # reported fields that are planted true races

    def add(self, true_fields: Iterable[str], reported_fields: Iterable[str]) -> None:
        truth = set(true_fields)
        reported = set(reported_fields)
        self.expected += len(truth)
        self.detected += len(reported)
        self.found += len(truth & reported)

    @property
    def recall(self) -> float:
        return self.found / self.expected if self.expected else 1.0

    @property
    def precision(self) -> float:
        return self.found / self.detected if self.detected else 1.0


def truth_for(name: str) -> frozenset:
    """The planted true race fields of any corpus app name the CLI takes."""
    from repro.corpus import synthesize_app, twenty_app_specs
    from repro.corpus.families import synthesize_family_app

    if name.startswith("family:"):
        return synthesize_family_app(name)[1].true_fields()
    if name.startswith("paper:"):
        wanted = name[len("paper:"):].replace("_", " ").lower()
        for spec in twenty_app_specs():
            if spec.name.lower() == wanted:
                return synthesize_app(spec)[1].true_fields()
    raise ValueError(f"no ground truth for {name!r}")


def report_races(report: Dict[str, object]) -> List[Dict[str, str]]:
    """``[{"field", "fingerprint"}]`` from a ``repro analyze --json``
    report; raises ``ValueError`` when the report is malformed."""
    races = report.get("reports")
    if not isinstance(races, list):
        raise ValueError("report has no 'reports' list")
    out = []
    for race in races:
        if not isinstance(race, dict) or not isinstance(race.get("field"), str):
            raise ValueError("race entry without a 'field'")
        out.append({"field": race["field"], "fingerprint": str(race.get("fingerprint"))})
    return out


def fingerprints(races: Sequence[Dict[str, object]]) -> frozenset:
    return frozenset(str(r["fingerprint"]) for r in races)


@dataclass
class HitCheck:
    """Cache hits must report exactly the races the cold run reported."""

    cold: Dict[str, frozenset] = field(default_factory=dict)
    compared: int = 0
    mismatches: List[str] = field(default_factory=list)

    def record_cold(self, app: str, races: Sequence[Dict[str, object]]) -> None:
        self.cold[app] = fingerprints(races)

    def check_hit(self, app: str, races: Sequence[Dict[str, object]]) -> None:
        if app not in self.cold:
            raise KeyError(f"no cold result for cache hit {app!r}")
        self.compared += 1
        if fingerprints(races) != self.cold[app]:
            self.mismatches.append(app)
