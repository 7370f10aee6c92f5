"""SIERRA's core pipeline: actions, harnesses, SHBG, races, refutation."""

from repro.core.accesses import Access, Location, READ, WRITE, accesses_by_location, collect_accesses
from repro.core.actions import Action, ActionKind, Affinity
from repro.core.detector import Sierra, SierraOptions, SierraResult, analyze_apk
from repro.core.extract import ActionExtractor, Extraction, extract_actions
from repro.core.harness import HarnessGenerator, HarnessModel, HarnessSite, NONDET, generate_harnesses
from repro.core.hb import FIFO_POST_APIS, HBBuilder, HBEdge, SHBG, build_shbg
from repro.core.prioritize import is_benign_guard, rank_races
from repro.core.provenance import (
    RaceProvenance,
    attach_provenance,
    build_provenance,
    render_evidence_tree,
)
from repro.core.races import DATA_RACE, EVENT_RACE, RacyPair, find_racy_pairs, racy_pair_stats
from repro.core.refute import RefutationEngine, RefutationResult, RefutationSummary, WorkerPoolError
from repro.core.report import RaceReport, SierraReport, format_table, median

__all__ = [
    "Access",
    "Action",
    "ActionExtractor",
    "ActionKind",
    "Affinity",
    "DATA_RACE",
    "EVENT_RACE",
    "Extraction",
    "FIFO_POST_APIS",
    "HBBuilder",
    "HBEdge",
    "HarnessGenerator",
    "HarnessModel",
    "HarnessSite",
    "Location",
    "NONDET",
    "READ",
    "RaceProvenance",
    "RaceReport",
    "RacyPair",
    "RefutationEngine",
    "RefutationResult",
    "RefutationSummary",
    "SHBG",
    "Sierra",
    "SierraOptions",
    "SierraReport",
    "SierraResult",
    "WRITE",
    "WorkerPoolError",
    "accesses_by_location",
    "analyze_apk",
    "attach_provenance",
    "build_provenance",
    "build_shbg",
    "collect_accesses",
    "extract_actions",
    "find_racy_pairs",
    "format_table",
    "generate_harnesses",
    "is_benign_guard",
    "median",
    "racy_pair_stats",
    "rank_races",
    "render_evidence_tree",
]
