"""App corpus: figure apps, the 20-app Table 2/3 stand-ins, and the
174-app F-Droid-style population — all synthetic and seed-stable.

The batch driver, its sharded scheduler and the seeded family generator
load on first access (module-level ``__getattr__``): analysing one app
needs none of them.
"""

import importlib

from repro.corpus.apps import (
    build_newsreader_app,
    build_opensudoku_app,
    build_quickstart_app,
    build_receiver_app,
)
from repro.corpus.fdroid import (
    FDROID_APP_COUNT,
    fdroid_spec,
    fdroid_specs,
    generate_fdroid_corpus,
)
from repro.corpus.specs import (
    FDROID_PAPER_MEDIANS,
    PaperAppRow,
    SynthSpec,
    TWENTY_APPS,
    TWENTY_PAPER_MEDIANS,
    estimated_actions,
    spec_for_paper_app,
    twenty_app_specs,
)
from repro.corpus.synth import (
    AppSynthesizer,
    ELIMINATED_CATEGORIES,
    GROUND_TRUTH_PREFIXES,
    GroundTruth,
    TRUE_CATEGORIES,
    classify_field,
    classify_report_field,
    synthesize_app,
)

#: lazily imported name -> the submodule that defines it
_LAZY_NAMES = {
    **dict.fromkeys(
        ("AppRunRecord", "DEFAULT_TIMEOUT_S", "RunReport", "default_corpus", "run_corpus"),
        "driver",
    ),
    **dict.fromkeys(
        (
            "FAMILY_NAMES",
            "aggregate_scores",
            "corpus_manifest",
            "estimate_cost",
            "family_spec",
            "is_family_name",
            "parse_family_name",
            "score_detection",
            "seeded_corpus",
            "synthesize_family_app",
        ),
        "families",
    ),
    **dict.fromkeys(("ProgressLine", "WorkItem", "WorkPlan", "core_budget"), "scheduler"),
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AppRunRecord",
    "AppSynthesizer",
    "DEFAULT_TIMEOUT_S",
    "ELIMINATED_CATEGORIES",
    "FAMILY_NAMES",
    "FDROID_APP_COUNT",
    "FDROID_PAPER_MEDIANS",
    "GROUND_TRUTH_PREFIXES",
    "GroundTruth",
    "PaperAppRow",
    "ProgressLine",
    "RunReport",
    "SynthSpec",
    "TRUE_CATEGORIES",
    "TWENTY_APPS",
    "TWENTY_PAPER_MEDIANS",
    "WorkItem",
    "WorkPlan",
    "aggregate_scores",
    "build_newsreader_app",
    "build_opensudoku_app",
    "build_quickstart_app",
    "build_receiver_app",
    "classify_field",
    "classify_report_field",
    "core_budget",
    "corpus_manifest",
    "default_corpus",
    "estimate_cost",
    "estimated_actions",
    "family_spec",
    "fdroid_spec",
    "fdroid_specs",
    "generate_fdroid_corpus",
    "is_family_name",
    "parse_family_name",
    "run_corpus",
    "score_detection",
    "seeded_corpus",
    "spec_for_paper_app",
    "synthesize_app",
    "synthesize_family_app",
    "twenty_app_specs",
]
