"""SIERRA reproduction: static detection of event-based races in Android apps.

Public API tour
---------------

Build or load an app::

    from repro.corpus import build_newsreader_app
    apk = build_newsreader_app()

Run the detector::

    from repro import Sierra, SierraOptions
    result = Sierra(SierraOptions(compare_without_as=True)).analyze(apk)
    for report in result.report.reports:
        print(report.describe())

Compare against the dynamic baseline::

    from repro.dynamic import run_eventracer
    print(run_eventracer(apk).race_count)

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import importlib

__version__ = "1.0.0"

#: the engine loads on first access (module-level ``__getattr__``), so
#: ``python -m repro`` imports it only after ``repro/__main__.py`` has
#: set the process's garbage-collection policy
_LAZY_NAMES = {
    "Sierra": "core.detector",
    "SierraOptions": "core.detector",
    "SierraResult": "core.detector",
    "analyze_apk": "core.detector",
    "RaceReport": "core.report",
    "SierraReport": "core.report",
}

__all__ = [
    "RaceReport",
    "Sierra",
    "SierraOptions",
    "SierraReport",
    "SierraResult",
    "analyze_apk",
    "__version__",
]


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        module = importlib.import_module(f"{__name__}.{_LAZY_NAMES[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
