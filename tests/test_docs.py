"""The docs name only code that exists.

Every inline-code dotted name in the user docs that starts with
``repro.``, ``obs.``, ``metrics.`` or ``profile.`` (the last three read
as ``repro.obs.*``) must import and resolve attribute by attribute, and
every ``tests/<path>.py::Name`` reference must point at a file that
defines that ``def`` or ``class``, and every ``repro <command>`` in inline
code or in a fenced command line must name a subcommand of
:func:`repro.cli.build_parser`. A rename or a deletion that leaves a doc
behind fails here instead of misleading the next reader.
"""

from __future__ import annotations

import argparse
import glob
import importlib
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DOCS = sorted(
    glob.glob(os.path.join(ROOT, "docs", "*.md"))
    + [
        os.path.join(ROOT, "README.md"),
        os.path.join(ROOT, ".claude", "skills", "verify", "SKILL.md"),
    ]
)

_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_INLINE_CODE = re.compile(r"`([^`]+)`")
_DOTTED = re.compile(r"(?<![\w.])(repro|obs|metrics|profile)((?:\.[A-Za-z_]\w*)+)")
#: how each prefix reads as a full module path
_PREFIX = {
    "repro": "repro",
    "obs": "repro.obs",
    "metrics": "repro.obs.metrics",
    "profile": "repro.obs.profile",
}
_TEST_REF = re.compile(r"(tests/[\w/]+\.py)((?:::\w+)+)")
#: ``repro COMMAND`` as a shell word (``python -m repro COMMAND``, ``$
#: repro COMMAND``), after the global ``--log-level LEVEL``/``--log-json``
_COMMAND = re.compile(
    r"(?:^|(?<=[\s(]))repro\s+(?:(?:--log-level\s+\S+|--log-json)\s+)*([\w-]+)",
    re.M,
)
#: Python imports in fenced examples read like a command to _COMMAND
_PYTHON_IMPORT = re.compile(r"^\s*from repro import .*$", re.M)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _dotted_names():
    """``(doc, dotted name)`` for every dotted name with one of the four
    prefixes inside inline code, fenced code blocks excluded."""
    found = set()
    for path in DOCS:
        if not os.path.exists(path):
            continue
        text = _FENCE.sub("", _read(path))
        for span in _INLINE_CODE.findall(text):
            for head, rest in _DOTTED.findall(span):
                found.add((os.path.relpath(path, ROOT), _PREFIX[head] + rest))
    return sorted(found)


def _test_refs():
    found = set()
    for path in DOCS:
        if os.path.exists(path):
            for file, names in _TEST_REF.findall(_read(path)):
                found.add((os.path.relpath(path, ROOT), file, names))
    return sorted(found)


def _commands():
    """``(doc, subcommand)`` for every ``repro`` command line: inline code
    spans, and fenced lines with their ``\\`` continuations joined."""
    found = set()
    for path in DOCS:
        if not os.path.exists(path):
            continue
        text = _read(path)
        spans = _INLINE_CODE.findall(_FENCE.sub("", text))
        blocks = [
            _PYTHON_IMPORT.sub("", block.replace("\\\n", " "))
            for block in _FENCE.findall(text)
        ]
        for code in spans + blocks:
            for name in _COMMAND.findall(code):
                found.add((os.path.relpath(path, ROOT), name))
    return sorted(found)


def _subcommands():
    from repro.cli import build_parser

    (action,) = [
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return set(action.choices)


def _resolve(dotted: str) -> object:
    """Import the longest importable prefix, then getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_the_scan_finds_references():
    # a scanner that silently matched nothing would pass every doc
    assert len(_dotted_names()) >= 20
    assert len(_test_refs()) >= 10
    assert len(_commands()) >= 30


def test_every_dotted_name_resolves():
    missing = []
    for doc, name in _dotted_names():
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{doc}: `{name}` ({exc})")
    assert missing == [], "docs name code that does not exist:\n" + "\n".join(missing)


def test_every_test_reference_is_defined():
    missing = []
    for doc, file, names in _test_refs():
        path = os.path.join(ROOT, file)
        source = _read(path) if os.path.exists(path) else ""
        for name in names.strip(":").split("::"):
            if not re.search(rf"^\s*(?:def|class)\s+{name}\b", source, re.M):
                missing.append(f"{doc}: {file}{names} ({name!r} not defined)")
    assert missing == [], "docs cite tests that do not exist:\n" + "\n".join(missing)


def test_every_command_names_a_subcommand():
    known = _subcommands()
    unknown = [
        f"{doc}: `repro {name}`" for doc, name in _commands() if name not in known
    ]
    assert unknown == [], "docs run repro subcommands that do not exist:\n" + (
        "\n".join(unknown)
    )
