"""Seeded app-family factory: parameterized corpora with known ground truth.

Single-app synthesis (:mod:`repro.corpus.synth`) scales here into *families*
— named generator profiles, each exercising one structural pattern of real
Android apps:

=============  ==============================================================
``mesh``       service-binding meshes: many ``bindService`` connections whose
               ``onServiceConnected`` callbacks race with GUI handlers
``storm``      broadcast storms: receiver-heavy apps (Figure 2 at scale)
``lifecycle``  fragment/config-change churn: guard flags, null guards,
               GUI-vs-onStop pairs across many activities
``looper``     multi-Looper affinity: HandlerThread posts racing GUI writes,
               plus same-Looper FIFO sequences the HBG must order
``chain``      deep AsyncTask relays: onPostExecute chains whose tail write
               races a handler (stresses transitive HB closure)
=============  ==============================================================

An app is addressed as ``family:<family>:<size>:<seed>`` — fully
deterministic, so a worker process can regenerate it from the name alone
(nothing is pickled across the scheduler's pipes). ``size`` is a log-scale
knob: each step multiplies idiom density ~4x, spanning ~3 orders of
magnitude in analysis cost from size 0 to size 3.

Every generated app carries a :class:`~repro.corpus.synth.GroundTruth`
manifest; :func:`score_detection` turns detector output + manifest into
recall/precision, which the ``corpus_smoke`` tests gate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.corpus.specs import SynthSpec, estimated_actions
from repro.corpus.synth import GroundTruth, synthesize_app

FAMILY_NAMES: Tuple[str, ...] = ("mesh", "storm", "lifecycle", "looper", "chain")

#: size knob bounds (inclusive); 4**size idiom-density multiplier
MAX_SIZE = 4

_PREFIX = "family:"


def _scaled(base: float, scale: int, minimum: int = 1) -> int:
    return max(minimum, round(base * scale))


def family_spec(family: str, size: int = 0, seed: int = 0) -> SynthSpec:
    """The deterministic :class:`SynthSpec` for one family member.

    ``size`` ∈ [0, MAX_SIZE] multiplies idiom densities by ``4**size``;
    activities grow more slowly (cost per activity is itself superlinear).
    """
    if family not in FAMILY_NAMES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        )
    if not 0 <= size <= MAX_SIZE:
        raise ValueError(f"family size must be in [0, {MAX_SIZE}], got {size}")
    scale = 4**size
    name = f"family:{family}:{size}:{seed}"
    common = dict(
        name=name,
        seed=seed,
        evrace=0,
        bgrace=0,
        guard=0,
        nullguard=0,
        ordered=0,
        factory=0,
        implicit=0,
        receivers=0,
        services=0,
        category=f"family-{family}",
    )
    if family == "mesh":
        return SynthSpec(
            **common,
            activities=1 + size,
            binding=_scaled(2, scale),
            looper=0,
            extra_gui=_scaled(1, scale, 0),
        )
    if family == "storm":
        spec = dict(common)
        spec.update(receivers=_scaled(2, scale), services=_scaled(1, scale))
        return SynthSpec(
            **spec, activities=1 + size, extra_gui=_scaled(2, scale, 0)
        )
    if family == "lifecycle":
        spec = dict(common)
        spec.update(
            guard=_scaled(1, scale),
            nullguard=_scaled(1, scale),
            ordered=_scaled(1, scale),
        )
        return SynthSpec(
            **spec,
            activities=1 + 2 * size,
            uistop=_scaled(1, scale),
            extra_gui=_scaled(2, scale, 0),
        )
    if family == "looper":
        return SynthSpec(
            **common,
            activities=1 + size,
            looper=_scaled(2, scale),
            extra_gui=_scaled(1, scale, 0),
        )
    # chain
    spec = dict(common)
    spec.update(bgrace=_scaled(1, scale, 0) if size else 0)
    return SynthSpec(
        **spec,
        activities=1 + size,
        chains=_scaled(1, scale),
        chain_depth=2 + size,
    )


def family_app_name(family: str, size: int, seed: int) -> str:
    return family_spec(family, size, seed).name


def is_family_name(name: str) -> bool:
    return name.startswith(_PREFIX)


def parse_family_name(name: str) -> Tuple[str, int, int]:
    """``family:<family>:<size>:<seed>`` → (family, size, seed)."""
    if not is_family_name(name):
        raise ValueError(f"not a family app name: {name!r}")
    parts = name.split(":")
    if len(parts) != 4:
        raise ValueError(
            f"bad family app name {name!r}; expected family:<family>:<size>:<seed>"
        )
    _, family, size_s, seed_s = parts
    try:
        size, seed = int(size_s), int(seed_s)
    except ValueError:
        raise ValueError(f"bad family app name {name!r}: size/seed must be ints")
    if family not in FAMILY_NAMES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {', '.join(FAMILY_NAMES)}"
        )
    if not 0 <= size <= MAX_SIZE:
        raise ValueError(f"family size must be in [0, {MAX_SIZE}], got {size}")
    return family, size, seed


def synthesize_family_app(name: str):
    """(apk, ground_truth) for a ``family:...`` app name."""
    family, size, seed = parse_family_name(name)
    return synthesize_app(family_spec(family, size, seed))


def family_ground_truth(name: str) -> GroundTruth:
    return synthesize_family_app(name)[1]


# ----------------------------------------------------------------------
# corpus construction
# ----------------------------------------------------------------------

#: size histogram for seeded corpora — skewed small, like real app stores:
#: most apps are cheap, a thin tail dominates wall-clock.
_SIZE_WEIGHTS: Tuple[Tuple[int, int], ...] = ((0, 8), (1, 5), (2, 2), (3, 1))


def seeded_corpus(
    families: Optional[Sequence[str]] = None,
    count: int = 100,
    seed: int = 0,
    max_size: int = 2,
) -> List[str]:
    """A deterministic list of ``count`` family app names.

    Families rotate round-robin; sizes cycle a fixed small-skewed histogram
    (clamped to ``max_size``); per-app seeds derive from ``seed`` so two
    corpora with the same arguments are byte-identical.
    """
    chosen = tuple(families) if families else FAMILY_NAMES
    for fam in chosen:
        if fam not in FAMILY_NAMES:
            raise ValueError(
                f"unknown family {fam!r}; expected one of {', '.join(FAMILY_NAMES)}"
            )
    if count < 1:
        raise ValueError("count must be >= 1")
    size_cycle: List[int] = []
    for size, weight in _SIZE_WEIGHTS:
        size_cycle.extend([min(size, max_size)] * weight)
    names = []
    for i in range(count):
        family = chosen[i % len(chosen)]
        size = size_cycle[i % len(size_cycle)]
        names.append(family_app_name(family, size, seed * 100_000 + i))
    return names


def corpus_manifest(names: Iterable[str]) -> Dict[str, object]:
    """Machine-readable ground truth for a family corpus (JSON-ready)."""
    apps = {}
    for name in names:
        truth = family_ground_truth(name)
        apps[name] = truth.to_dict()
    return {"schema": 1, "count": len(apps), "apps": apps}


# ----------------------------------------------------------------------
# cost model (scheduler binpacking)
# ----------------------------------------------------------------------

#: fallback cost for apps with no spec (hand-built figure apps are tiny)
_DEFAULT_COST = 25.0


def estimate_cost(name: str) -> float:
    """Predicted analysis cost of any known app name, in estimated actions.

    Family/paper/F-Droid apps derive from their :class:`SynthSpec`; the
    hand-built figure apps get a small constant. Never synthesizes."""
    if is_family_name(name):
        family, size, seed = parse_family_name(name)
        return estimated_actions(family_spec(family, size, seed))
    if name.startswith("paper:"):
        from repro.corpus.specs import TWENTY_APPS, spec_for_paper_app

        want = name[len("paper:") :].replace("_", " ").lower()
        for row in TWENTY_APPS:
            if row.name.lower() == want:
                return estimated_actions(spec_for_paper_app(row, seed=0))
        return _DEFAULT_COST
    if name.startswith("fdroid:"):
        from repro.corpus.fdroid import fdroid_spec

        try:
            return estimated_actions(fdroid_spec(int(name.split(":", 1)[1])))
        except (ValueError, IndexError):
            return _DEFAULT_COST
    return _DEFAULT_COST


# ----------------------------------------------------------------------
# scoring
# ----------------------------------------------------------------------


def score_detection(
    truth: GroundTruth, detected_fields: Iterable[str]
) -> Dict[str, object]:
    """Recall/precision of one app's detector output vs. its manifest.

    Recall is over the *injected true races* (exact field names). Precision
    counts every detected field that is not ground-truth true — including
    the deliberately seeded ``loaded_`` implicit-dependency FPs — against
    the detector.
    """
    detected = set(detected_fields)
    expected = set(truth.true_fields())
    found = detected & expected
    leaked = detected & set(truth.eliminated_fields())
    recall = len(found) / len(expected) if expected else 1.0
    precision = len(found) / len(detected) if detected else 1.0
    return {
        "expected": len(expected),
        "detected": len(detected),
        "found": len(found),
        "missed": sorted(expected - detected),
        "false_positives": sorted(detected - expected),
        "leaked_eliminated": sorted(leaked),
        "recall": recall,
        "precision": precision,
    }


def aggregate_scores(scores: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Corpus-level micro-averaged recall/precision."""
    expected = sum(int(s["expected"]) for s in scores)
    found = sum(int(s["found"]) for s in scores)
    detected = sum(int(s["detected"]) for s in scores)
    return {
        "apps": len(scores),
        "expected": expected,
        "found": found,
        "detected": detected,
        "recall": found / expected if expected else 1.0,
        "precision": found / detected if detected else 1.0,
    }
