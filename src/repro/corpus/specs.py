"""Dataset specifications: the paper's Table 2/3/4 reference numbers.

The 20-app Gator benchmark cannot be shipped (real APKs, no network), so
the corpus generator synthesizes a stand-in per app. Each
:class:`PaperAppRow` keeps the published numbers; the generator derives
seeding densities from them (activities = harnesses, idiom counts scaled to
true-race / false-positive / refutable targets), and the benches print
paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PaperAppRow:
    """One row of Tables 2 + 3 + 4."""

    name: str
    installs: str  # Table 2
    bytecode_kb: int  # Table 2 (.dex KB)
    harnesses: int  # Table 3
    actions: int
    hb_edges: int
    ordered_pct: int
    racy_no_as: int
    racy_with_as: int
    after_refutation: int
    true_races: int
    false_positives: int
    eventracer: Optional[int]  # None where EventRacer could not run
    # Table 4 stage seconds
    t_cg: int
    t_hbg: int
    t_refutation: int


TWENTY_APPS: List[PaperAppRow] = [
    PaperAppRow("APV", "500,000-1,000,000", 736, 4, 84, 1648, 47, 75, 25, 10, 8, 2, 3, 182, 18, 83),
    PaperAppRow("Astrid", "100,000-500,000", 5400, 6, 147, 2755, 26, 319, 83, 54, 37, 17, None, 325, 24, 938),
    PaperAppRow("Barcode Scanner", "100,000,000-500,000,000", 808, 9, 136, 2756, 30, 64, 24, 15, 11, 4, 7, 173, 29, 247),
    PaperAppRow("Beem", "50,000-100,000", 1700, 12, 169, 3724, 26, 467, 73, 13, 10, 0, 0, 397, 36, 1664),
    PaperAppRow("ConnectBot", "1,000,000-5,000,000", 700, 11, 171, 4829, 33, 567, 96, 58, 43, 15, 16, 241, 54, 2128),
    PaperAppRow("FBReader", "10,000,000-50,000,000", 1013, 27, 259, 4710, 14, 836, 285, 106, 93, 13, 5, 1058, 85, 1687),
    PaperAppRow("K-9 Mail", "5,000,000-10,000,000", 2800, 29, 312, 5725, 12, 1347, 370, 89, 72, 17, 1, 2936, 113, 2759),
    PaperAppRow("KeePassDroid", "1,000,000-5,000,000", 489, 15, 216, 4076, 18, 266, 61, 27, 16, 1, 0, 136, 33, 288),
    PaperAppRow("Mileage", "500,000-1,000,000", 641, 50, 331, 8498, 16, 496, 195, 36, 33, 3, 1, 1927, 41, 3361),
    PaperAppRow("MyTracks", "500,000-1,000,000", 5300, 8, 198, 6826, 35, 634, 174, 80, 75, 5, 34, 2711, 52, 2170),
    PaperAppRow("NPR News", "1,000,000-5,000,000", 1500, 13, 490, 10673, 9, 607, 132, 21, 21, 0, 3, 562, 46, 1546),
    PaperAppRow("NotePad", "10,000,000-50,000,000", 228, 9, 72, 609, 24, 436, 65, 31, 27, 4, 9, 148, 78, 702),
    PaperAppRow("OpenManager", "N/A", 77, 6, 92, 1036, 25, 532, 113, 55, 51, 4, 5, 275, 53, 715),
    PaperAppRow("OpenSudoku", "1,000,000-5,000,000", 170, 10, 141, 1425, 14, 426, 158, 110, 83, 27, 72, 253, 36, 612),
    PaperAppRow("SipDroid", "1,000,000-5,000,000", 539, 11, 206, 2386, 11, 321, 94, 27, 17, 10, None, 278, 71, 488),
    PaperAppRow("SuperGenPass", "10,000-50,000", 137, 2, 43, 343, 38, 82, 16, 6, 6, 0, 3, 87, 16, 419),
    PaperAppRow("TippyTipper", "100,000-500,000", 79, 5, 100, 1864, 38, 93, 21, 9, 7, 2, 1, 133, 32, 285),
    PaperAppRow("VLC", "100,000,000-500,000,000", 1100, 13, 151, 2349, 20, 202, 78, 35, 32, 3, 0, 738, 30, 793),
    PaperAppRow("VuDroid", "100,000-500,000", 63, 3, 45, 150, 15, 62, 27, 10, 10, 0, 5, 67, 29, 405),
    PaperAppRow("XBMC remote", "100,000-500,000", 1100, 13, 330, 4218, 8, 445, 137, 63, 48, 15, 17, 2438, 39, 1038),
]

#: Table 5 medians for the 174-app F-Droid dataset.
FDROID_PAPER_MEDIANS: Dict[str, float] = {
    "bytecode_kb": 1114,
    "harnesses": 4.5,
    "actions": 67.5,
    "hb_edges": 1223,
    "ordered_pct": 17.3,
    "racy_pairs": 68,
    "after_refutation": 43.5,
    "t_cg": 139,
    "t_hbg": 27,
    "t_refutation": 648,
    "t_total": 960,
}

#: Paper Table 3/4 medians for the 20-app dataset (benches print these).
TWENTY_PAPER_MEDIANS: Dict[str, float] = {
    "harnesses": 10.5,
    "actions": 160,
    "hb_edges": 2755,
    "ordered_pct": 22,
    "racy_no_as": 431,
    "racy_with_as": 80.5,
    "after_refutation": 33,
    "true_races": 29.5,
    "false_positives": 8.5,
    "eventracer": 4,
    "t_cg": 1310,
    "t_hbg": 28.5,
    "t_refutation": 560.5,
    "t_total": 1899,
}


@dataclass(frozen=True)
class SynthSpec:
    """Seeding densities for one synthetic app (see corpus.synth).

    Counts are app-wide; the generator distributes them round-robin across
    activities. Every idiom instance gets uniquely-prefixed field names so
    detector reports can be classified against ground truth automatically.
    """

    name: str
    seed: int
    activities: int
    evrace: int  # unguarded event races (true)
    bgrace: int  # AsyncTask/thread data races (true)
    guard: int  # Figure 8 guard-flag idioms (refutable + benign guard race)
    nullguard: int  # pointer-null-guard idioms (EventRacer FP source)
    ordered: int  # FIFO-ordered post pairs (no race; HB rules 4/6 at work)
    factory: int  # deep-allocation helpers (w/o-AS aliasing inflation)
    implicit: int  # implicit-dependency idioms (SIERRA FP by ground truth)
    receivers: int  # Figure 2-style receiver components (true system races)
    services: int
    uistop: int = 0  # GUI-vs-onStop pairs SIERRA orders but EventRacer reports
    extra_gui: int = 0  # benign no-op handlers padding the action count
    binding: int = 0  # bindService meshes: onServiceConnected vs GUI handler
    looper: int = 0  # multi-Looper affinity: HandlerThread post vs GUI write
    chains: int = 0  # deep AsyncTask chains ending in a racy write
    chain_depth: int = 3  # tasks per chain (depth of the relay)
    installs: str = "N/A"
    category: str = "synthetic"


#: rough action-count contribution of each idiom instance — the corpus
#: scheduler's cost estimate (``estimated_actions``). The absolute values
#: matter less than the *ratios*: they only have to rank apps by analysis
#: cost well enough that the largest-first queue front-loads the expensive
#: ones.
_IDIOM_ACTION_WEIGHTS: Dict[str, float] = {
    "evrace": 2.0,  # two GUI handlers
    "bgrace": 4.0,  # click listener + doInBackground + onPostExecute + reader
    "guard": 2.0,  # posted runnable (+ lifecycle bodies already counted)
    "nullguard": 1.0,  # one posted runnable
    "ordered": 2.0,  # two FIFO posts
    "factory": 1.0,  # shares three handlers per activity (counted once-ish)
    "implicit": 2.0,  # loader thread + ready handler
    "receivers": 1.0,  # onReceive
    "services": 2.0,  # onStartCommand + reader handler
    "uistop": 1.0,
    "extra_gui": 1.0,
    "binding": 3.0,  # onServiceConnected/-Disconnected + reader handler
    "looper": 2.0,  # background-looper post + GUI writer
}

#: lifecycle callbacks every activity contributes (onCreate..onDestroy)
_ACTIVITY_BASE_ACTIONS = 5.0


def estimated_actions(spec: SynthSpec) -> float:
    """Predicted action count of ``spec`` — **without synthesizing it**.

    The sharded corpus scheduler orders its queue by this (largest
    first), so it must be cheap: arithmetic over the density fields
    only. Chains scale with their depth (each relay task is two more
    callbacks); everything else is a per-instance weight.
    """
    total = _ACTIVITY_BASE_ACTIONS * max(1, spec.activities)
    for field_name, weight in _IDIOM_ACTION_WEIGHTS.items():
        total += weight * float(getattr(spec, field_name, 0) or 0)
    total += 2.0 * float(spec.chains) * max(1, spec.chain_depth)
    return total


def _scale(value: float, minimum: int = 0) -> int:
    return max(minimum, round(value))


def spec_for_paper_app(row: PaperAppRow, seed: int) -> SynthSpec:
    """Derive generator densities from a paper row.

    The derivation targets *shape*: enough true-race idioms to land near the
    paper's true-race count, guard idioms near its refutation delta, factory
    idioms near its without-AS inflation. Absolute counts will not match —
    EXPERIMENTS.md records measured vs. paper.
    """
    refutable = max(0, row.racy_with_as - row.after_refutation)
    no_as_delta = max(0, row.racy_no_as - row.racy_with_as)
    # roughly one-fifth scale relative to the paper (see EXPERIMENTS.md);
    # factory idioms yield ~3 without-AS pairs each, hence the 1/15 factor.
    per_activity_actions = row.actions / max(1, row.harnesses)
    return SynthSpec(
        name=row.name,
        seed=seed,
        activities=row.harnesses,
        evrace=_scale(row.true_races * 0.15, 1),
        bgrace=_scale(row.true_races * 0.10, 1),
        guard=_scale(refutable * 0.40, 1),
        nullguard=_scale(row.true_races * 0.12, 0),
        ordered=_scale(row.harnesses * 0.5, 1),
        factory=_scale(no_as_delta / 4.5, 1),
        implicit=_scale(row.false_positives * 1.0, 0),
        receivers=1 if row.true_races > 5 else 0,
        services=1 if row.harnesses >= 10 else 0,
        uistop=1 if row.eventracer not in (None, 0) else 0,
        extra_gui=_scale((per_activity_actions - 12) * row.harnesses * 0.3, 0),
        installs=row.installs,
        category="paper-20",
    )


def twenty_app_specs() -> List[SynthSpec]:
    return [spec_for_paper_app(row, seed=1000 + i) for i, row in enumerate(TWENTY_APPS)]
