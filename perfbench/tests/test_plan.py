"""corpus-rescan's plans: the new/unchanged mix is the same for every seed,
only the apps differ."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.corpus import seeded_corpus  # noqa: E402

from perfbench.corpus_rescan import FILL_APPS, MAX_SIZE, PassPlanner, stratum  # noqa: E402


def mix(names, new):
    out = {}
    for name in names:
        key = (stratum(name), name in new)
        out[key] = out.get(key, 0) + 1
    return out


def test_every_seed_rescans_the_same_mix():
    mixes = []
    for seed in (1, 2, 3):
        fill = seeded_corpus(count=FILL_APPS, seed=seed, max_size=MAX_SIZE)
        planner = PassPlanner(fill, seed)
        passes = [planner.next_pass() for _ in range(2)]
        for names, new in passes:
            assert len(names) == len(fill)
            assert all(name in fill for name in names if name not in new)
            assert not new & set(fill)
        mixes.append([mix(*p) for p in passes])
    assert mixes[0] == mixes[1] == mixes[2]

