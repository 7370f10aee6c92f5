"""Persistent refutation-verdict memo (the cross-run §5 cache).

The in-process refuted-node memo in :class:`repro.core.refute.RefutationEngine`
dies with the process; this module keys whole candidate *verdicts* by
content (:func:`repro.cache.keys.candidate_key`) so a warm run answers most
candidates without any symbolic execution. Verdicts are safe to replay: the
engine's §5 node memo only prunes exploration, it never changes a verdict,
so a candidate's outcome is a pure function of what the key hashes (the
racy cell, both access sites, both actions' ICFG content, the abstraction
and the budgets).

Fork-pool protocol: the parent computes keys and loads entries *before*
forking; workers consult the inherited :meth:`RefutationMemo.lookup`
snapshot (they never touch the store) and ship hit-marked result
tuples back like any other result; the parent persists newly computed
verdicts afterwards via :meth:`flush`. Serial and parallel runs therefore
see the identical entry snapshot per pair and scrape identical
``refutation.cache_hits`` totals.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.cache import keys as cache_keys
from repro.cache.store import SubstrateStore

KIND_VERDICT = "verdict"

#: what a memo entry stores: (is_race, refuted_ordering, budget_exceeded)
Verdict = Tuple[bool, Optional[str], bool]


class RefutationMemo:
    """Per-run view over the persistent verdict store.

    ``prepare(pairs)`` computes every pair's content key and pre-loads the
    persisted entries; afterwards the memo is a plain in-memory dict safe
    to consult from forked workers.
    """

    def __init__(
        self,
        store: SubstrateStore,
        method_digests: Dict[str, str],
        options,
        path_budget: int,
        loop_bound: int,
    ) -> None:
        self._store = store
        self._method_digests = method_digests
        self._options = options
        self._path_budget = path_budget
        self._loop_bound = loop_bound
        self._key_of: Dict[int, str] = {}  # id(pair) -> content key
        self._icfg_digests: Dict[int, str] = {}  # id(action) -> ICFG digest
        self._entries: Dict[str, Verdict] = {}
        self._persisted: set = set()  # keys that came from the store
        self._prepared = False

    # ------------------------------------------------------------------
    def prepare(self, pairs) -> None:
        """Key every pair and load the persisted verdicts (parent-side,
        pre-fork). Idempotent per memo instance."""
        for pair in pairs:
            if id(pair) in self._key_of:
                continue
            key = cache_keys.candidate_key(
                pair,
                self._method_digests,
                self._options,
                self._path_budget,
                self._loop_bound,
                icfg_digest_cache=self._icfg_digests,
            )
            self._key_of[id(pair)] = key
            if key not in self._entries:
                entry = self._store.get(KIND_VERDICT, key)
                if self._valid(entry):
                    self._entries[key] = (entry[0], entry[1], entry[2])
                    self._persisted.add(key)
        self._prepared = True

    @staticmethod
    def _valid(entry) -> bool:
        return (
            isinstance(entry, tuple)
            and len(entry) == 3
            and isinstance(entry[0], bool)
            and (entry[1] is None or isinstance(entry[1], str))
            and isinstance(entry[2], bool)
        )

    # ------------------------------------------------------------------
    # worker-safe surface
    # ------------------------------------------------------------------
    def lookup(self, pair) -> Optional[Verdict]:
        key = self._key_of.get(id(pair))
        if key is None:
            return None
        return self._entries.get(key)

    # ------------------------------------------------------------------
    # parent-side persistence
    # ------------------------------------------------------------------
    def flush(self, results) -> Tuple[int, int]:
        """Persist verdicts for pairs that were *computed* this run.

        Returns ``(hits, stored)``: how many results were served from the
        pre-fork snapshot and how many fresh verdicts were written back.
        A ``budget_exceeded`` verdict is still persisted — with identical
        budgets (part of the key) a rerun would exceed them identically.
        """
        hits = stored = 0
        for result in results:
            key = self._key_of.get(id(result.pair))
            if key is None:
                continue
            if key in self._persisted:
                hits += 1
                continue
            if key in self._entries:
                continue  # duplicate content key computed once this run
            verdict: Verdict = (
                bool(result.is_race),
                result.refuted_ordering,
                bool(result.budget_exceeded),
            )
            if self._store.put(KIND_VERDICT, key, verdict):
                stored += 1
            self._entries[key] = verdict
        if hits:
            obs.metrics.counter(
                "cache.refutation_memo_hits",
                "refutation verdicts served from the persistent memo",
            ).inc(hits)
        if stored:
            obs.metrics.counter(
                "cache.refutation_memo_stored",
                "refutation verdicts written to the persistent memo",
            ).inc(stored)
        return hits, stored
