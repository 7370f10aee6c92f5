"""Content-addressed on-disk store for the substrate cache.

Layout under the cache root::

    objects/<kind>/<kk>/<key>.bin    # header line (JSON) + pickle payload
    stats.jsonl                      # lifetime hit/miss counts, a line per close

Each entry file is self-verifying: the JSON header records a magic string,
the cache format version, the entry's kind/key and the sha256 of the pickle
payload that follows. ``get`` re-checks all four before unpickling, so a
truncated, bit-flipped or format-incompatible entry is *detected*, reported
through a loud :func:`repro.obs.emit_warning`, deleted, and answered as a
miss — the pipeline falls back to cold computation, never crashes on and
never silently reuses a bad entry.

Writes are atomic (tmp file + ``os.replace``), so a run killed mid-``put``
leaves either the old entry or the new one, not a torn file. The entry
files are the only index: an entry's size is its file size and its last
use is its mtime, which ``put`` and every verified hit stamp. The lifetime
counts are advisory: a line ``stats`` cannot parse is skipped with a
warning, never taking analysis down with it. Any other file under the
root is ignored.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from typing import Dict, List, Optional, Tuple

from repro import obs

#: bump when any pickled artifact's shape changes — old entries then
#: version-mismatch on read and fall back to cold (never half-load)
CACHE_VERSION = 1

MAGIC = "repro-cache"

_STATS_KEYS = ("hits", "misses", "corrupt", "evicted")


class SubstrateStore:
    """One cache directory: sharded entry files plus a lifetime-count log."""

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        os.makedirs(self.objects_dir, exist_ok=True)
        self._stats_path = os.path.join(self.root, "stats.jsonl")
        # counted since open; close() appends them to stats.jsonl
        self._counts = dict.fromkeys(_STATS_KEYS, 0)

    # ------------------------------------------------------------------
    # entry IO
    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.objects_dir, kind, key[:2], f"{key}.bin")

    @staticmethod
    def _stamp(path: str) -> None:
        """Mark an entry used now: its mtime is the LRU clock. The time is
        explicit because the kernel's own file stamps are tick-coarse, so
        a burst of puts would tie."""
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except OSError:
            pass  # e.g. a read-only cache: the old stamp stands

    def put(self, kind: str, key: str, obj: object) -> bool:
        """Pickle ``obj`` under (kind, key); atomic, best-effort."""
        path = self._path(kind, key)
        try:
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            header = json.dumps(
                {
                    "magic": MAGIC,
                    "version": CACHE_VERSION,
                    "kind": kind,
                    "key": key,
                    "payload_sha256": hashlib.sha256(payload).hexdigest(),
                    "created_ts": time.time(),
                },
                sort_keys=True,
            ).encode("utf-8")
            os.makedirs(os.path.dirname(path), exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                fh.write(header + b"\n" + payload)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, TypeError, AttributeError) as exc:
            obs.emit_warning(
                f"cache: failed to store {kind} entry ({exc}); continuing uncached",
                stage="cache",
                kind=kind,
                key=key,
            )
            return False
        self._stamp(path)
        return True

    def get(self, kind: str, key: str) -> Optional[object]:
        """Load (kind, key), or None on miss/corruption (cold fallback)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except FileNotFoundError:
            self._counts["misses"] += 1
            return None
        except OSError as exc:
            self._corrupt(kind, key, path, f"unreadable ({exc})")
            return None
        newline = raw.find(b"\n")
        if newline < 0:
            self._corrupt(kind, key, path, "truncated before header end")
            return None
        try:
            header = json.loads(raw[:newline].decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._corrupt(kind, key, path, "unparsable header")
            return None
        if not isinstance(header, dict) or header.get("magic") != MAGIC:
            self._corrupt(kind, key, path, "bad magic")
            return None
        if header.get("version") != CACHE_VERSION:
            self._corrupt(
                kind, key, path,
                f"version {header.get('version')!r} != {CACHE_VERSION} (stale format)",
            )
            return None
        if header.get("kind") != kind or header.get("key") != key:
            self._corrupt(kind, key, path, "kind/key mismatch")
            return None
        payload = raw[newline + 1:]
        if hashlib.sha256(payload).hexdigest() != header.get("payload_sha256"):
            self._corrupt(kind, key, path, "payload checksum mismatch")
            return None
        try:
            obj = pickle.loads(payload)
        except Exception as exc:  # any unpickling failure is corruption
            self._corrupt(kind, key, path, f"unpicklable payload ({exc})")
            return None
        self._counts["hits"] += 1
        self._stamp(path)
        return obj

    def _corrupt(self, kind: str, key: str, path: str, why: str) -> None:
        obs.emit_warning(
            f"cache: corrupt {kind} entry {key[:12]}…: {why}; "
            "dropping it and recomputing cold",
            stage="cache",
            kind=kind,
            key=key,
            path=path,
        )
        obs.metrics.counter(
            "cache.corrupt_entries", "cache entries rejected as corrupt/stale"
        ).inc()
        self._counts["corrupt"] += 1
        self._counts["misses"] += 1
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # stats / gc
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[str, str, int, int]]:
        """(kind, key, bytes, mtime_ns) of every entry file, sorted."""
        out: List[Tuple[str, str, int, int]] = []
        for dirpath, _dirnames, filenames in os.walk(self.objects_dir):
            for filename in filenames:
                if not filename.endswith(".bin"):
                    continue
                kind = os.path.relpath(dirpath, self.objects_dir).split(os.sep)[0]
                key = filename[: -len(".bin")]
                try:
                    stat = os.stat(os.path.join(dirpath, filename))
                except OSError:
                    continue
                out.append((kind, key, stat.st_size, stat.st_mtime_ns))
        out.sort()
        return out

    def stats(self) -> Dict[str, object]:
        """Entries and bytes by kind, plus the lifetime counts: every
        ``stats.jsonl`` line and this open store's own counts."""
        counters = dict(self._counts)
        created_ts = None
        try:
            with open(self._stats_path, "rb") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            lines = []
        skipped = 0
        for line in lines:
            try:
                entry = json.loads(line)
                ts = int(entry["ts"])
                logged = {key: int(entry.get(key, 0)) for key in _STATS_KEYS}
            except (ValueError, TypeError, KeyError):
                skipped += 1
                continue
            if created_ts is None:
                created_ts = ts
            for key, value in logged.items():
                counters[key] += value
        if skipped:
            obs.emit_warning(
                f"cache: skipped {skipped} unreadable line(s) in "
                f"{self._stats_path}; lifetime counts exclude them",
                stage="cache",
                path=self._stats_path,
            )
        entries = self._entries()
        by_kind: Dict[str, Dict[str, int]] = {}
        for kind, _key, nbytes, _used in entries:
            slot = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
            slot["entries"] += 1
            slot["bytes"] += nbytes
        lookups = counters["hits"] + counters["misses"]
        return {
            "root": self.root,
            "created_ts": created_ts,
            "entries": len(entries),
            "bytes": sum(e[2] for e in entries),
            "by_kind": by_kind,
            "hits": counters["hits"],
            "misses": counters["misses"],
            "corrupt": counters["corrupt"],
            "evicted": counters["evicted"],
            "hit_rate": round(counters["hits"] / lookups, 4) if lookups else None,
        }

    def gc(
        self,
        max_age_days: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> Dict[str, int]:
        """Evict by age and/or size budget (least-recently-used first)."""
        entries = self._entries()
        doomed: List[Tuple[str, str, int]] = []
        if max_age_days is not None:
            cutoff = time.time_ns() - round(max_age_days * 86400e9)
            doomed.extend(
                (kind, key, nbytes)
                for kind, key, nbytes, used in entries
                if used < cutoff
            )
        if max_bytes is not None:
            doomed_keys = {(kind, key) for kind, key, _ in doomed}
            kept = [e for e in entries if (e[0], e[1]) not in doomed_keys]
            total = sum(e[2] for e in kept)
            # LRU by last-use stamp; (kind, key) breaks equal stamps
            for kind, key, nbytes, _used in sorted(
                kept, key=lambda e: (e[3], e[0], e[1])
            ):
                if total <= max_bytes:
                    break
                doomed.append((kind, key, nbytes))
                total -= nbytes
        removed = freed = 0
        for kind, key, nbytes in doomed:
            try:
                os.remove(self._path(kind, key))
            except OSError:
                continue
            removed += 1
            freed += nbytes
        self._counts["evicted"] += removed
        return {"removed": removed, "freed_bytes": freed, "kept": len(entries) - removed}

    def close(self) -> None:
        """Append the non-zero counts as one ``stats.jsonl`` line. A single
        ``write`` on an ``O_APPEND`` descriptor keeps concurrent stores'
        lines whole; a store that counted nothing writes nothing."""
        counts = {key: value for key, value in self._counts.items() if value}
        self._counts = dict.fromkeys(_STATS_KEYS, 0)
        if not counts:
            return
        line = json.dumps({**counts, "ts": int(time.time())}, sort_keys=True)
        try:
            flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
            fd = os.open(self._stats_path, flags, 0o666)
            try:
                os.write(fd, line.encode("utf-8") + b"\n")
            finally:
                os.close(fd)
        except OSError as exc:
            obs.emit_warning(
                f"cache: could not record lifetime counts ({exc})",
                stage="cache",
                path=self._stats_path,
            )


def corrupt_store_for_testing(root: str) -> int:
    """Testing aid (``--inject-cache-corrupt``): truncate every entry file
    so the next lookup exercises the corruption-detection path. Returns the
    number of entries mangled."""
    objects_dir = os.path.join(os.path.abspath(root), "objects")
    mangled = 0
    for dirpath, _dirnames, filenames in os.walk(objects_dir):
        for filename in filenames:
            if not filename.endswith(".bin"):
                continue
            path = os.path.join(dirpath, filename)
            try:
                size = os.path.getsize(path)
                with open(path, "r+b") as fh:
                    fh.truncate(size // 2)
                mangled += 1
            except OSError:
                continue
    return mangled
