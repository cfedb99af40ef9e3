"""On-disk JSON result cache for experiment sweep points.

One file per cache key under ``~/.cache/repro`` (or ``--cache-dir`` /
``$REPRO_CACHE_DIR``).  Entries are written atomically (tempfile +
``os.replace``) so parallel workers and concurrent CLI invocations
never observe torn files; a corrupt or version-mismatched entry reads
as a miss (also counted under ``corrupt``) and is rewritten on the next
run.

The cache is optionally size-bounded (``--cache-max-mb``): when a store
pushes the directory past the budget, the oldest entries by mtime are
unlinked until it fits again.  Long hybrid-fidelity sweeps churn many
large payloads, and an unbounded cache directory grows forever.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

#: Bump whenever simulation semantics or payload encodings change in a
#: way that makes previously cached results wrong.
#: v2: point payloads gained the always-on "metrics" snapshot.
#: v3: transport stats gained ``coarse_timeouts``; chaos-aware points
#: open flows before sampler start and attach a ``chaos`` block.
#: v5: span-instrumented points attach ``spans`` and ``breakdown``
#: blocks (per-flow FCT attribution) to their payloads.
#: v6: NetworkSpec gained the ``fidelity`` field (hybrid-fidelity tier),
#: which changes every spec hash.
#: v7: the burst-train dataplane is gone.  Packet-tier payloads of
#: contended points (multi-QP NICs, shared egress ports) move from the
#: train path's answer to the serial pull path's, so a v6 cache would
#: replay stale tables; single-flow points are unchanged.
#: v8: a chaos point's ``metrics.series`` holds only the per-flow
#: delivery series (``chaos.flow.<i>.rx_bytes``) unless sampling was
#: asked for; a v7 entry would replay the all-gauges payload into
#: ``--metrics-out``.  Loss-free ``breakdown`` blocks gain ``queue_ns``.
#: v9: a NIC's pending wake-up is the earliest one asked for; a later
#: pending one used to swallow it and hold a paced QP past its gate.
#: Multi-QP NICs under rate-based CC move (fig16's dcqcn/irn row).
CACHE_VERSION = 9


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


class ResultCache:
    """Directory of ``<key>.json`` result envelopes, sharded one level
    deep on the key's trailing two hash characters."""

    def __init__(self, root: Optional[Path] = None, enabled: bool = True,
                 max_mb: Optional[float] = None) -> None:
        if max_mb is not None and max_mb <= 0:
            raise ValueError("max_mb must be positive (or None: unbounded)")
        self.root = Path(root) if root is not None else default_cache_dir()
        self.enabled = enabled
        #: Byte budget for the whole cache directory; ``None`` = no
        #: eviction (the pre-existing behavior).
        self.max_bytes = (None if max_mb is None
                          else max(1, int(max_mb * 1_000_000)))
        self.hits = 0
        self.misses = 0
        #: Misses whose file was there but unusable: truncated or
        #: non-UTF-8 bytes, or an envelope for another version or key.
        self.corrupt = 0
        self.stores = 0
        self.evictions = 0
        # Running size estimate, initialized lazily on the first put so
        # bounded caches don't pay a directory walk per store.
        self._approx_bytes: Optional[int] = None

    def _path(self, key: str) -> Path:
        # Shard one directory level on the trailing two hash characters
        # so one experiment's points spread across subdirectories.
        return self.root / key[-2:] / f"{key}.json"

    def get(self, key: str) -> Optional[Any]:
        """Cached payload for ``key``, or None on a miss."""
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                envelope = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            envelope = None     # unreadable, truncated or not UTF-8
        if (not isinstance(envelope, dict)
                or envelope.get("version") != CACHE_VERSION
                or envelope.get("key") != key):
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return envelope["payload"]

    def put(self, key: str, payload: Any) -> None:
        """Persist ``payload`` (must be JSON-safe) under ``key``."""
        if not self.enabled:
            return
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        envelope = {"version": CACHE_VERSION, "key": key, "payload": payload}
        import tempfile     # here, not at the top: a replay writes nothing
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # dumps, not dump: only dumps runs the C encoder, and
                # the bytes are the same.
                fh.write(json.dumps(envelope, sort_keys=True,
                                    separators=(",", ":")))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1
        if self.max_bytes is not None:
            if self._approx_bytes is None:
                self._approx_bytes = self._scan_bytes()
            else:
                try:
                    self._approx_bytes += path.stat().st_size
                except OSError:
                    pass
            if self._approx_bytes > self.max_bytes:
                self._evict(keep=path)

    # ------------------------------------------------------------ eviction
    def _scan_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        total = 0
        for entry in self.root.glob("*/*.json"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def _evict(self, keep: Path) -> None:
        """Unlink oldest-mtime entries until the budget holds again.

        The entry just written (``keep``) is never a victim — a cache
        smaller than one entry would otherwise evict everything it
        stores.  Concurrent writers race benignly: unlinking is atomic,
        a vanished victim is skipped, and the running size estimate is
        re-anchored to a fresh directory scan here (eviction is rare
        relative to put)."""
        entries = []
        for entry in self.root.glob("*/*.json"):
            try:
                st = entry.stat()
            except OSError:
                continue
            entries.append((st.st_mtime_ns, st.st_size, entry))
        entries.sort()
        total = sum(size for _mt, size, _p in entries)
        for _mtime, size, entry in entries:
            if total <= self.max_bytes or entry == keep:
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            self.evictions += 1
        self._approx_bytes = total

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed.

        Also sweeps stale ``*.tmp`` files: a worker killed between
        ``mkstemp`` and ``os.replace`` leaves its temp file behind, and
        without this sweep those accumulate forever and keep the shard
        ``rmdir`` below failing on every subsequent clear.  Stale temps
        do not count toward the return value (they were never entries).
        """
        removed = 0
        self._approx_bytes = None
        if not self.root.is_dir():
            return removed
        for path in self.root.glob("*/*.json"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        for tmp in self.root.glob("*/*.tmp"):
            try:
                tmp.unlink()
            except OSError:
                pass
        for sub in self.root.iterdir():
            if sub.is_dir():
                try:
                    sub.rmdir()
                except OSError:
                    pass  # non-empty (foreign files) — leave it
        return removed

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "corrupt": self.corrupt, "stores": self.stores,
                "evictions": self.evictions}
