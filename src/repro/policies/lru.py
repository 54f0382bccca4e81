"""Least-recently-used whole-object caching (Ceph's cache-tier policy)."""

from __future__ import annotations

import numpy as np

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.baselines.lru import LRUCache
from repro.exceptions import CacheError
from repro.policies.base import (
    AccessOutcome,
    ChunkCachingPolicy,
    Eviction,
    TraceOutcome,
)


class LRUPolicy(ChunkCachingPolicy):
    """Whole-object LRU over chunk-sized entries.

    Misses promote the whole object, evicting least-recently-used residents
    to make room; objects larger than the whole cache are simply not cached
    (clean miss path).  ``replication`` inflates the footprint each cached
    copy occupies (Ceph's cache tier stores replicated objects) without
    changing the chunk-occupancy snapshot the scheduler sees.
    """

    def __init__(
        self,
        capacity_chunks: int,
        chunks_per_file: Optional[Mapping[str, int]] = None,
        replication: int = 1,
    ):
        if replication < 1:
            raise CacheError("replication factor must be at least 1")
        self._replication = int(replication)
        self._cache = LRUCache(capacity_chunks)
        super().__init__(capacity_chunks, chunks_per_file)

    def _stored_size(self, file_id: str) -> int:
        return self.footprint(file_id) * self._replication

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def lookup(self, file_id: str) -> int:
        return self.footprint(file_id) if self._cache.peek(file_id) else 0

    def evict(self, file_id: str) -> bool:
        return self._cache.evict(file_id)

    def occupancy(self) -> Dict[str, int]:
        return {str(key): self.footprint(str(key)) for key in self._cache.keys()}

    @property
    def used_chunks(self) -> int:
        return self._cache.used

    def _on_hit(self, file_id: str, now: float) -> None:
        self._cache.touch(file_id)

    def _on_miss(self, file_id: str, now: float) -> Tuple[bool, List[Eviction]]:
        victims = self._cache.insert(file_id, self._stored_size(file_id))
        promoted = self._cache.peek(file_id)
        evicted = [
            (str(key), self.footprint(str(key))) for key, _ in victims
        ]
        return promoted, evicted

    def observe(self, file_id: str, now: float = 0.0) -> AccessOutcome:
        # Hot-path specialisation of the base template (no time-driven
        # hooks, hit == membership): one OrderedDict touch per hit.
        stats = self.stats
        stats.reads += 1
        if self._cache.touch(file_id):
            stats.hits += 1
            return AccessOutcome(True, self.footprint(file_id))
        promoted, evicted = self._on_miss(file_id, now)
        if promoted:
            stats.promotions += 1
        if evicted:
            stats.evicted_chunks += sum(chunks for _, chunks in evicted)
        return AccessOutcome(False, 0, promoted, tuple(evicted))

    # ------------------------------------------------------------------
    # Exact bulk classification
    # ------------------------------------------------------------------

    def classify_trace(
        self,
        file_ids: Sequence[str],
        positions: np.ndarray,
        times: np.ndarray,
    ) -> Optional[TraceOutcome]:
        # One pass over the OrderedDict with LRUCache.insert's eviction loop
        # inlined: the same hit test, recency moves, victims, promotions and
        # container counters as one observe per request.  Subclasses may
        # override the hit/miss handlers, so they keep the generic path.
        if type(self) is not LRUPolicy:
            return None
        cache = self._cache
        entries = cache._entries
        move_to_end = entries.move_to_end
        pop_lru = entries.popitem
        capacity = cache.capacity
        used = cache.used
        chunks_per_file = self._chunks_per_file
        positions = np.asarray(positions, dtype=np.int64)
        footprints = np.zeros(len(file_ids), dtype=np.int64)
        stored = {}
        for at in np.unique(positions).tolist():
            footprints[at] = self.footprint(file_ids[at])
            stored[file_ids[at]] = self._stored_size(file_ids[at])
        requests = np.asarray(file_ids, dtype=object)[positions].tolist()
        hits = bytearray(positions.size)
        promotions = 0
        victims = 0
        evicted_chunks = 0
        for request, file_id in enumerate(requests):
            if file_id in entries:
                move_to_end(file_id)
                hits[request] = 1
                continue
            size = stored[file_id]
            if size > capacity:
                continue  # larger than the whole cache: clean miss
            while used + size > capacity and entries:
                victim, victim_size = pop_lru(last=False)
                used -= victim_size
                victims += 1
                evicted_chunks += chunks_per_file[victim]
            entries[file_id] = size
            used += size
            promotions += 1
        cache._used = used
        cache.stats.evictions += victims
        cache.stats.insertions += promotions
        hit_mask = np.frombuffer(hits, dtype=bool)
        cached_chunks = np.where(hit_mask, footprints[positions], 0)
        stats = self.stats
        stats.reads += int(positions.size)
        stats.hits += int(np.count_nonzero(hit_mask))
        stats.promotions += promotions
        stats.evicted_chunks += evicted_chunks
        return TraceOutcome(hit_mask, cached_chunks, promotions, evicted_chunks)
