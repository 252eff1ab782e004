"""In-memory response cache with sha256 ETags and memoized gzip variants.

Everything the benchmark service serves from here is deterministic in
the testbed build (pages, XML, XSDs, the three zip bundles), in the
honor-roll store's revision (the honor-roll views) or in the query and
statistics (``/api/explain``), so responses are rendered once and
replayed from memory.  Each entry carries a strong ``ETag`` — the sha256
of the body — enabling conditional GETs, and lazily memoizes a
deterministic gzip variant (``mtime=0``) for clients that accept it.

:class:`ContentCache` is a :class:`~repro.cache.BoundedCache` held to
:data:`MAX_ENTRIES` entries and :data:`MAX_BYTES` of bodies, so
client-chosen keys (every distinct explained query) evict
least-recently-used responses instead of growing without end.  An
evicted response is rebuilt on its next request with the same bytes.
"""

from __future__ import annotations

import gzip
import hashlib
import threading
from dataclasses import dataclass, field
from typing import Callable

from ..cache import BoundedCache

Key = tuple

#: The whole static site is 161 entries: 0.54 MB of bodies at scale 1
#: and 2.0 MB at scale 8.  Both bounds hold it with wide headroom.
MAX_ENTRIES = 1024
MAX_BYTES = 32 * 1024 * 1024


@dataclass
class CacheEntry:
    """One cached response body plus its derived representations."""

    body: bytes
    content_type: str
    etag: str                       # quoted strong ETag: "<sha256>"
    revision: int | None = None     # store revision an honor-roll view shows
    gzip_body: bytes | None = None  # memoized on first gzip-accepting GET
    _gzip_lock: threading.Lock = field(default_factory=threading.Lock,
                                       repr=False)

    def gzipped(self) -> bytes:
        with self._gzip_lock:
            if self.gzip_body is None:
                # mtime=0 keeps the compressed bytes — and therefore any
                # downstream checksums — deterministic across requests.
                self.gzip_body = gzip.compress(self.body, mtime=0)
            return self.gzip_body


def make_etag(body: bytes) -> str:
    return f'"{hashlib.sha256(body).hexdigest()}"'


def make_entry(body: bytes, content_type: str,
               revision: int | None = None) -> CacheEntry:
    return CacheEntry(body=body, content_type=content_type,
                      etag=make_etag(body), revision=revision)


class ContentCache(BoundedCache[Key, CacheEntry]):
    """Thread-safe bounded response cache; ``bytes`` counts bodies."""

    def __init__(self) -> None:
        super().__init__(MAX_ENTRIES, max_bytes=MAX_BYTES,
                         sizeof=lambda entry: len(entry.body))

    def get_or_build(self, key: Key,
                     builder: Callable[[], tuple[bytes, str]],
                     revision: int | None = None) -> tuple[CacheEntry, bool]:
        """Return ``(entry, was_hit)``, building the body on a miss.

        With *revision*, an entry built at an older revision is stale:
        the body is rebuilt and replaces it under the same key.
        """
        entry, status = self.lookup(
            key, lambda: make_entry(*builder(), revision),
            None if revision is None
            else lambda held: held.revision >= revision)
        return entry, status != "miss"
