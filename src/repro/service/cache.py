"""An on-disk, content-addressed artifact cache for Bean programs.

Lowered IR, call-inlined IR, and inferred judgments are pure functions
of the program text; recomputing them per process is the dominant cost
of a cold audit.  :class:`ArtifactCache` persists them under keys from
:mod:`repro.service.fingerprint` so any process — a CLI run, the audit
server, a shard worker — can warm-start from a previous one.

Layout (one file per artifact)::

    <root>/objects/<k[:2]>/<k>.art

where ``k`` is the hex fingerprint.  Entry format: a one-line magic
header, a hex SHA-256 of the payload, then the pickled payload.  Safety
properties, each covered by tests:

* **corruption-proof reads** — a truncated, garbled, or wrong-digest
  entry is treated as a miss (and unlinked best-effort), never an
  exception: the artifact is transparently recomputed;
* **atomic writes** — entries are written to a same-directory temp file
  and ``os.replace``-d into place, so concurrent writers (two servers
  sharing a cache directory, a pool of shard workers) can only ever
  race whole, valid entries against each other;
* **bounded size** — ``max_bytes`` evicts least-recently-used entries
  (by mtime; reads touch their entry) after each store.

:func:`activate` installs a process-global cache as the persistent
outer layer consulted by :mod:`repro.ir.cache` and
:mod:`repro.core.checker` behind their identity-keyed in-memory caches.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
from typing import Any, Callable, Dict, Optional, Union

from ..core import ast_nodes as A
from .fingerprint import (
    FINGERPRINT_VERSION,
    UnfingerprintableError,
    fingerprint_definition,
    fingerprint_program,
)

__all__ = ["ArtifactCache", "activate", "active_cache", "deactivate"]

_MAGIC = b"repro-artifact-v1\n"
_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


class ArtifactCache:
    """Content-addressed persistence for program-derived artifacts."""

    def __init__(
        self,
        root: Union[str, os.PathLike],
        *,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        if max_bytes is None:
            env = os.environ.get(_ENV_MAX_BYTES)
            max_bytes = int(env) if env else None
        self.max_bytes = max_bytes
        #: Process-local hit/miss counters (observability, tests).
        self.stats: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evicted": 0,
        }
        # Running size estimate so a bounded cache does not pay a full
        # directory scan per store (the scan happens once to seed the
        # estimate, then only when the estimate crosses max_bytes —
        # prune() re-measures exactly).  Concurrent writers can make
        # the estimate drift low, which only delays eviction.
        self._size_estimate: Optional[int] = None
        os.makedirs(self.objects_dir, exist_ok=True)

    # -- keying ------------------------------------------------------------

    def key_for(
        self,
        kind: str,
        definition: Optional[A.Definition],
        program: Optional[A.Program] = None,
    ) -> str:
        """The artifact key for ``kind`` of ``definition`` (or program)."""
        if definition is None:
            if program is None:
                raise ValueError("need a definition or a program to key on")
            return fingerprint_program(program, kind=kind)
        return fingerprint_definition(definition, program, kind=kind)

    def keyed_key(self, kind: str, fingerprint: str) -> str:
        """The artifact key for ``kind`` under a caller-supplied hash.

        For artifacts not keyed by one definition's (or one program's)
        own encoding — e.g. the ``summary`` kind, keyed by a *deep*
        fingerprint that folds in every transitive callee — the caller
        brings the content hash and this namespaces it by kind and
        fingerprint version so distinct artifact families can never
        collide on disk.
        """
        h = hashlib.sha256()
        for token in (f"keyed/{FINGERPRINT_VERSION}", kind, fingerprint):
            data = token.encode("utf-8")
            h.update(str(len(data)).encode("ascii") + b":" + data)
        return h.hexdigest()

    # -- raw entry I/O -----------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.objects_dir, key[:2], f"{key}.art")

    def load(self, key: str) -> Optional[Any]:
        """The stored artifact for ``key``, or ``None`` on miss/corruption."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                magic = handle.read(len(_MAGIC))
                digest_line = handle.read(65)
                blob = handle.read()
        except OSError:
            self.stats["misses"] += 1
            return None
        if (
            magic != _MAGIC
            or len(digest_line) != 65
            or digest_line[64:] != b"\n"
            or hashlib.sha256(blob).hexdigest().encode("ascii")
            != digest_line[:64]
        ):
            self._discard_corrupt(path)
            return None
        try:
            value = pickle.loads(blob)
        except Exception:  # noqa: BLE001 - any unpickling failure is a miss
            self._discard_corrupt(path)
            return None
        self.stats["hits"] += 1
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return value

    def _discard_corrupt(self, path: str) -> None:
        """A bad entry is a miss; drop it so it cannot keep costing reads."""
        self.stats["corrupt"] += 1
        self.stats["misses"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def store(self, key: str, value: Any) -> bool:
        """Persist ``value`` under ``key`` (atomic write-then-rename)."""
        try:
            blob = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - unpicklable artifacts just skip
            return False
        path = self._path(key)
        directory = os.path.dirname(path)
        data = (
            _MAGIC
            + hashlib.sha256(blob).hexdigest().encode("ascii")
            + b"\n"
            + blob
        )
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        self.stats["stores"] += 1
        if self.max_bytes is not None:
            if self._size_estimate is None:
                self._size_estimate = self.size_bytes()
            else:
                self._size_estimate += len(data)
            if self._size_estimate > self.max_bytes:
                self.prune(self.max_bytes)
        return True

    # -- the build-through API --------------------------------------------

    def get(
        self,
        kind: str,
        definition: Optional[A.Definition],
        program: Optional[A.Program],
        build: Callable[[], Any],
    ) -> Any:
        """Load ``kind`` for the program content, building + storing on miss.

        ASTs outside the fingerprintable kernel grammar skip persistence
        entirely and build directly.
        """
        try:
            key = self.key_for(kind, definition, program)
        except UnfingerprintableError:
            return build()
        value = self.load(key)
        if value is not None:
            return value
        value = build()
        self.store(key, value)
        return value

    # -- maintenance -------------------------------------------------------

    def _entries(self) -> list:
        entries = []
        try:
            buckets = os.scandir(self.objects_dir)
        except OSError:
            return entries
        with buckets:
            for bucket in buckets:
                if not bucket.is_dir():
                    continue
                try:
                    files = os.scandir(bucket.path)
                except OSError:
                    continue
                with files:
                    for entry in files:
                        if not entry.name.endswith(".art"):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        entries.append(
                            (stat.st_mtime, stat.st_size, entry.path)
                        )
        return entries

    def size_bytes(self) -> int:
        return sum(size for _, size, _ in self._entries())

    def __len__(self) -> int:
        return len(self._entries())

    def _sweep_stale_tmp(self, max_age_s: float = 3600.0) -> None:
        """Unlink orphaned ``*.tmp`` files from crashed writers.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves a
        temp file no ``*.art`` accounting ever sees; anything older than
        ``max_age_s`` cannot belong to an in-flight store.
        """
        cutoff = time.time() - max_age_s
        try:
            buckets = os.scandir(self.objects_dir)
        except OSError:
            return
        with buckets:
            for bucket in buckets:
                if not bucket.is_dir():
                    continue
                try:
                    files = os.scandir(bucket.path)
                except OSError:
                    continue
                with files:
                    for entry in files:
                        if not entry.name.endswith(".tmp"):
                            continue
                        try:
                            if entry.stat().st_mtime < cutoff:
                                os.unlink(entry.path)
                        except OSError:
                            continue

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used entries until under ``max_bytes``."""
        self._sweep_stale_tmp()
        entries = sorted(self._entries())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        for _, size, path in entries:
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        self._size_estimate = total
        self.stats["evicted"] += evicted
        return evicted

    def clear(self) -> None:
        self._sweep_stale_tmp(max_age_s=0.0)
        for _, _, path in self._entries():
            try:
                os.unlink(path)
            except OSError:
                pass
        self._size_estimate = 0


# --------------------------------------------------------------------------
# Process-global activation (the hook repro.ir.cache consults)
# --------------------------------------------------------------------------


def activate(
    root: Optional[Union[str, os.PathLike]] = None,
    *,
    max_bytes: Optional[int] = None,
) -> ArtifactCache:
    """Install an :class:`ArtifactCache` as this process's outer layer.

    ``root`` defaults to ``$REPRO_CACHE_DIR``.  In-memory identity
    caches are cleared so artifacts built before activation do not
    bypass persistence for the rest of the process.  Re-activating the
    directory that is already active is a no-op (keeping warm identity
    caches intact), so per-request callers like the audit server and
    :func:`repro.semantics.shard.run_witness_sharded` can pass their
    ``cache_dir`` unconditionally.
    """
    from ..ir import cache as ir_cache

    if root is None:
        root = os.environ.get(_ENV_DIR)
        if not root:
            raise ValueError(
                "no cache directory: pass one or set $REPRO_CACHE_DIR"
            )
    current = ir_cache.persistent_cache()
    if (
        isinstance(current, ArtifactCache)
        and os.path.abspath(current.root) == os.path.abspath(os.fspath(root))
    ):
        if max_bytes is not None:
            current.max_bytes = max_bytes
        return current
    cache = ArtifactCache(root, max_bytes=max_bytes)
    ir_cache.set_persistent_cache(cache)
    return cache


def active_cache() -> Optional[ArtifactCache]:
    """The process-global cache installed by :func:`activate`, if any."""
    from ..ir import cache as ir_cache

    cache = ir_cache.persistent_cache()
    return cache if isinstance(cache, ArtifactCache) else None


def deactivate() -> None:
    """Remove the persistent layer (tests)."""
    from ..ir import cache as ir_cache

    ir_cache.set_persistent_cache(None)
