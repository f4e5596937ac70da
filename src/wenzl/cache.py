"""Checksummed disk cache of verified projectors.

Values are stored as the canonical JSON next to a manifest of sha256
digests.  Loading re-checks the digest and then re-runs the quick defining
checks (``jw.is_jones_wenzl`` for projectors, as at insertion: identity
coefficient 1, floor(n/2) top generator scans plus flip and mirror passes,
which stand for the other scans; the identity coefficient, closure value,
and p-integrality, or the field's prime over F_p, for decomposition
totals), so a corrupted or tampered file surfaces as CacheIntegrityError
rather than as wrong math.  Trust, but verify.

Each payload and each manifest is written to a temporary file in the cache
directory and moved into place with ``os.replace``, so a write that fails or
is killed part-way leaves the previous file whole.  Writers on one directory
take an exclusive ``flock`` on ``manifest.lock`` there, re-read the manifest
on disk and add their digest to it, so concurrent writers keep each other's
entries; a reader whose copy of the manifest lacks an entry, or holds an
older digest for it, reads both files again under a shared lock on that file
before it refuses the entry.  A reader that cannot open the lock file (a
directory it cannot write, with no lock file yet) refuses at once.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from .jw import is_jones_wenzl
from .padic import p_support
from .rings import QQ, min_p_valuation
from .serialize import morphism_from_json, morphism_to_json
from .tl import TLMorphism, markov_trace

ENV_CACHE_DIR = "WENZL_CACHE_DIR"


class CacheIntegrityError(RuntimeError):
    """A cache entry failed its checksum or its load-time checks."""


def default_cache_dir() -> Optional[Path]:
    path = os.environ.get(ENV_CACHE_DIR)
    return Path(path) if path else None


class DiskCache:
    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.directory / "manifest.json"
        self.lock_path = self.directory / "manifest.lock"
        self.manifest = self._read_manifest()

    def _read_manifest(self) -> dict:
        """The manifest on disk (empty when absent); CacheIntegrityError if bad."""
        if not self.manifest_path.exists():
            return {}
        try:
            manifest = json.loads(self.manifest_path.read_bytes())
        except ValueError as exc:  # not UTF-8 or not JSON
            raise CacheIntegrityError(f"unreadable manifest: {exc}") from exc
        if not isinstance(manifest, dict) or not all(
            type(v) is str for v in manifest.values()
        ):
            raise CacheIntegrityError("manifest is not a map of digest strings")
        return manifest

    @contextmanager
    def _locked(self):
        """Hold the writers' exclusive lock on this directory."""
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(fd)  # releases the lock

    def _reread(self, path: Path) -> Optional[str]:
        """Read path and the manifest again under a shared lock; path's text.

        None when the lock file cannot be opened, as in a directory this
        reader cannot write that no writer has locked yet.
        """
        try:
            fd = os.open(self.lock_path, os.O_RDONLY)
        except OSError:
            return None
        try:
            fcntl.flock(fd, fcntl.LOCK_SH)
            payload = path.read_text()
            self.manifest = self._read_manifest()
        finally:
            os.close(fd)  # releases the lock
        return payload

    def _stage(self, text: str) -> str:
        """text in a new temporary file in the cache directory; its path."""
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
        except BaseException:
            os.unlink(tmp)
            raise
        return tmp

    @staticmethod
    def _digest(payload: str) -> str:
        return hashlib.sha256(payload.encode()).hexdigest()

    def _filename(self, kind: str, ring_name: str, p: int, n: int) -> str:
        ring_tag = ring_name.replace(":", "_")
        return f"{kind}_{ring_tag}_p{p}_n{n}.json"

    def store_morphism(
        self, kind: str, p: int, n: int, value: TLMorphism
    ) -> Path:
        payload = morphism_to_json(value)
        name = self._filename(kind, value.ring.name, p, n)
        staged = self._stage(payload)
        staged_manifest = None
        try:
            # another writer may have added entries since this object read
            # the manifest: merge into the one on disk, under the lock
            with self._locked():
                manifest = {**self._read_manifest(), name: self._digest(payload)}
                listing = json.dumps(manifest, indent=0, sort_keys=True)
                # both files are staged before either replaces its old version
                staged_manifest = self._stage(listing)
                os.replace(staged, self.directory / name)
                os.replace(staged_manifest, self.manifest_path)
        except BaseException:
            for tmp in (staged, staged_manifest):
                if tmp is not None and os.path.exists(tmp):
                    os.unlink(tmp)
            raise
        self.manifest = manifest
        return self.directory / name

    def load_morphism(
        self, kind: str, ring_name: str, p: int, n: int
    ) -> Optional[TLMorphism]:
        """Load and re-verify; None when absent, CacheIntegrityError when bad."""
        name = self._filename(kind, ring_name, p, n)
        path = self.directory / name
        if not path.exists():
            return None
        payload = path.read_text()
        want = self.manifest.get(name)
        if want is None or self._digest(payload) != want:
            # another writer may have stored this entry since the manifest
            # was read: read both again, between writes, before refusing
            payload = self._reread(path)
            want = self.manifest.get(name)
            if payload is None or want is None or self._digest(payload) != want:
                raise CacheIntegrityError(f"checksum mismatch for {name}")
        try:
            value = morphism_from_json(payload)
        except ValueError as exc:  # malformed under a matching checksum
            raise CacheIntegrityError(f"malformed {name}: {exc}") from exc
        self._quick_checks(kind, ring_name, p, n, value, name)
        return value

    def _quick_checks(
        self, kind: str, ring_name: str, p: int, n: int, value: TLMorphism, name: str
    ) -> None:
        if value.bottom != n or value.top != n or value.ring.name != ring_name:
            raise CacheIntegrityError(f"wrong shape in {name}")
        if kind == "jw":
            if not is_jones_wenzl(value, n):
                raise CacheIntegrityError(f"defining checks failed for {name}")
        elif kind == "pjw":
            ring = value.ring
            if ring_name == QQ.name:
                nums, den = value.ints()
                integral = min_p_valuation(nums.values(), den, p) >= 0
            else:
                integral = ring.p == p
            closure = sum((-1) ** i * (i + 1) for i in p_support(n, p).shifted)
            ok = (
                integral
                and value.identity_coefficient() == ring.one
                and markov_trace(value) == ring.from_int(closure)
            )
            if not ok:
                raise CacheIntegrityError(f"defining checks failed for {name}")
        else:
            raise CacheIntegrityError(f"unknown cache kind {kind!r}")
