"""Checksummed disk cache of verified projectors.

Values are stored as the canonical JSON next to a manifest of sha256
digests.  Loading re-checks the digest and then re-runs the quick defining
checks (generator annihilation and identity coefficient for projectors; the
identity coefficient, closure value, and p-integrality, or the field's prime
over F_p, for decomposition totals), so a corrupted or tampered file
surfaces as CacheIntegrityError rather than as wrong math.  Trust, but
verify.

Each payload and each manifest is written to a temporary file in the cache
directory and moved into place with ``os.replace``, so a write that fails or
is killed part-way leaves the previous file whole.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .padic import p_support
from .rings import QQ, p_valuation
from .serialize import morphism_from_json, morphism_to_json
from .tl import TLMorphism, bottom_killed_upto, markov_trace, top_killed_upto

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
        self.manifest = {}
        if self.manifest_path.exists():
            try:
                self.manifest = json.loads(self.manifest_path.read_bytes())
            except ValueError as exc:  # not UTF-8 or not JSON
                raise CacheIntegrityError(f"unreadable manifest: {exc}") from exc
            if not isinstance(self.manifest, dict) or not all(
                type(v) is str for v in self.manifest.values()
            ):
                raise CacheIntegrityError("manifest is not a map of digest strings")

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
        manifest = {**self.manifest, name: self._digest(payload)}
        listing = json.dumps(manifest, indent=0, sort_keys=True)
        # both files are staged before either replaces its old version
        staged = self._stage(payload)
        try:
            staged_manifest = self._stage(listing)
        except BaseException:
            os.unlink(staged)
            raise
        os.replace(staged, self.directory / name)
        os.replace(staged_manifest, self.manifest_path)
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
            ok = (
                value.identity_coefficient() == value.ring.one
                and top_killed_upto(value, n)
                and bottom_killed_upto(value, n)
            )
            if not ok:
                raise CacheIntegrityError(f"defining checks failed for {name}")
        elif kind == "pjw":
            ring = value.ring
            if ring_name == QQ.name:
                integral = all(p_valuation(c, p) >= 0 for c in value.terms.values())
            else:
                integral = ring.p == p
            closure = sum((-1) ** i * (i + 1) for i in p_support(n, p).shifted)
            ok = (
                integral
                and value.identity_coefficient() == ring.one
                and markov_trace(value) == ring.from_rational(Fraction(closure))
            )
            if not ok:
                raise CacheIntegrityError(f"defining checks failed for {name}")
        else:
            raise CacheIntegrityError(f"unknown cache kind {kind!r}")
