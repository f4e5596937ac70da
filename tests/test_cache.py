"""Disk cache: verified loads over Q and over F_p; atomic writes."""

import os

import pytest

from wenzl import cache as cache_module
from wenzl.cache import CacheIntegrityError, DiskCache
from wenzl.pjw import rational_pjw, reduce_pjw


@pytest.fixture
def reduced(caches):
    return reduce_pjw(rational_pjw(7, 3, caches))


def test_fp_pjw_roundtrip(tmp_path, reduced):
    DiskCache(tmp_path).store_morphism("pjw", 3, 7, reduced)
    assert DiskCache(tmp_path).load_morphism("pjw", "Fp:3", 3, 7) == reduced


@pytest.mark.parametrize("p,scale", [(3, 2), (2, 1)])
def test_tampered_fp_pjw_refused(tmp_path, reduced, p, scale):
    # a wrong value (scaled, or filed under another prime) with an honest
    # checksum must fail the load-time checks
    cache = DiskCache(tmp_path)
    cache.store_morphism("pjw", p, 7, reduced.scale(reduced.ring.from_int(scale)))
    with pytest.raises(CacheIntegrityError, match="defining checks"):
        cache.load_morphism("pjw", "Fp:3", p, 7)


def test_malformed_entry_refused(tmp_path, reduced):
    # a payload that no longer parses, filed with a matching checksum
    cache = DiskCache(tmp_path)
    path = cache.store_morphism("pjw", 3, 7, reduced)
    payload = path.read_text().replace('"coeff"', '"c"', 1)
    path.write_text(payload)
    cache.manifest[path.name] = cache._digest(payload)
    with pytest.raises(CacheIntegrityError, match="malformed"):
        cache.load_morphism("pjw", "Fp:3", 3, 7)


@pytest.mark.parametrize(
    "text",
    ["[]", "not json", '{"jw_Q_p0_n3.json": 7}', '"digest"', "\xff"],
    ids=["array", "not_json", "digest_not_string", "string", "not_utf8"],
)
def test_malformed_manifest_refused(tmp_path, text):
    (tmp_path / "manifest.json").write_bytes(text.encode("latin-1"))
    with pytest.raises(CacheIntegrityError, match="manifest"):
        DiskCache(tmp_path)


class _TornFile:
    """A file whose write stores half its text and then fails (a full disk)."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("torn", [1, 2], ids=["payload", "manifest"])
def test_failed_write_keeps_previous_entry(tmp_path, reduced, monkeypatch, torn):
    cache = DiskCache(tmp_path)
    cache.store_morphism("pjw", 3, 7, reduced)
    before = sorted(path.name for path in tmp_path.iterdir())
    real_fdopen = os.fdopen
    opened = []

    def fdopen(fd, *args, **kwargs):
        fh = real_fdopen(fd, *args, **kwargs)
        opened.append(fh)
        return _TornFile(fh) if len(opened) == torn else fh

    monkeypatch.setattr(cache_module.os, "fdopen", fdopen)
    with pytest.raises(OSError, match="No space"):
        cache.store_morphism("pjw", 3, 7, reduced.scale(reduced.ring.from_int(2)))
    monkeypatch.undo()
    assert len(opened) == torn
    assert sorted(path.name for path in tmp_path.iterdir()) == before
    assert cache.load_morphism("pjw", "Fp:3", 3, 7) == reduced
    assert DiskCache(tmp_path).load_morphism("pjw", "Fp:3", 3, 7) == reduced
