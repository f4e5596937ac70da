"""Disk cache: verified loads over Q and over F_p; atomic, merging writes."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wenzl
from wenzl import cache as cache_module
from wenzl.cache import CacheIntegrityError, DiskCache
from wenzl.jw import jones_wenzl
from wenzl.pjw import rational_pjw, reduce_pjw
from wenzl.rings import QQ
from wenzl.tl import TLMorphism, matching_flip, tensor_with_identity


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


def _asymmetric_jw3() -> TLMorphism:
    """JW_3 with one more unit on a diagram that its flip moves."""
    nums, den = jones_wenzl(3).ints()
    m = next(m for m in nums if matching_flip(m) is not m)
    nums = dict(nums)
    nums[m] += den
    return TLMorphism._from_nums(3, 3, QQ, *QQ.canonical(nums, den))


@pytest.mark.parametrize(
    "value", [TLMorphism.identity(3), TLMorphism.zero(3, 3), _asymmetric_jw3()]
)
def test_tampered_jw_refused(tmp_path, value):
    # the identity has identity coefficient 1 but e_1 does not kill it; the
    # zero map is killed by every generator but has identity coefficient 0;
    # the changed JW_3 has identity coefficient 1 but is not flip-symmetric
    cache = DiskCache(tmp_path)
    cache.store_morphism("jw", 0, 3, value)
    with pytest.raises(CacheIntegrityError, match="defining checks"):
        cache.load_morphism("jw", QQ.name, 0, 3)


def test_padded_jw_refused(tmp_path):
    # JW_7 (x) id passes every check but the mirror pass: identity
    # coefficient 1, flip-symmetric, killed by e_1 .. e_4 (not by e_7)
    cache = DiskCache(tmp_path)
    cache.store_morphism("jw", 0, 8, jones_wenzl(8))
    # rewritten in place, the manifest's digest updated with it
    cache.store_morphism("jw", 0, 8, tensor_with_identity(jones_wenzl(7), 1))
    with pytest.raises(CacheIntegrityError, match="defining checks"):
        DiskCache(tmp_path).load_morphism("jw", QQ.name, 0, 8)


def test_malformed_entry_refused(tmp_path, reduced):
    # a payload that no longer parses, filed with a matching checksum
    cache = DiskCache(tmp_path)
    path = cache.store_morphism("pjw", 3, 7, reduced)
    payload = path.read_text().replace('"coeff"', '"c"', 1)
    path.write_text(payload)
    cache.manifest[path.name] = cache._digest(payload)
    with pytest.raises(CacheIntegrityError, match="malformed"):
        cache.load_morphism("pjw", "Fp:3", 3, 7)


def test_two_writers_keep_each_others_entries(tmp_path, reduced, caches):
    # each writer read an empty manifest; the second must not drop the
    # first writer's digest when it writes its own
    first, second = DiskCache(tmp_path), DiskCache(tmp_path)
    rational = rational_pjw(7, 3, caches).total
    first.store_morphism("pjw", 3, 7, reduced)
    second.store_morphism("pjw", 3, 7, rational)
    reader = DiskCache(tmp_path)
    assert reader.load_morphism("pjw", "Fp:3", 3, 7) == reduced
    assert reader.load_morphism("pjw", "Q", 3, 7) == rational
    assert second.load_morphism("pjw", "Fp:3", 3, 7) == reduced


_WRITER = """
import sys, time
from wenzl.cache import DiskCache
from wenzl.jw import jones_wenzl
directory, worker, start = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
jw3 = jones_wenzl(3)
cache = DiskCache(directory)  # read before any worker writes
time.sleep(max(0.0, start - time.time()))
for j in range(40):
    cache.store_morphism("jw", 1000 * worker + j, 3, jw3)
"""


def test_concurrent_writer_processes_lose_no_entry(tmp_path):
    # more writers than cores, all storing at once; each entry must survive
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    start = time.time() + 2.0
    procs = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), str(w), repr(start)],
                         env=env, stderr=subprocess.PIPE, text=True)
        for w in range(3)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    reader = DiskCache(tmp_path)
    assert len(reader.manifest) == 120
    for w in range(3):
        for j in range(0, 40, 13):
            assert reader.load_morphism("jw", "Q", 1000 * w + j, 3) is not None


def test_reader_sees_entries_stored_after_it_opened(tmp_path, reduced, caches):
    writer = DiskCache(tmp_path)
    writer.store_morphism("pjw", 3, 7, reduced.scale(reduced.ring.from_int(2)))
    reader = DiskCache(tmp_path)  # holds the scaled entry's digest
    rational = rational_pjw(7, 3, caches).total
    writer.store_morphism("pjw", 3, 7, rational)  # a new entry
    writer.store_morphism("pjw", 3, 7, reduced)  # a replaced one
    assert reader.load_morphism("pjw", "Q", 3, 7) == rational
    assert reader.load_morphism("pjw", "Fp:3", 3, 7) == reduced
    # a payload that matches no manifest, old or new, is still refused
    path = tmp_path / "pjw_Q_p3_n7.json"
    path.write_text(path.read_text() + " ")
    with pytest.raises(CacheIntegrityError, match="checksum"):
        reader.load_morphism("pjw", "Q", 3, 7)


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


@pytest.mark.parametrize("failing", [1, 2], ids=["payload", "manifest"])
def test_failed_replace_leaves_no_staged_file(tmp_path, reduced, monkeypatch, failing):
    cache = DiskCache(tmp_path)
    cache.store_morphism("pjw", 3, 7, reduced)
    before = sorted(path.name for path in tmp_path.iterdir())
    real_replace = os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == failing:
            raise OSError(5, "Input/output error")
        real_replace(src, dst)

    monkeypatch.setattr(cache_module.os, "replace", replace)
    with pytest.raises(OSError, match="Input/output"):
        cache.store_morphism("pjw", 3, 7, reduced.scale(reduced.ring.from_int(2)))
    monkeypatch.undo()
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_reader_that_cannot_open_the_lock_refuses(tmp_path, reduced, caches, monkeypatch):
    # a reader of a directory it cannot write: the lock file cannot be
    # opened (root ignores chmod, so the open is made to fail)
    writer = DiskCache(tmp_path)
    reader = DiskCache(tmp_path)  # read before the entry was stored
    writer.store_morphism("pjw", 3, 7, reduced)
    real_open = os.open

    def no_lock(path, *args, **kwargs):
        if Path(path).name == "manifest.lock":
            raise PermissionError(13, "Permission denied", str(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr(cache_module.os, "open", no_lock)
    with pytest.raises(CacheIntegrityError, match="checksum"):
        reader.load_morphism("pjw", "Fp:3", 3, 7)
    path = tmp_path / "pjw_Fp_3_p3_n7.json"
    path.write_text(path.read_text() + " ")
    with pytest.raises(CacheIntegrityError, match="checksum"):
        DiskCache(tmp_path).load_morphism("pjw", "Fp:3", 3, 7)
    monkeypatch.undo()
    path.write_text(path.read_text()[:-1])
    assert reader.load_morphism("pjw", "Fp:3", 3, 7) == reduced  # re-read under the lock
