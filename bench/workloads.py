"""The benchmark's workloads: set-up, timed phase and output check.

Each workload runs in a fresh Python process (see child.py), so the module
level tables of ``wenzl`` (intern table, compose memo, ``lru_cache``s, the
global projector and decomposition caches) start empty and every run pays
the cold cost a ``wenzl`` invocation pays.

A workload is three functions:

* ``setup(seed, workdir)`` builds the inputs and returns a state dict;
* ``timed(state)`` does the measured work and returns its outputs.  It
  calls the program through module attributes (``jw.jones_wenzl``), never
  through references taken in set-up, so the tracer's rebinding sees it;
* ``check(state, outputs, reference)`` returns ``(attempted, failures,
  direct_checks)``: how many operations the timed phase made, a list of
  failure descriptions (digest mismatch, wrong exit code, exception) and
  the workload's count of directly verified identities.

``reference`` holds sha256 digests kept in reference.json beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    params: dict
    setup: Callable
    timed: Callable
    check: Callable


# ---------------------------------------------------------------------------
# jw_build: cold JW_10 over Q
# ---------------------------------------------------------------------------

JW_BUILD_N = 10


def jw_build_setup(seed: int, workdir: Path) -> dict:
    from wenzl import jw

    return {"jw": jw}


def jw_build_timed(state: dict) -> dict:
    return {"jw": state["jw"].jones_wenzl(JW_BUILD_N)}


def jw_build_check(state: dict, outputs: dict, reference: dict):
    from wenzl.jw import GLOBAL_JW_CACHE
    from wenzl.serialize import morphism_to_json

    failures = []
    got = sha256(morphism_to_json(outputs["jw"]))
    if got != reference["jw"]:
        failures.append(f"JW_{JW_BUILD_N} digest {got} != reference")
    # every projector JW_2..JW_n was verified when it entered the cache
    return 1, failures, len(GLOBAL_JW_CACHE)


# ---------------------------------------------------------------------------
# verify_p3: `wenzl verify --p 3 --max-n 10`, in-process
# ---------------------------------------------------------------------------

VERIFY_P = 3
VERIFY_MAX_N = 10


def verify_p3_setup(seed: int, workdir: Path) -> dict:
    from wenzl import cli

    return {"cli": cli}


def verify_p3_timed(state: dict) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = state["cli"].main(
            ["verify", "--p", str(VERIFY_P), "--max-n", str(VERIFY_MAX_N)]
        )
    return {"code": code, "stdout": buf.getvalue()}


def battery_modes(p: int, max_n: int) -> list:
    """(n, check, mode) for every battery check at p, n <= max_n (cached)."""
    from wenzl.pjw import rational_pjw, verify_battery

    return [
        [n, c.name, c.mode]
        for n in range(1, max_n + 1)
        for c in verify_battery(rational_pjw(n, p)).checks
    ]


def verify_p3_check(state: dict, outputs: dict, reference: dict):
    failures = []
    if outputs["code"] != 0:
        failures.append(f"exit code {outputs['code']}")
    report = json.loads(outputs["stdout"])
    if report.get("ok") is not True:
        failures.append("report is not ok")
    passed = [[e["check"], e["n"], e["passed"]] for e in report["checks"]]
    if sha256(json.dumps(passed)) != reference["checks"]:
        failures.append("(check, n, passed) list differs from reference")
    modes = battery_modes(VERIFY_P, VERIFY_MAX_N)
    if sha256(json.dumps(modes)) != reference["modes"]:
        failures.append("battery check modes differ from reference")
    direct = sum(1 for _, _, mode in modes if mode == "direct")
    return 1, failures, direct


# ---------------------------------------------------------------------------
# cache_roundtrip: DiskCache writes and verified reads, JSON round-trips
# ---------------------------------------------------------------------------

CACHE_P = 3
CACHE_N = 9
CACHE_JW_FP_N = 8
RANDOM_N = 10
RANDOM_TERMS = 1500
RANDOM_PRIMES = (2, 3, 5, 7, 11, 13)


def random_morphism(rng: random.Random, ring, basis) -> "TLMorphism":
    from wenzl.rings import QQ
    from wenzl.tl import TLMorphism

    terms = {}
    for m in rng.sample(basis, RANDOM_TERMS):
        if ring is QQ:
            c = QQ.fraction(rng.randint(-10**6, 10**6) or 1, rng.randint(1, 10**6))
        else:
            c = rng.randint(1, ring.p - 1)
        terms[m] = c
    return TLMorphism(RANDOM_N, RANDOM_N, ring, terms)


def cache_roundtrip_setup(seed: int, workdir: Path) -> dict:
    from wenzl import cache, pjw, serialize
    from wenzl.jw import jones_wenzl
    from wenzl.rings import PrimeFieldRing, QQ
    from wenzl.tl import enumerate_basis

    dec = pjw.rational_pjw(CACHE_N, CACHE_P)
    fp = PrimeFieldRing(CACHE_P)
    # (kind, p, n, value); load keys follow from value.ring
    entries = [
        ("jw", 0, CACHE_N, jones_wenzl(CACHE_N, QQ)),
        ("pjw", CACHE_P, CACHE_N, dec.total),
        ("pjw", CACHE_P, CACHE_N, pjw.reduce_pjw(dec)),
        ("jw", CACHE_P, CACHE_JW_FP_N, jones_wenzl(CACHE_JW_FP_N, fp)),
    ]
    rng = random.Random(seed)
    basis = list(enumerate_basis(RANDOM_N, RANDOM_N))
    prime = PrimeFieldRing(rng.choice(RANDOM_PRIMES))
    randoms = [random_morphism(rng, ring, basis) for ring in (QQ, prime, QQ, prime)]
    return {
        "cache": cache,
        "pjw": pjw,
        "serialize": serialize,
        "entries": entries,
        "randoms": randoms,
        "dir": workdir / "disk-cache",
    }


def cache_roundtrip_timed(state: dict) -> dict:
    cache, serialize = state["cache"], state["serialize"]
    directory = state["dir"]
    shutil.rmtree(directory, ignore_errors=True)
    writer = cache.DiskCache(directory)
    paths = [writer.store_morphism(kind, p, n, v) for kind, p, n, v in state["entries"]]
    reader = cache.DiskCache(directory)
    loaded = [
        reader.load_morphism(kind, v.ring.name, p, n)
        for kind, p, n, v in state["entries"]
    ]
    decomposition = serialize.decomposition_to_json(
        state["pjw"].rational_pjw(CACHE_N, CACHE_P)
    )
    round_trips = [
        serialize.morphism_from_json(serialize.morphism_to_json(x))
        for x in state["randoms"]
    ]
    return {
        "paths": paths,
        "loaded": loaded,
        "decomposition": decomposition,
        "round_trips": round_trips,
    }


def tampered_rejections(state: dict) -> int:
    """How many of the cached kinds the load-time checks actually verify.

    Each entry is stored again scaled by 2 (a wrong value under a valid
    checksum) and loaded; an entry counts when the load refuses it.
    """
    from wenzl.cache import CacheIntegrityError

    directory = state["dir"].with_name("disk-cache-tampered")
    shutil.rmtree(directory, ignore_errors=True)
    cache = state["cache"].DiskCache(directory)
    rejected = 0
    for kind, p, n, v in state["entries"]:
        cache.store_morphism(kind, p, n, v.scale(v.ring.from_int(2)))
        try:
            cache.load_morphism(kind, v.ring.name, p, n)
        except CacheIntegrityError:
            rejected += 1
    shutil.rmtree(directory, ignore_errors=True)
    return rejected


def cache_roundtrip_check(state: dict, outputs: dict, reference: dict):
    entries = state["entries"]
    failures = []
    for (kind, p, n, v), path, got in zip(entries, outputs["paths"], outputs["loaded"]):
        key = f"{kind}_{v.ring.name}_n{n}"
        if sha256(Path(path).read_text()) != reference[key]:
            failures.append(f"stored payload {key} differs from reference")
        if got != v:
            failures.append(f"loaded {key} differs from the stored value")
    if sha256(outputs["decomposition"]) != reference["decomposition"]:
        failures.append("decomposition JSON differs from reference")
    for i, (x, y) in enumerate(zip(state["randoms"], outputs["round_trips"])):
        if x != y:
            failures.append(f"random morphism {i} changed in the JSON round trip")
    shutil.rmtree(state["dir"], ignore_errors=True)
    attempted = 2 * len(entries) + 1 + len(state["randoms"])
    return attempted, failures, tampered_rejections(state)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("jw_build", {"n": JW_BUILD_N, "ring": "Q"},
                 jw_build_setup, jw_build_timed, jw_build_check),
        Workload("verify_p3", {"argv": ["verify", "--p", str(VERIFY_P),
                                        "--max-n", str(VERIFY_MAX_N)]},
                 verify_p3_setup, verify_p3_timed, verify_p3_check),
        Workload("cache_roundtrip",
                 {"p": CACHE_P, "n": CACHE_N, "jw_fp_n": CACHE_JW_FP_N,
                  "random_n": RANDOM_N, "random_terms": RANDOM_TERMS,
                  "random_count": 4, "random_primes": list(RANDOM_PRIMES)},
                 cache_roundtrip_setup, cache_roundtrip_timed,
                 cache_roundtrip_check),
    )
}
