"""Exit-code contract and output formats of the command-line front end."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wenzl
from wenzl import cli
from wenzl.cli import main
from wenzl.jw import JWVerificationError
from wenzl.pjw import PJWIntegrityError
from wenzl.tl import catalan


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_jw_json(capsys):
    code, out, _ = run(capsys, "jw", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["bottom"] == 2
    coeffs = sorted(t["coeff"] for t in payload["terms"])
    assert coeffs == ["1", "1/2"]


def test_jw_text(capsys):
    code, out, _ = run(capsys, "jw", "--n", "1", "--format", "text")
    assert code == 0
    assert "1 term(s)" in out


def test_jw_undefined_over_f2(capsys):
    code, _, err = run(capsys, "jw", "--n", "4", "--ring", "fp:2")
    assert code == 2
    assert "2" in err


def test_jw_over_61_bit_prime(capsys):
    code, out, _ = run(capsys, "jw", "--n", "4", "--ring", "fp:2305843009213693951")
    assert code == 0
    assert json.loads(out)["ring"] == "Fp:2305843009213693951"


def test_usage_error_exit_1(capsys):
    assert main(["jw"]) == 1  # missing --n
    assert main(["frobnicate"]) == 1
    assert main(["jw", "--n", "2", "--ring", "Z"]) == 1


def test_help_exit_0(capsys):
    assert main(["--help"]) == 0


def test_pjw_text(capsys):
    code, out, _ = run(capsys, "pjw", "--p", "2", "--n", "10")
    assert code == 0
    assert "{4: -5/8, 6: 3/4, 8: -9/10, 10: 1}" in out
    assert "min 2-valuation: 0" in out


def test_pjw_adam(capsys):
    code, out, _ = run(capsys, "pjw", "--p", "3", "--n", "8")
    assert code == 0
    assert "{8: 1}" in out


def test_pjw_fp_reduction(capsys):
    code, out, _ = run(capsys, "pjw", "--p", "3", "--n", "10", "--ring", "fp", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ring"] == "Fp:3"


def test_pjw_json_export(capsys):
    code, out, _ = run(capsys, "pjw", "--p", "3", "--n", "10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert [t["i"] for t in payload["terms"]] == [6, 10]


def test_hecke_pcanonical(capsys):
    code, out, _ = run(capsys, "hecke", "pcanonical", "--p", "2", "--n", "11")
    assert code == 0
    assert out.strip() == "pb[11] = b5 + b7 + b9 + b11"


def test_hecke_pcanonical_adam(capsys):
    code, out, _ = run(capsys, "hecke", "pcanonical", "--p", "5", "--n", "5")
    assert code == 0
    assert out.strip() == "pb[5] = b5"


def test_hecke_lemma(capsys):
    code, out, _ = run(capsys, "hecke", "lemma", "--p", "3", "--n", "10")
    assert code == 0
    assert "2*b9" in out and "PASS" in out


def test_hecke_nonprime_usage(capsys):
    assert main(["hecke", "pcanonical", "--p", "4", "--n", "5"]) == 1


def test_render_roundtrip(tmp_path, capsys):
    code, out, _ = run(capsys, "jw", "--n", "2")
    path = tmp_path / "m.json"
    path.write_text(out)
    code, out, _ = run(capsys, "render", str(path))
    assert code == 0
    assert "1/2" in out
    code, out, _ = run(capsys, "render", str(path), "--format", "tikz")
    assert code == 0
    assert "tikzpicture" in out


def test_render_bad_file(capsys):
    assert main(["render", "/nonexistent/morphism.json"]) == 1


_TERM = {"pairs": [[0, 3], [1, 2]], "coeff": "1/2"}
_MALFORMED = {
    "zero_denominator": {"bottom": 2, "top": 2, "ring": "Q",
                         "terms": [dict(_TERM, coeff="1/0")]},
    "missing_coeff": {"bottom": 2, "top": 2, "ring": "Q",
                      "terms": [{"pairs": _TERM["pairs"]}]},
    "top_level_array": [_TERM],
}


@pytest.mark.parametrize("doc", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_render_malformed_morphism(doc):
    # a real process, so an escaping exception would show as a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wenzl.cli", "render", "-"],
        input=json.dumps(doc), capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_verify_quick(capsys):
    code, out, _ = run(capsys, "verify", "--p", "2", "--max-n", "5", "--depth", "quick")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) > 20
    checks = payload["checks"]
    assert checks == sorted(checks, key=lambda e: (e["check"], e["n"]))


def test_verify_detects_corrupted_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    # populate the cache
    code, _, _ = run(capsys, "--cache-dir", str(cache_dir), "jw", "--n", "3")
    assert code == 0
    # corrupt the stored projector
    victim = next(p for p in cache_dir.iterdir() if p.name.startswith("jw_"))
    victim.write_text(victim.read_text().replace("1/3", "2/3"))
    code, _, err = run(
        capsys, "--cache-dir", str(cache_dir), "jw", "--n", "3"
    )
    assert code == 3
    assert "checksum" in err


def test_verify_detects_tampered_manifest(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    code, _, _ = run(capsys, "--cache-dir", str(cache_dir), "jw", "--n", "3")
    assert code == 0
    victim = next(p for p in cache_dir.iterdir() if p.name.startswith("jw_"))
    payload = json.loads(victim.read_text())
    # flip a coefficient but keep the checksum honest: recompute manifest
    payload["terms"][0]["coeff"] = "7"
    victim.write_text(json.dumps(payload))
    import hashlib

    manifest_path = cache_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest[victim.name] = hashlib.sha256(victim.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    # checksum passes, defining checks must catch it
    code, _, err = run(capsys, "--cache-dir", str(cache_dir), "jw", "--n", "3")
    assert code == 3
    assert "defining checks" in err


@pytest.mark.parametrize("manifest", ["[]", "{not json"], ids=["array", "not_json"])
@pytest.mark.parametrize(
    "argv",
    [["jw", "--n", "3"], ["verify", "--p", "2", "--max-n", "2", "--depth", "quick"]],
    ids=["jw", "verify"],
)
def test_malformed_manifest_exit_3(tmp_path, manifest, argv):
    # a real process, so an escaping exception would show as a traceback
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "manifest.json").write_text(manifest)
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "wenzl.cli", "--cache-dir", str(cache_dir), *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("cache integrity failure: ")
    assert proc.stdout == ""


def test_verify_records_closure_failure(monkeypatch, capsys):
    def broken_close_jw(n, m, cache=None):
        raise JWVerificationError(f"closure of JW_{n} is wrong")

    monkeypatch.setattr(cli, "close_jw", broken_close_jw)
    code, out, _ = run(capsys, "verify", "--p", "2", "--max-n", "3", "--depth", "quick")
    assert code == 3
    payload = json.loads(out)
    assert payload["ok"] is False
    steps = [e for e in payload["checks"] if e["check"] == "jw_closure_step"]
    assert [e["n"] for e in steps] == [1, 2, 3]
    assert not any(e["passed"] for e in steps)
    assert "closure of JW_1 is wrong" in steps[0]["detail"]


@pytest.mark.parametrize(
    "target,error,argv",
    [
        ("jones_wenzl", JWVerificationError, ["jw", "--n", "3"]),
        ("rational_pjw", PJWIntegrityError, ["pjw", "--p", "2", "--n", "4"]),
    ],
)
def test_internal_verification_failure_exit_3(monkeypatch, capsys, target, error, argv):
    def broken(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(cli, target, broken)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "injected failure" in err


def test_size_bound_admits_n_up_to_12():
    assert cli.MAX_N == 12
    assert catalan(12) <= cli.MAX_BASIS < catalan(13)


@pytest.mark.parametrize(
    "argv",
    [["jw", "--n", "40"], ["pjw", "--p", "2", "--n", "40"],
     ["verify", "--p", "2", "--max-n", "40"], ["jw", "--n", "13"]],
    ids=["jw", "pjw", "verify", "jw_13"],
)
def test_oversized_n_refused_quickly(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "wenzl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.monotonic() - started < 20
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "too large" in proc.stderr
    assert proc.stdout == ""


def test_hecke_bound_admits_max_hecke_n(capsys):
    n = str(cli.MAX_HECKE_N)
    code, out, _ = run(capsys, "hecke", "lemma", "--p", "3", "--n", n)
    assert code == 0 and out.startswith(f"n={n}: ") and "PASS" in out
    code, out, _ = run(capsys, "hecke", "pcanonical", "--p", "2", "--n", n)
    assert code == 0 and out.startswith(f"pb[{n}] = ")


@pytest.mark.parametrize(
    "argv",
    [["hecke", "lemma", "--p", "2", "--n", "824633720831"],
     ["hecke", "pcanonical", "--p", "2", "--n", "5", "--to", "2048"]],
    ids=["lemma_n", "pcanonical_to"],
)
def test_oversized_hecke_n_refused_quickly(argv):
    # n = 2**39 + 2**38 - 1 has gap 2**38 to its father: unbounded, the
    # lemma would multiply that many times
    env = dict(os.environ, PYTHONPATH=str(Path(wenzl.__file__).parents[1]))
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "wenzl.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.monotonic() - started < 20
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "too large" in proc.stderr
    assert proc.stdout == ""
