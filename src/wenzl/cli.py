"""Command-line front end.

Subcommands: jw, pjw, verify, hecke (pcanonical | lemma), render.

Exit codes: 0 success, 1 usage error, 2 the requested value is undefined
over the requested ring, 3 a verification or cache-integrity failure.

Size bound: ``jw --n``, ``pjw --n`` and ``verify --max-n`` refuse any n whose
Hom(n, n) has more than MAX_BASIS = catalan(12) = 208 012 diagrams, that is
n >= 13, with exit 1 before anything is built.  JW_12 takes seconds and
about 0.5 GB; each further strand multiplies both by about 3.6.  A negative
n, a ``pjw --n`` below 1 and a p that is not prime are refused the same way,
with an ``error:`` line.

Hecke bound: ``hecke --n`` and ``--to`` refuse a negative n, and any n above
MAX_HECKE_N = 2047, the same way; so do a ``--to`` below ``--n``,
``pcanonical`` an n below 2 and ``lemma`` an n it cannot check (n = 0, or
an n with no father).  ``lemma`` multiplies up through the gap to
the father one generator at a time, so its time grows with the square of
the gap, which reaches a third of n.  On a 2-core VM the largest gap below
the bound takes 0.1 s (p = 2, n = 1535, gap 512); n = 6143 (gap 2048) takes
1.3-2.0 s.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .cache import CacheIntegrityError, DiskCache, default_cache_dir
from .hecke import lemma_positivity_check, p_canonical
from .jw import (
    GLOBAL_JW_CACHE,
    JWVerificationError,
    close_jw,
    jones_wenzl,
    sandwich_test,
)
from .padic import lucas_jw_defined, p_support, require_prime, support_via_admissible
from .pjw import (
    GLOBAL_CACHES,
    PJWIntegrityError,
    rational_pjw,
    reduce_pjw,
    verify_battery,
)
from .rings import NonInvertible, PrimeFieldRing, QQ, min_p_valuation
from .render import ascii_morphism, tikz_morphism
from .serialize import (
    decomposition_to_json,
    hecke_to_json,
    morphism_from_json,
    morphism_to_json,
)
from .tl import catalan

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNDEFINED = 2
EXIT_VERIFY = 3

MAX_BASIS = 208_012  # catalan(12): the largest Hom(n, n) a command builds in
MAX_N = next(k for k in itertools.count() if catalan(k + 1) > MAX_BASIS)
MAX_HECKE_N = 2047  # the largest hecke --n or --to (see the module notes)


def _refuse_negative(n: int) -> None:
    if n < 0:
        raise ValueError(f"n must be a natural number, got {n}")


def _admit(n: int) -> None:
    """Refuse a negative n, or one beyond the size bound (see the module notes)."""
    _refuse_negative(n)
    if n > MAX_N:  # catalan grows, so this is catalan(n) > MAX_BASIS
        raise ValueError(
            f"n = {n} is too large: Hom(n, n) would have more than "
            f"{MAX_BASIS} diagrams (n <= {MAX_N})"
        )


def _parse_ring(spec: str):
    spec = spec.strip().lower()
    if spec in ("q", "rational"):
        return QQ
    if spec.startswith("fp:"):
        return PrimeFieldRing(int(spec[3:]))
    raise ValueError(f"unknown ring {spec!r} (use 'Q' or 'fp:<p>')")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_morphism(f, fmt: str, out_path: str | None, notes=()) -> None:
    """f as indented JSON, as TikZ, or as ASCII art followed by ``notes``."""
    if fmt == "json":
        _emit(morphism_to_json(f, indent=2), out_path)
    elif fmt == "tikz":
        _emit(tikz_morphism(f), out_path)
    else:
        _emit("\n".join([ascii_morphism(f), *notes]), out_path)


def _disk_cache(args) -> DiskCache | None:
    path = getattr(args, "cache_dir", None) or default_cache_dir()
    return DiskCache(path) if path else None


def cmd_jw(args) -> int:
    _admit(args.n)
    ring = _parse_ring(args.ring)
    p = ring.p if isinstance(ring, PrimeFieldRing) else 0
    disk = _disk_cache(args)
    value = None
    if disk is not None:
        value = disk.load_morphism("jw", ring.name, p, args.n)
    if value is None:
        try:
            value = jones_wenzl(args.n, ring, GLOBAL_JW_CACHE)
        except NonInvertible as exc:
            print(f"undefined: {exc}", file=sys.stderr)
            return EXIT_UNDEFINED
        if disk is not None:
            disk.store_morphism("jw", p, args.n, value)
    notes = []
    if args.format == "text":
        notes.append(f"terms: {len(value.terms)}")
        if ring is QQ:
            maxden = max((c.denominator for _, c in value.items()), default=1)
            notes.append(f"max denominator: {maxden}")
    _emit_morphism(value, args.format, args.out, notes)
    return EXIT_OK


def cmd_pjw(args) -> int:
    _admit(args.n)
    if args.n < 1:
        raise ValueError(f"pjw needs --n >= 1, got {args.n}")
    require_prime(args.p)
    dec = rational_pjw(args.n, args.p, GLOBAL_CACHES)
    if args.verify:
        report = verify_battery(dec, GLOBAL_CACHES)
        if not report.ok:
            for c in report.failures():
                print(c.line(), file=sys.stderr)
            return EXIT_VERIFY
    if args.ring == "fp" or args.format == "tikz":
        total = reduce_pjw(dec) if args.ring == "fp" else dec.total
        _emit_morphism(total, args.format, args.out)
    elif args.format == "json":
        _emit(decomposition_to_json(dec, indent=2), args.out)
    else:
        lam = ", ".join(f"{i}: {t.lam}" for i, t in sorted(dec.terms.items()))
        nums, den = dec.total.ints()
        minval = min_p_valuation(nums.values(), den, args.p)
        lines = [
            f"lambda table: {{{lam}}}",
            f"terms in total: {len(dec.total.terms)}",
            f"min {args.p}-valuation: {minval}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _admit(args.max_n)
    p = args.p
    require_prime(p)
    quick = args.depth == "quick"
    entries = []
    ok = True

    def record(check: str, n: int, passed: bool, detail: str = ""):
        nonlocal ok
        ok = ok and bool(passed)
        entries.append(
            {"check": check, "n": n, "p": p, "passed": bool(passed), "detail": detail}
        )

    # digit combinatorics
    digit_limit = args.max_n if quick else max(args.max_n, 200)
    for n in range(1, digit_limit + 1):
        record(
            "support_equivalence",
            n,
            p_support(n, p).supp == support_via_admissible(n, p),
        )

    # disk cache integrity (if a cache directory is configured)
    disk = _disk_cache(args)

    # classical projectors
    jw_limit = min(args.max_n, 8) if quick else args.max_n
    for n in range(1, jw_limit + 1):
        try:
            if disk is not None:
                cached = disk.load_morphism("jw", QQ.name, 0, n)
                if cached is not None and cached != jones_wenzl(n, QQ):
                    record("jw_cache_consistent", n, False, "cache value differs")
                    continue
            jones_wenzl(n, QQ)
        except CacheIntegrityError as exc:
            record("jw_cache_integrity", n, False, str(exc))
            continue
        except JWVerificationError as exc:
            record("jw_defined", n, False, str(exc))
            continue
        record("jw_defined", n, True)
        record(
            "jw_lucas",
            n,
            lucas_jw_defined(n, p)
            == _fp_defined(n, p),
        )
        try:
            _, lam = close_jw(n, min(1, n))
        except JWVerificationError as exc:
            record("jw_closure_step", n, False, str(exc))
        else:
            record("jw_closure_step", n, True, f"lambda {lam}")

    # sandwiches (small range; exhaustive inside)
    sandwich_limit = 6 if quick else 8
    for n in range(0, sandwich_limit + 1):
        for m in range(0, sandwich_limit + 1 - n):
            record(f"sandwich[{n},{m}]", n, sandwich_test(n, m))

    # p-projector batteries
    for n in range(1, args.max_n + 1):
        if quick and n > 8:
            break
        dec = rational_pjw(n, p, GLOBAL_CACHES)
        report = verify_battery(dec, GLOBAL_CACHES)
        for c in report.checks:
            record(f"pjw.{c.name}", n, c.passed, c.detail)
        if disk is not None:
            try:
                cached = disk.load_morphism("pjw", QQ.name, p, n)
                if cached is not None and cached != dec.total:
                    record("pjw_cache_consistent", n, False, "cache value differs")
                else:
                    disk.store_morphism("pjw", p, n, dec.total)
            except CacheIntegrityError as exc:
                record("pjw_cache_integrity", n, False, str(exc))

    # Hecke bridge
    for n in range(1, (50 if quick else 200) + 1):
        if not p_support(n, p).is_adam:
            rep = lemma_positivity_check(n, p)
            record("hecke_positivity", n, rep.ok, f"remainder {rep.remainder}")

    entries.sort(key=lambda e: (e["check"], e["n"]))
    print(json.dumps({"ok": ok, "p": p, "checks": entries}, indent=1))
    return EXIT_OK if ok else EXIT_VERIFY


def _fp_defined(n: int, p: int) -> bool:
    try:
        jones_wenzl(n, PrimeFieldRing(p), GLOBAL_JW_CACHE)
        return True
    except NonInvertible:
        return False


def cmd_hecke(args) -> int:
    require_prime(args.p)
    last = args.n if args.to is None else args.to
    _refuse_negative(args.n)
    _refuse_negative(last)
    if last < args.n:
        raise ValueError(f"--to {last} is below --n {args.n}: the range is empty")
    if last > MAX_HECKE_N:
        raise ValueError(f"n = {last} is too large for hecke (n <= {MAX_HECKE_N})")
    if args.action == "pcanonical" and args.n < 2:
        raise ValueError(f"pcanonical needs --n >= 2, got {args.n}")
    failures = 0
    for n in range(args.n, last + 1):
        if args.action == "pcanonical":
            x = p_canonical(n, args.p)
            if args.format == "json":
                print(hecke_to_json(x))
            else:
                print(f"pb[{n}] = {x}")
        else:
            try:
                rep = lemma_positivity_check(n, args.p)
            except ValueError as exc:  # n = 0, or an n with no father
                raise ValueError(f"n={n}: {exc}") from None
            rem = " + ".join(f"{c}*b{k}" for k, c in rep.remainder.items()) or "0"
            status = "PASS" if rep.ok else "FAIL"
            failures += 0 if rep.ok else 1
            print(f"n={n}: remainder {rem}, {status}")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_render(args) -> int:
    if args.file == "-":
        payload = sys.stdin.read()
    else:
        with open(args.file) as fh:
            payload = fh.read()
    try:
        f = morphism_from_json(payload)
    except ValueError as exc:
        raise ValueError(f"render takes a morphism document: {exc}") from None
    _emit_morphism(f, args.format, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wenzl",
        description="Exact Temperley-Lieb projector engine (loop value -2).",
    )
    parser.add_argument("--cache-dir", default=None, help="disk cache directory")
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("jw", help="compute a Jones-Wenzl projector")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ring", default="Q", help="Q (default) or fp:<p>")
    q.add_argument("--format", choices=["json", "text", "tikz"], default="json")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_jw)

    q = sub.add_parser("pjw", help="compute a p-projector decomposition")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--ring", choices=["rational", "fp"], default="rational")
    q.add_argument("--format", choices=["json", "text", "tikz"], default="text")
    q.add_argument("--out", default=None)
    q.add_argument("--verify", action="store_true", help="run the battery first")
    q.set_defaults(fn=cmd_pjw)

    q = sub.add_parser("verify", help="run the verification suites")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--max-n", type=int, default=8)
    q.add_argument("--depth", choices=["quick", "full"], default="full")
    q.set_defaults(fn=cmd_verify)

    q = sub.add_parser("hecke", help="Kazhdan-Lusztig tables")
    q.add_argument("action", choices=["pcanonical", "lemma"])
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--to", type=int, default=None, help="end of an n range")
    q.add_argument("--format", choices=["text", "json"], default="text")
    q.set_defaults(fn=cmd_hecke)

    q = sub.add_parser("render", help="draw a serialized morphism")
    q.add_argument("file", help="morphism JSON path, or - for stdin")
    q.add_argument("--format", choices=["ascii", "tikz"], default="ascii")
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; keep 0 for --help
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.fn(args)
    except NonInvertible as exc:
        print(f"undefined over the requested ring: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except CacheIntegrityError as exc:
        print(f"cache integrity failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (JWVerificationError, PJWIntegrityError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
