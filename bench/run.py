"""wenzl benchmark: cold-process workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload jw_build --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``jw_build``, ``verify_p3`` and ``cache_roundtrip``.

Every sample is a fresh ``python3 bench/child.py`` process, started one at
a time, so every sample pays the cold cost of a ``wenzl`` invocation.

``--trace 0`` first starts processes that stop after set-up (up to
SETUP_PROBES of them, within a twentieth of ``--seconds``), then takes
untraced samples until ``--seconds`` would be exceeded (at least one), and
reports the end-to-end metrics.  Times are normalised by the machine-speed
probe of speed.py: on a shared 2-core cloud VM cold builds of JW_10 took
1.6-3.6 s, and over ten runs of jw_build the raw run medians ranged from
2.05 to 3.57 s while the normalised ones stayed within 2.07-2.23 s.

* ``wall_s``: the timed phase in reference seconds, median over samples.
  The raw median is kept in the record;
* ``setup_s``: process start to the start of the timed phase, in reference
  seconds, median over the set-up probes and the samples;
* ``peak_rss_mb``: the child's peak resident set, median;
* ``direct_checks``: identities the program verified by direct computation,
  median
  (battery checks in mode ``direct`` on verify_p3; projectors verified at
  cache insertion on jw_build; tampered cache entries refused at load on
  cache_roundtrip).

Failed operations (wrong digest, wrong exit code, an exception) are counted
in ``failed`` against ``attempted``; the fail ratio is ``failed /
attempted``.  A failed sample's time never enters the medians while any
sample passed.

``--trace 1`` takes pairs of one untraced and one traced sample while
``--seconds`` allows (at least one pair) and reports the per-layer metrics
of the last traced sample, plus the median normalised wall time of the
traced samples and the tracing overhead (that median minus the untraced
one).  Spans go to ``bench/out/``.

Every run writes a record (commit, nproc, Python, gmpy2, the rational type,
workload parameters, seed, samples, overhead) to ``bench/out/`` and prints
it on the line before the result.  The last line of stdout is the result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RUN_LIMIT_S = 170.0  # a run must end well inside 180 s
SETUP_PROBES = 10

sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spawn(workload: str, seed: int, trace: int, timeout: float,
          setup_only: bool = False) -> dict:
    """Run one sample in a fresh process; a crash comes back as a failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same str hashing, so same dict layouts, per sample
    env.pop("WENZL_CACHE_DIR", None)
    spawned = _clock()
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace),
           "--spawned-at", repr(spawned), "--outdir", str(OUT)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"sample exceeded {timeout:.0f} s", "duration": _clock() - spawned}
    duration = _clock() - spawned
    sys.stderr.write(proc.stderr)
    if proc.returncode == 3:
        raise SystemExit(f"cannot set up workload {workload} (see above)")
    if proc.returncode != 0:
        return {"crash": f"sample exited {proc.returncode}", "duration": duration}
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    sample["duration"] = duration
    return sample


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def timing_basis(samples: list[dict]) -> list[dict]:
    """Samples whose times enter the medians: the passing ones, if any passed."""
    measured = [s for s in samples if "crash" not in s]
    return [s for s in measured if s["failed"] == 0] or measured


def summarize(samples: list[dict], trace: int, probes: list[dict] = ()) -> dict:
    """Fold samples and set-up probes into the result printed on the last line."""
    attempted = failed = 0
    for s in probes:
        if "crash" in s:
            attempted, failed = attempted + 1, failed + 1
    for s in samples:
        if "crash" in s:
            attempted, failed = attempted + 1, failed + 1
        else:
            attempted += s["attempted"]
            failed += s["failed"]
    measured = [s for s in samples if "crash" not in s]
    basis = timing_basis(samples)

    def median(key: str) -> float:
        return statistics.median(s[key] for s in basis)

    if trace:
        traced = [s for s in measured if "per_layer" in s]
        untraced = [s for s in measured if "per_layer" not in s]
        metrics = dict(traced[-1]["per_layer"]) if traced else {}
        if traced and untraced:
            traced_wall = statistics.median(s["wall_s"] for s in traced)
            metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
            metrics["trace.overhead_s"] = {
                "value": traced_wall - statistics.median(s["wall_s"] for s in untraced),
                "unit": "s"}
    else:
        setups = [s["setup_s"] for s in basis]
        setups += [s["setup_s"] for s in probes if "crash" not in s]
        metrics = {
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
            "direct_checks": {"value": median("direct_checks"), "unit": "count"},
        }
    return {"correct": failed == 0 and bool(measured), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def sample_counts(samples: list[dict], probes: list[dict]) -> dict:
    """How many values each end-to-end metric in ``summarize`` was taken over."""
    basis = timing_basis(samples)
    return {"wall_s": len(basis), "peak_rss_mb": len(basis), "direct_checks": len(basis),
            "setup_s": len(basis) + sum(1 for s in probes if "crash" not in s)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wenzl" / "__init__.py").is_file():
        print(f"no wenzl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    started = _clock()
    samples: list[dict] = []
    probes: list[dict] = []

    def take(trace: int, setup_only: bool = False) -> dict:
        left = RUN_LIMIT_S - (_clock() - started)
        return spawn(args.workload, args.seed, trace, max(10.0, left), setup_only)

    if args.trace:
        while True:
            samples += [take(0), take(1)]
            elapsed = _clock() - started
            pair = max(a["duration"] + b["duration"] for a, b in zip(samples[::2], samples[1::2]))
            if elapsed + pair > min(args.seconds, RUN_LIMIT_S):
                break
    else:
        while len(probes) < SETUP_PROBES and _clock() - started < args.seconds / 20:
            probes.append(take(0, setup_only=True))
        while True:
            elapsed = _clock() - started
            longest = max((s["duration"] for s in samples), default=0.0)
            if samples and elapsed + longest > args.seconds:
                break
            if samples and elapsed + longest > RUN_LIMIT_S:
                break
            samples.append(take(0))

    if not any("crash" not in s for s in samples):
        print("no sample completed: " + "; ".join(s["crash"] for s in samples),
              file=sys.stderr)
        return 1
    result = summarize(samples, args.trace, probes)
    envs = [s["environment"] for s in samples if "environment" in s]
    record = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **(envs[0] if envs else {}),
        "workload": args.workload,
        "params": WORKLOADS[args.workload].params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": [{k: v for k, v in s.items() if k not in ("per_layer", "environment")}
                    for s in samples],
        "setup_probes": probes,
        "sample_counts": sample_counts(samples, probes),
        "wall_raw_s_median": statistics.median(
            s["wall_raw_s"] for s in timing_basis(samples)),
        "absent": sorted({a for s in samples for a in s.get("absent", [])}),
        "trace_overhead_s": result["metrics"].get("trace.overhead_s", {}).get("value"),
        "result": result,
    }
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
