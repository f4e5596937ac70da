"""One cold sample of one workload, in a fresh process.

    PYTHONPATH=src python3 bench/child.py --workload W --seed S --trace 0|1 \
        --spawned-at T --outdir DIR

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading taken just before
this process was started, so ``setup_s`` covers interpreter start-up,
imports and the workload's set-up.  With ``--setup-only`` the process stops
after set-up and reports only ``setup_s``.

Samples run the machine-speed probe of speed.py: ``wall_s`` and
``setup_s`` are the phases' times without the probe's bursts, scaled to the
probe's reference speed; ``wall_raw_s`` and ``setup_raw_s`` are the same
times unscaled.  Traced samples run only the bursts at the phase edges, not
the periodic ones, so no burst lands inside a span.  Prints one JSON object on
stdout.  Exit code 0 means a sample was taken (failed operations are
reported inside it); exit code 3 means the program could not be set up.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, derive_metrics
from workloads import WORKLOADS

EXIT_SETUP = 3
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _gauges() -> dict:
    """Table sizes at the end of the timed phase; None if the table is gone."""
    from wenzl import tl

    out = {}
    for name, attr in (("tl.intern.size", "_INTERN"),
                       ("tl.compose_memo.size", "_COMPOSE_MEMO")):
        table = getattr(tl, attr, None)
        out[name] = None if table is None else len(table)
    return out


def _environment() -> dict:
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    from wenzl.rings import QQ

    one = type(QQ.one)
    return {
        "python": sys.version.split()[0],
        "gmpy2": has_gmpy2,
        "qq_one_type": f"{one.__module__}.{one.__qualname__}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    outdir = Path(args.outdir)
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        state = workload.setup(args.seed, outdir)
    except Exception:
        traceback.print_exc()
        probe.stop()
        return EXIT_SETUP
    setup_end = _clock()
    probe.edge()

    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": probe.normalise(args.spawned_at, setup_end),
                          "setup_raw_s": setup_end - args.spawned_at}))
        return 0

    failures: list[str] = []
    tracer = Tracer(f"{workload.name}-{args.seed}-{args.trace}") if args.trace else None
    outputs = None
    if tracer is not None:
        tracer.install()
    start = _clock()
    try:
        outputs = workload.timed(state)
    except Exception as exc:
        traceback.print_exc()
        failures.append(f"timed phase raised {type(exc).__name__}: {exc}")
    end = _clock()
    if tracer is not None:
        tracer.uninstall()
    probe.edge()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    gauges = _gauges()
    with REFERENCE_PATH.open() as fh:
        reference = json.load(fh)[workload.name]

    attempted, direct_checks = 1, 0
    if outputs is not None:
        try:
            attempted, found, direct_checks = workload.check(state, outputs, reference)
            failures.extend(found)
        except Exception as exc:
            traceback.print_exc()
            failures.append(f"output check raised {type(exc).__name__}: {exc}")

    result = {
        "wall_s": probe.normalise(start, end),
        "setup_s": probe.normalise(args.spawned_at, setup_end),
        "wall_raw_s": end - start - probe.spent(start, end),
        "setup_raw_s": setup_end - args.spawned_at - probe.spent(args.spawned_at, setup_end),
        "bursts": len(probe.bursts),
        "burst_mean_s": probe.mean_burst(start, end),
        "peak_rss_mb": peak_rss_mb,
        "direct_checks": direct_checks,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "failures": failures,
        "environment": _environment(),
    }
    if tracer is not None:
        metrics, absent = derive_metrics(tracer, gauges)
        tracer.write(str(outdir / f"spans-{workload.name}-{args.seed}.jsonl"))
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["absent"] = absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
