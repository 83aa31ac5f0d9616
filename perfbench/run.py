"""The repository benchmark: one command, three workloads, one JSON result.

Usage, from the repository root::

    python3 perfbench/run.py --workload crossbar --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one child each

``--trace 0`` measures the end-to-end metrics with tracing off, in two
concurrent replica processes whose cell timings are pooled; every timing
is rescaled to a reference host speed measured alongside it (hostclock.py).
``--trace 1`` runs one untraced pass and one pass under cProfile in this
process and reports the per-layer metrics instead.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("crossbar", "bakeoff", "scaleout")
#: workload seed when none is given (the experiments' DEFAULT_SEED)
DEFAULT_SEED = 20050404
#: fresh processes timed from spawn to their first run() call, per run
SETUP_SAMPLES = 5
#: concurrent processes that each run the timed passes (one per CPU here);
#: their samples are pooled into per-cell medians
REPLICAS = 2
#: end-to-end metrics built from per-cell medians over the window's passes
CELL_METRICS = ("wall_s", "slowest_cell_s", "events_per_s")
#: a wedged child is killed after this long
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument(
        "--seconds",
        type=float,
        default=30.0,
        help="measurement window: passes run while the next one fits (at least one)",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ports", type=int, default=None, help="shrink the plant (smoke runs)")
    ap.add_argument("--out", type=Path, default=None, help="directory for the JSON record")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--spawned", type=float, default=0.0, help=argparse.SUPPRESS)
    ap.add_argument("--replica", type=int, default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _self_cmd(args: argparse.Namespace, workload: str, *extra: str) -> list[str]:
    """This script, on ``workload``, with the caller's seed, window and size."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *extra, "--workload", workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace)]
    if args.ports is not None:
        cmd += ["--ports", str(args.ports)]
    return cmd


def setup_probe(args: argparse.Namespace, clock: HostClock) -> dict[str, Any]:
    """Child side of a setup sample: import, generate every cell, build every net.

    ``clock`` started before anything of the program was imported.
    """
    import workloads
    from harness import traffic_digest

    cells = workloads.cells(args.workload, args.ports)
    phases = [workloads.generate(c, args.seed) for c in cells]
    networks = [workloads.build(c, p, args.seed) for c, p in zip(cells, phases)]
    first_run_at = time.perf_counter()  # the instant the first run() would start
    del networks
    return {
        "setup_s": clock.normalised_s(args.spawned, first_run_at),
        "raw_setup_s": first_run_at - args.spawned,
        "traffic": traffic_digest(phases),
    }


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float], list[str]]:
    """Seconds from process spawn to the first run() call, in fresh processes.

    Returns the samples at the reference host speed, the samples as
    measured, and the traffic digests the children saw.
    """
    samples, raw, digests = [], [], []
    for _ in range(SETUP_SAMPLES):
        spawned = repr(time.perf_counter())
        cmd = _self_cmd(args, args.workload, "--setup-probe", "--spawned", spawned)
        done = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"setup probe exited with {done.returncode}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append(report["setup_s"])
        raw.append(report["raw_setup_s"])
        digests.append(report["traffic"])
    return samples, raw, digests


def replica(args: argparse.Namespace) -> None:
    """Child side of a measuring run: the timed passes, printed as JSON.

    Replica ``i`` starts its passes ``i / REPLICAS`` of the way along the
    cell list, so the cells that the window's partial last pass leaves
    out differ between replicas.
    """
    import harness
    import workloads

    cells = workloads.cells(args.workload, args.ports)
    offset = args.replica * len(cells) // REPLICAS
    with HostClock() as clock:
        passes = harness.run_window(cells[offset:] + cells[:offset], args.seed, args.seconds)
    passes = [harness.PassOutcome([harness.normalise(c, clock) for c in p.cells]) for p in passes]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"peak_rss_mb": rss_mb, "passes": harness.passes_to_json(passes)}))


def measure_replicas(args: argparse.Namespace) -> tuple[list[list[Any]], float]:
    """Run the timed passes in REPLICAS concurrent fresh processes.

    Returns each replica's passes and the largest replica's peak RSS.
    """
    import harness

    procs = [
        subprocess.Popen(
            _self_cmd(args, args.workload, "--replica", str(i)),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for i in range(REPLICAS)
    ]
    try:
        outputs = [p.communicate(timeout=CHILD_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    replicas, rss = [], []
    for p, (stdout, stderr) in zip(procs, outputs):
        sys.stderr.write(stderr)  # tracebacks of failed cells, or of the replica
        if p.returncode != 0:
            raise RuntimeError(f"replica exited with {p.returncode}")
        report = json.loads(stdout.strip().splitlines()[-1])
        replicas.append(harness.passes_from_json(report["passes"]))
        rss.append(report["peak_rss_mb"])
    return replicas, max(rss)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    """Measure one workload in this process; returns the full record."""
    import numpy

    import harness
    import workloads
    from layers import LayerMap

    setup_samples, raw_setup, traffic_digests = measure_setup(args)
    cells = workloads.cells(args.workload, args.ports)
    labels = [c.label for c in cells]

    traced = None
    if args.trace:
        import cProfile

        # one untraced pass: the trace_overhead base, boundary timings, counts
        passes = [harness.run_pass(cells, args.seed)]
        replicas = [passes]
        profiler = cProfile.Profile()
        traced = harness.run_pass(cells, args.seed, profiler)
        metrics = {
            **harness.profile_metrics(profiler, LayerMap(SRC)),
            "trace_overhead": (traced.wall_s / passes[0].wall_s, "ratio"),
            **harness.boundary_timings(passes[0]),
            **harness.layer_counts(passes[0]),
        }
    else:
        replicas, rss_mb = measure_replicas(args)
        passes = [p for r in replicas for p in r]
        walls = harness.cell_medians(passes, labels, "wall_s")
        metrics = {
            "wall_s": (sum(walls), "s"),
            "slowest_cell_s": (max(walls), "s"),
            "events_per_s": (
                passes[0].count("sim.events")
                / sum(harness.cell_medians(passes, labels, "run_s")),
                "events/s",
            ),
            "peak_rss_mb": (rss_mb, "MB"),
            "setup_s": (statistics.median(setup_samples), "s"),
        }

    # correctness: every cell's own checks, the same outputs on every pass of
    # every replica (the traced pass included), the same traffic in every
    # setup child
    runs = [p for r in replicas for p in r] + ([traced] if traced is not None else [])
    reference = {c.label: c.outputs for c in runs[0].cells}  # a whole pass
    attempted = failed = 0
    problems: list[str] = []
    for i, p in enumerate(runs):
        for cell in p.cells:
            attempted += 1
            cell_problems = list(cell.problems)
            if cell.ok and cell.outputs != reference[cell.label]:
                cell_problems.append(f"outputs differ from pass 0 in pass {i}")
            if cell_problems:
                failed += 1
                problems += [f"pass {i} {cell.label}: {msg}" for msg in cell_problems]
    if len(set(traffic_digests)) != 1:
        problems.append(f"setup children generated different traffic: {traffic_digests}")

    per_cell = [len(harness.cell_samples(passes, label, "wall_s")) for label in labels]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ports": args.ports,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "replicas": len(replicas),
        "passes": len(passes),
        "samples_per_cell": [min(per_cell), max(per_cell)],
        "setup_samples": setup_samples,
        "raw_setup_samples": raw_setup,
        "cells": [
            {
                "cell": c.label,
                "n": n,
                "wall_s": wall,
                "run_s": run_s,
                "raw_wall_s": raw,
                "host_scale": scale,
                "events": c.counts.get("sim.events", 0),
            }
            for c, n, wall, run_s, raw, scale in zip(
                passes[0].cells,
                per_cell,
                harness.cell_medians(passes, labels, "wall_s"),
                harness.cell_medians(passes, labels, "run_s"),
                harness.cell_medians(passes, labels, "raw_wall_s"),
                harness.cell_medians(passes, labels, "host_scale"),
            )
        ],
        "sim_digest": passes[0].digest(),
        "traffic_digest": traffic_digests[0],
        "outputs": [reference[label] for label in labels],
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(record: dict[str, Any]) -> None:
    """Human-readable lines: every metric with unit and sample count."""
    from harness import quartiles

    w = record["workload"]
    lo, hi = record["samples_per_cell"]
    print(
        f"# {w}: seed={record['seed']} replicas={record['replicas']} "
        f"passes={record['passes']} samples/cell={lo}-{hi} "
        f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']}"
    )
    for name, m in record["metrics"].items():
        if name == "setup_s":
            q1, _, q3 = quartiles(record["setup_samples"])
            spread = f"n={len(record['setup_samples'])} q1={_fmt(q1)} q3={_fmt(q3)}"
        elif name in CELL_METRICS and not record["trace"]:
            spread = f"n={lo}-{hi} per cell, cell medians"
        else:
            spread = "n=1"
        print(f"{w:>9} {name:<38} {_fmt(m['value']):>14} {m['unit']:<9} {spread}")
    print(
        f"{w:>9} {'fail_ratio':<38} {_fmt(record['fail_ratio']):>14} {'ratio':<9} "
        f"n={record['attempted']} (failed {record['failed']})"
    )
    print(f"{w:>9} sim_digest={record['sim_digest']} traffic_digest={record['traffic_digest']}")
    for line in record["problems"]:
        print(f"{w:>9} FAILED {line}")


def result_line(record: dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": record["failed"] == 0 and not record["problems"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["metrics"],
        }
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh process, so peak RSS is per workload."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = _self_cmd(args, workload)
        if args.out is not None:
            cmd += ["--out", str(args.out)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        with HostClock() as clock:
            probe = setup_probe(args, clock)
        print(json.dumps(probe))
        return 0
    if args.replica is not None:
        replica(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    record = run_workload(args)
    report(record)
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        suffix = ".trace.json" if args.trace else ".json"
        (args.out / f"{args.workload}{suffix}").write_text(json.dumps(record, indent=1) + "\n")
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
