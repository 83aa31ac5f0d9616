"""Run the benchmark once per seed and summarise every metric across runs.

Usage, from the repository root::

    python3 perfbench/sweep.py --workloads crossbar,bakeoff,scaleout --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline/sweep.json

Each run is a fresh ``run.py`` process.  Per workload and metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median: the run-to-run steadiness a
metric's bound in ``BENCHMARK.json`` has to cover.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("crossbar", "bakeoff", "scaleout")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    summary: dict[str, object] = {"seeds": args.seeds, "trace": int(args.trace)}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
            done = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{workload} seed {seed}: exited with {done.returncode}")
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct={result['correct']}", flush=True)
        table = {}
        for name, vals in values.items():
            table[name] = {**summarise(vals), "unit": units[name], "n": len(vals), "values": vals}
            s = table[name]
            print(
                f"{workload:>9} {name:<38} median={s['median']:.6g} q1={s['q1']:.6g} "
                f"q3={s['q3']:.6g} spread={s['spread']:.4f} {s['unit']} n={s['n']}",
                flush=True,
            )
        summary[workload] = table
    summary["correct"] = ok
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
