#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarized into a BENCH file.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workload katsura7-gf --pairs 10 --seeds 11-20 --pr 6

Runs ``perfbench/run.py --trace 0`` once in each checkout per pair, the
parent first on even pairs and the change first on odd ones, with the pair's
seed and the run length from the change's ``BENCHMARK.json``.  Writes (or
updates the workload's entry in) ``BENCH_<pr>.json`` in the change checkout:
the machine, the rational backend, each side's median and quartiles per
end-to-end metric, and the number of pairs the change won per metric.
Nothing under ``perfbench/`` and no ``BENCHMARK.json`` is written.

Bytecode caches are kept out of both sides: a ``__pycache__`` under ``src/``
of one checkout only lowers its katsura7-gf ``setup_s`` by about 60% and
its ``peak_rss_mb`` by about 6%.  The script refuses to start while either
checkout has one, and runs every side with ``PYTHONDONTWRITEBYTECODE=1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result line plus the notes it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    env = json.loads(lines[0])["env"]
    notes = [ln for ln in lines[1:-1] if not ln.startswith("{")]
    return {"env": env, "result": result, "notes": notes}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=seed_range, required=True, metavar="LO-HI",
                    help="seed range, cycled over the pairs")
    ap.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be >= 2 for quartiles")

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    caches = [p for c in checkouts.values() for p in sorted(c.glob("src/**/__pycache__"))]
    if caches:
        ap.error("bytecode caches would favour one side; remove them first: "
                 + " ".join(map(str, caches)))

    runs = {side: [] for side in SIDES}
    for i in range(args.pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for side in order:
            out = run_once(checkouts[side], args.workload, seed, bench["run_seconds"])
            runs[side].append(out)
            solve = out["result"]["metrics"]["solve_s"]["value"]
            print(f"pair {i + 1}/{args.pairs} seed {seed} {side}: solve_s {solve:.4f}",
                  file=sys.stderr)

    def values(side, name):
        return [r["result"]["metrics"][name]["value"] for r in runs[side]]

    wins = {}
    for name, better in metrics.items():
        sign = -1 if better == "lower" else 1
        wins[name] = sum(
            sign * (c - p) > 0 for p, c in zip(values("parent", name), values("change", name))
        )
    entry = {
        "pairs": args.pairs,
        "seeds": [args.seeds[i % len(args.seeds)] for i in range(args.pairs)],
        "run_seconds": bench["run_seconds"],
        "wins": wins,
    }
    for side in SIDES:
        entry[side] = {
            "metrics": {name: summary(values(side, name)) for name in metrics},
            "correct": all(r["result"]["correct"] for r in runs[side]),
            "failed": sum(r["result"]["failed"] for r in runs[side]),
            "attempted": sum(r["result"]["attempted"] for r in runs[side]),
            "notes": sorted({n for r in runs[side] for n in r["notes"]}),
        }

    out_path = args.change / f"BENCH_{args.pr}.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    env = runs["change"][0]["env"]
    doc["machine"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                      "platform": platform.platform()}
    doc["backend"] = env["backend"]
    doc["command"] = bench["command"]
    doc["workloads"][args.workload] = entry
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
