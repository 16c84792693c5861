"""Run every workload and print the benchmark's tables.

    python3 perfbench/report.py                  # untraced + traced, seed 1
    python3 perfbench/report.py --spread 10      # ten seeds per workload

The default mode runs each workload once untraced and once traced with the
same seed, then prints the end-to-end metrics with ops_attempted and
ops_failed_ratio, the per-layer table, the tracing overhead (traced minus
untraced time of the timed part) and the layer shares that the workload
design relies on.  --spread N runs each workload untraced on N seeds and
prints each end-to-end metric's median, quartiles and quartile spread as a
share of the median, next to the bound in BENCHMARK.json.  Each run is its own
process; details are kept under .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_once(workload: str, seed: int, trace: int) -> dict:
    detail = OUT / f"detail-{workload}-seed{seed}-trace{trace}.json"
    cmd = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace),
        "--detail", str(detail)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited "
                 f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(detail.read_text())


def spread(workloads, seeds) -> None:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for w in workloads:
        runs = [run_once(w, s, 0) for s in seeds]
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} seeds {seeds[0]}..{seeds[-1]}, "
              f"failed ops {failed}")
        print(f"  {'metric':<24} {'q1':>11} {'median':>11} {'q3':>11} "
              f"{'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            vals = [r["metrics"][name][0] for r in runs]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rel = (q3 - q1) / med
            flag = "" if rel < bound / 3 else "  <-- above bound/3"
            print(f"  {name:<24} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                  f"{rel:>7.3f} {bound:>6.2f}{flag}")


def share(metrics, names) -> float:
    return sum(metrics[n][0] for n in names) / metrics["trainer.train_ms"][0]


def report(workloads, seed: int) -> None:
    traced = {}
    for w in workloads:
        plain = run_once(w, seed, 0)
        tr = run_once(w, seed, 1)
        traced[w] = tr["metrics"]
        ratio = plain["failed"] / max(plain["attempted"], 1)
        print(f"\n== {w} (seed {seed}): ops_attempted {plain['attempted']}, "
              f"ops_failed_ratio {ratio:.6g}")
        for name, (value, unit) in plain["metrics"].items():
            print(f"  {name:<42} {value:>14.6g} {unit}")
        print("-- per-layer (traced run)")
        for name, (value, unit) in tr["metrics"].items():
            print(f"  {name:<42} {value:>14.6g} {unit}")
        over = tr["timed_s"] - plain["timed_s"]
        est = tr["metrics"]["trace.wrapper_overhead_ms"][0] / 1000.0
        print(f"-- tracing overhead: timed part {plain['timed_s']:.2f} s "
              f"untraced, {tr['timed_s']:.2f} s traced ({over:+.2f} s, "
              f"{100 * over / plain['timed_s']:+.1f}%); wrapper cost "
              f"{est:.2f} s ({100 * est / plain['timed_s']:.1f}%); the rest "
              f"is run-to-run variation")
    pair = [w for w in ("train-long", "train-wide-vocab") if w in traced]
    if len(pair) < 2:
        return
    print("\n== design check: shares of the time inside trainer.train")
    rows = {
        "encoder+decoder backward": ["encoder.encoder_backward_ms",
                                     "decoder.decoder_backward_ms"],
        "trainer self + Adam + ckpt save": ["trainer.train_step_self_ms",
                                            "trainer.triple_grads_self_ms",
                                            "numerics.adam_step_ms",
                                            "trainer.save_checkpoint_ms"],
    }
    for label, names in rows.items():
        cells = [f"{w} {share(traced[w], names):.3f}" for w in pair]
        print(f"  {label:<32} " + ", ".join(cells))
    r = [traced[w]["trainer.emb_rows_used_ratio"][0] for w in pair]
    print(f"  trainer.emb_rows_used_ratio      {pair[0]} {r[0]:.4f}, "
          f"{pair[1]} {r[1]:.4f} ({r[0] / r[1]:.1f}x)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="limit to this workload (repeatable)")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the report, or first seed with --spread")
    p.add_argument("--spread", type=int, default=0, metavar="N",
                   help="run N seeds per workload and print the spreads")
    args = p.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    workloads = args.workload or WORKLOADS
    if args.spread:
        spread(workloads, list(range(args.seed, args.seed + args.spread)))
    else:
        report(workloads, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
