"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train-long --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 repeats the workload
with every public skipgru function wrapped and reports per-layer metrics
instead (its spans go to .perfbench-out/).  The workload runs in a scratch
directory under .perfbench-work/ that is removed afterwards.  The result line
is one JSON object with the keys correct, attempted, failed and metrics; an
environment record and readable tables go to stderr.  Exit code 0 means the
run completed (correct may still be false); 1 means a set-up command failed;
2 means the program sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("train-long", "train-wide-vocab", "downstream")


def git_revision(root: Path) -> str:
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(peak_rss_mb: float) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SKIPGRU_THREADS")},
        "nproc": os.cpu_count(),
        "git_revision": git_revision(ROOT),
        "peak_rss_mb": round(peak_rss_mb, 1),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--detail", default=None,
                   help="also write every figure of the run to this JSON file")
    # Self-test switch: a few-second input size.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def print_table(title: str, metrics: dict) -> None:
    print(f"== {title}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    src = ROOT / "src"
    if not (src / "skipgru" / "cli.py").is_file():
        print(f"error: no skipgru sources under {src}", file=sys.stderr)
        return 2
    # One BLAS thread, pinned before numpy loads; SKIPGRU_THREADS keeps the
    # program default.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ.pop("SKIPGRU_THREADS", None)
    sys.path[:0] = [str(HERE), str(src)]

    import generate
    import hostspeed
    import layers
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workloads.tiny(workload)
    detail = Path(args.detail).resolve() if args.detail else None
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        os.chdir(work)
        inputs = generate.generate(work / "inputs", workload.shape, args.seed)
        # The traced run reports layer times, not end-to-end metrics, so it
        # takes no host-speed samples that would land inside its spans.
        tracer = tracing.Tracer() if args.trace else None
        speed = None if args.trace else hostspeed.HostSpeed()
        run = workloads.Run(workload, args.seed, args.seconds, tracer, speed)
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                layers.install(tracer, workloads.SKIPGRU_MODULES)
            try:
                run.execute(inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            run.check()
        except workloads.SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            for problem in run.ledger.problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        wall = time.perf_counter() - t0
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    env = environment(workloads.peak_rss_mb())
    print("env " + json.dumps(env, sort_keys=True), file=sys.stderr)
    ledger = run.ledger
    timed_s = run.timed_s()
    print(f"== {args.workload} seed {args.seed}: {run.steps} train steps, "
          f"{sum(map(len, run.iv.queries))} queries, timed part {timed_s:.2f} s, "
          f"whole run {wall:.2f} s", file=sys.stderr)
    print(f"  ops_attempted {ledger.attempted}, ops_failed {ledger.failed}, "
          f"ops_failed_ratio {ledger.failed / max(ledger.attempted, 1):.6g}",
          file=sys.stderr)
    for problem in ledger.problems:
        print(f"  check: {problem}", file=sys.stderr)
    raw = run.metrics(normalize=False)
    if tracer is None:
        metrics = run.metrics()
        speed_record = speed.summary()
        print("host speed " + json.dumps(speed_record), file=sys.stderr)
        print_table("end-to-end, at nominal host speed", metrics)
        print_table("end-to-end, raw wall times", raw)
    else:
        speed_record = None
        print_table("end-to-end, raw wall times (traced: not comparable)", raw)
        metrics = layers.per_layer_metrics(tracer, tracing.wrapper_cost_s())
        print_table("per-layer", metrics)
        dump = tracing.default_dump_path(ROOT, args.workload, args.seed)
        tracer.dump(dump)
        print(f"  spans written to {dump}", file=sys.stderr)
    if detail is not None:
        with open(detail, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "trace": args.trace, "env": env,
                       "host_speed": speed_record, "steps": run.steps,
                       "timed_s": timed_s, "attempted": ledger.attempted,
                       "failed": ledger.failed, "problems": ledger.problems,
                       "raw_end_to_end": raw, "metrics": metrics},
                      fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
