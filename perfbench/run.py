"""Layered end-to-end benchmark of latentrec's train -> recommend -> evaluate path.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload svd-complete --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare base.jsonl change.jsonl

One workload per process, so peak memory belongs to that workload alone.
The program is imported from ./src and driven in-process through
`latentrec.cli.main(argv)`; it only sees the CSV files generated from the
seed. With --trace 0 the last line of standard output is the end-to-end
result, with --trace 1 the per-layer one:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`correct` is false when an output check failed; `failed` counts every
failed operation, a non-zero exit code or an exception included.

--results FILE appends the full record (environment stamp, input
properties, operation counts, sample counts, figures) as one JSON line;
--compare reads two such files.
"""

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("svd-complete", "factor-train", "implicit-topn")
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; passes repeat while the next fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two results files and exit")
    return parser.parse_args(argv)


def environment(seed):
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "seed": seed,
        "load": "closed loop, 1 caller, 1 process, no extra threads",
        "caller": "in-process latentrec.cli.main(argv)",
    }


def run_one(args):
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))
    from harness import TRACED_PASSES, WorkloadRun
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = WorkloadRun(workload, args.seed, workdir)
        run.setup()
        if args.trace:
            tracer = run.measure_traced()
            figures = tracer.metrics(TRACED_PASSES)
            figures["trace.overhead_s"] = (run.trace_overhead(), "s")
        else:
            run.measure(args.seconds)
            figures = run.end_to_end()
        properties = run.properties()
        ops = run.ledger.summary()
        checks_ok = not any(op["check_failed"] for op in run.ledger.ops)
        record = {
            "workload": workload.name,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "env": environment(args.seed),
            "inputs": properties,
            "ops": ops,
            "samples": run.samples(),
            "metrics": _named(figures),
            "ungated": _named(run.ungated()),
        }
        if args.trace:
            record["spans"] = [s.as_row() for s in tracer.spans]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print_report(record)
    if args.results:
        with open(args.results, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    result = {"correct": checks_ok, "attempted": ops["attempted"],
              "failed": ops["failed"], "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


def _named(figures):
    return {k: {"value": v, "unit": u} for k, (v, u) in figures.items()}


def print_report(record):
    env = record["env"]
    print(f"latentrec benchmark: workload {record['workload']}, seed {record['seed']}, "
          f"trace {record['trace']}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']} "
          f"threads {env['blas_threads']}, nproc {env['nproc']}; {env['load']}; "
          f"caller {env['caller']}")
    for name, prop in record["inputs"].items():
        text = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in prop.items())
        print(f"input {name}: {text}")
    ops = record["ops"]
    print(f"operations: {ops['attempted']} attempted, {ops['failed']} failed "
          f"(error_rate {ops['failed'] / ops['attempted']:.4f})")
    for failure in ops["failures"]:
        print(f"  failed: {failure}")
    samples = record["samples"]
    print(f"passes: {samples['passes']} untraced, {samples['traced_passes']} traced; "
          f"recommend samples {samples['recommend_samples']}, "
          f"{samples['recommend_beyond_p90']} beyond p90")
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']}")
    for name, metric in record["ungated"].items():
        print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']} (not gated)")


def run_all(args):
    """Each workload in its own process; forwards their reports."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.results:
            argv += ["--results", args.results]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        last = json.loads(done.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    if status == 0:
        print(json.dumps(summary))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.compare:
        from compare import compare

        return compare(args.compare[0], args.compare[1], ROOT / "BENCHMARK.json")
    if not (SRC / "latentrec" / "cli.py").is_file():
        print(f"error: no latentrec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
