"""lexdec's benchmark: one command, four closed-loop workloads.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each workload runs in a child process of its own, so ``peak_rss_mb`` is that
workload's alone. Before it, ``setup_s`` times fresh interpreters until
lexdec is imported. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the per-layer metrics from a traced run, whose spans are
written to ``.perfbench/``. Human-readable lines come first; the last line
of standard output is one JSON object. The exit code is 0 only when every
output passed the oracle.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

WORKLOADS = ("ingest_wide", "readback_wide", "stream_prefix", "cli_sort_short")
SETUP_REPEATS = 10
SETUP_IMPORT = {"cli_sort_short": "import lexdec.cli"}
CHILD_TIMEOUT_S = 170
#: The metrics of the JSON line with ``--trace 0``; the traced run reports
#: every per-layer metric it derives.
END_TO_END = ("values_per_ref", "value_p50_ref", "key_bits_per_value", "peak_rss_mb", "setup_s")


def setup_times(workload: str, repeats: int) -> list[float]:
    """Seconds for a fresh interpreter to import lexdec, ready for use."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-c", SETUP_IMPORT.get(workload, "import lexdec")]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        # No timeout: with one, the wait polls and rounds the time up.
        subprocess.run(command, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return times


def child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in this process and return its measurements."""
    # One CPU for the workload, its CLI subprocesses and the reference loop,
    # so the reference times the CPU the work ran on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(HERE))
    import workloads

    api = workloads.load_api()
    inputs = workloads.prepare(workload, seed, api)
    if trace:
        result, layers, tracers = workloads.traced_run(workload, api, inputs)
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{workload}-seed{seed}.jsonl"
        with open(path, "w") as out:
            for phase, tracer in zip(("layers", "loop"), tracers):
                tracer.write(out, phase)
        metrics = {name: (value, layer_unit(name), None) for name, value in layers.items()}
    else:
        result = workloads.RUNS[workload](api, inputs, seconds)
        who = resource.RUSAGE_CHILDREN if workload == "cli_sort_short" else resource.RUSAGE_SELF
        batches = len(result.batches)
        metrics = {
            "values_per_ref": (result.values_per_ref, "1/ref", batches),
            "value_p50_ref": (result.value_p50_ref, "ref", batches),
            "values_per_s": (result.values_per_s, "1/s", batches),
            "value_p50_us": (result.value_p50_us, "us", batches),
            "key_bits_per_value": (result.key_bits, "bit", None),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB", None),
            **result.named,
        }
    return {"attempted": result.attempted, "failed": result.failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".errors")):
        return "count"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("stream_scaling"):
        return "ratio"
    return "us"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The workload in a child process of its own, between set-up probes.

    Half the probes run before the workload and half after, so that the
    median of ``setup_s`` spans the whole run, not one moment of it.
    """
    setup = setup_times(workload, SETUP_REPEATS // 2)
    command = [sys.executable, str(Path(__file__).resolve()), "--child", "--workload",
               workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload {workload} exited with {proc.returncode}")
    report = json.loads(proc.stdout.splitlines()[-1])
    setup += setup_times(workload, SETUP_REPEATS - len(setup))
    if not trace:
        report["metrics"]["setup_s"] = (statistics.median(setup), "s", len(setup))
    return report


def print_report(workload: str, report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    rows = [*report["metrics"].items(), ("ops_failed_ratio", (failed / attempted, "ratio", attempted))]
    for name, (value, unit, samples) in rows:
        count = f"  (n={samples})" if samples is not None else ""
        print(f"{workload:15s} {name:36s} {value:14.6g} {unit}{count}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "lexdec" / "__init__.py").is_file():
        print(f"error: no lexdec sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        report = child(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(report))
        return 0

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  seed {args.seed}"
          f"  seconds {args.seconds}  trace {args.trace}")
    reports = {}
    for name in names:
        reports[name] = measure(name, args.seed, args.seconds, bool(args.trace))
        print_report(name, reports[name])
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}/"
        for metric, (value, unit, _) in report["metrics"].items():
            if args.trace or metric in END_TO_END:
                metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
