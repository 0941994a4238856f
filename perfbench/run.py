"""Benchmark of the arrlevels library and CLI.

    python3 perfbench/run.py --workload dual-count --seed 1 --seconds 28 --trace 0

runs one workload (or ``--workload all``) from the root of a checkout and
prints the run facts, every metric by name with its unit, and as the last
line one JSON object with the keys correct, attempted, failed and metrics.
It exits 1 when an op's output failed its check, and 2 (printing no
result) when the library is missing or a worker process fails.

Workloads (closed loop, one client, no think time; see workloads.py):

    dual-count      f_matrix + fstar_matrix of a fresh random(10,4)
    motion-trace    g_from_motion of a fresh random(6,3) pair
    identity-check  every identity check on a fresh random(7,3) pair
    cli-session     one `python -m arrlevels.cli` subprocess per op

Every run starts fresh worker processes, so no library cache or import
state carries over between runs.  A worker and the CLI processes it starts
share one CPU.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a separate traced run and writes its
spans to perfbench/out/.

End-to-end metrics (times at the reference speed of worker.REF_KERNEL_S;
the raw figures are printed beside them):

    ops_per_s     ops completed / their total time
    op_p50_s      median op latency
    op_p90_s      90th-percentile op latency
    setup_s       median over SETUP_SAMPLES fresh processes of the time from
                  spawning the process to its first timed op: interpreter
                  start, import, input generation, one untimed warm-up op
    peak_rss_mib  peak RSS after set-up and RSS_AT_OPS ops (cli-session:
                  of the largest CLI process)
    ok_frac       ops whose output passed its check / ops attempted
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_KERNEL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dual-count", "motion-trace", "identity-check", "cli-session")
SETUP_SAMPLES = 3
DEADLINE_S = 170  # every run must end within 180 s


class BenchError(Exception):
    pass


def run_worker(argv: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object it prints."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # so a timeout can stop the CLI processes it starts
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker {' '.join(argv)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(argv)} exited with {proc.returncode}:\n{err}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(argv)} printed nothing:\n{err}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    setups = []
    try:
        for k in range(SETUP_SAMPLES):
            last = k == SETUP_SAMPLES - 1
            argv = common + ["--seconds", str(seconds), "--trace", str(trace)]
            argv += ["--spans", str(spans)] if last else ["--setup-only"]
            spawned = time.monotonic()
            res = run_worker(argv, deadline)
            setups.append((res["ready_at"] - spawned) * REF_KERNEL_S / res["setup_kernel_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = res["metrics"]
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        ok = res["attempted"] - res["failed"]
        metrics["ok_frac"] = {"value": ok / res["attempted"], "unit": "1"}
        res["bases"]["setup_s"] = f"median of {len(setups)} processes: {', '.join(f'{s:.4f}' for s in setups)}"
        res["bases"]["ok_frac"] = f"{ok} correct of {res['attempted']} ops"
    res["correct"] = res["failed"] == 0 and not res["warmup_failures"]
    return res


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_facts(seed: int) -> dict:
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "arrlevels").glob("*.py"))
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "seed": seed,
        "src_arrlevels_lines": lines,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="arrlevels benchmark")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "arrlevels" / "__init__.py").is_file():
        print(f"error: no arrlevels package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    facts = run_facts(args.seed)
    for key, value in facts.items():
        print(f"fact {key} {value}")
    results = {}
    try:
        for name in names:
            deadline = start + DEADLINE_S * (len(results) + 1)
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for name, res in results.items():
        prefix = "" if len(names) == 1 else f"{name}/"
        frac = res["failed"] / res["attempted"]
        print(f"workload {name}: {res['attempted']} ops, {res['failed']} failed, failed_frac {frac!r}")
        for key, m in sorted(res["metrics"].items()):
            base = res["bases"].get(key)
            print(f"metric {prefix}{key} {m['value']!r} {m['unit']}" + (f"  ({base})" if base else ""))
            metrics[prefix + key] = m
        for line in res["failures"] + res["warmup_failures"]:
            print(f"failure {prefix}{line}")
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    record = {"facts": facts, "args": vars(args), "results": results}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
