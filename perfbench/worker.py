"""One workload run, in a fresh Python process started by run.py.

Set-up (import, input generation, one untimed warm-up op on an input
outside the timed set) ends at ``ready_at``, a CLOCK_MONOTONIC reading the
parent compares with its own spawn time.  With ``--setup-only`` the worker
stops there.  Otherwise it runs the timed closed loop until its ops have
taken ``--seconds``, checks every output after the loop, and prints one
JSON object.

With ``--trace 1`` the first third of the time runs untraced and the rest
traced, so the tracing overhead is measured in the same process; the
per-layer numbers come from the traced part only.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

CLI_SUBCOMMANDS = ("gen", "faces", "fstar", "g", "motion", "verify", "span")


# Times are reported at a reference speed: multiplied by REF_KERNEL_S over
# the time a calibration kernel takes next to them.  On a shared 2-core
# Xeon host the speed of one process drifted by up to a quarter within
# seconds; the kernel drifts with the ops, so scaled times vary across
# runs several times less than raw ones.
REF_KERNEL_S = 0.005
KERNEL_N = 4_000
# Caches grow with the ops done, so memory is compared at a fixed amount of work.
RSS_AT_OPS = 60


class InputFeed:
    """Op inputs in batches of the workload's size."""

    def __init__(self, wl):
        self.wl = wl
        self.pool: list = []
        self.index = 0

    def refill(self) -> None:
        self.pool = self.wl.inputs(self.wl.batch)
        self.index = 0

    def take(self):
        if self.index == len(self.pool):
            self.refill()
        self.index += 1
        return self.pool[self.index - 1]


def run_op(op, inp):
    from workloads import Raised

    try:
        return op(inp)
    except Exception as exc:  # a raising op is a failed op, not a failed run
        return Raised(exc)


def kernel_s() -> float:
    """Time of a fixed loop that builds, deduplicates and sorts sign-vector
    tuples the way pattern enumeration does, without calling the library.
    Allocation-heavy like the ops, it slows down when they do."""
    t0 = time.perf_counter()
    found = set()
    row = [0, 1, -1, 1, 0, -1, 1, 1, -1, 0]
    for i in range(KERNEL_N):
        sig = row.copy()
        sig[i % 10] = i % 3 - 1
        sig[i // 10 % 10] = i // 3 % 3 - 1
        sig[i // 100 % 10] = i // 9 % 3 - 1
        found.add((i % 7,) + tuple(sig))
    sorted(found)
    return time.perf_counter() - t0


def scaled(lat: list[float], kern: list[float]) -> list[float]:
    """Latencies at reference speed: op i ran between kern[i] and kern[i+1],
    and is scaled by the median of the kernels of the ops around it."""
    return [
        dt * REF_KERNEL_S / statistics.median(kern[max(0, i - 2) : i + 4])
        for i, dt in enumerate(lat)
    ]


def run_phase(wl, feed, seconds, records, tracer=None):
    """Closed loop until the ops have taken `seconds`, with one calibration
    kernel before each op and one after the last.  Appends (input, output,
    latency) per op to records; returns (latencies, kernel times, peak RSS
    in MiB once RSS_AT_OPS ops are done, or at the end if fewer are)."""
    lat: list[float] = []
    kern: list[float] = []
    spent = 0.0
    rss = None
    while spent < seconds:
        if tracer is not None:
            tracer.recording = False
        inp = feed.take()
        kern.append(kernel_s())
        op = wl.op
        if tracer is not None:
            tracer.recording = True
            tracer.op = len(records)
            name = f"cli.{inp[0]}" if wl.name == "cli-session" else "op"
            op = tracer.wrap(name, wl.op)
        t0 = time.perf_counter()
        out = run_op(op, inp)
        dt = time.perf_counter() - t0
        records.append((inp, out, dt))
        lat.append(dt)
        spent += dt
        if len(lat) == RSS_AT_OPS:
            rss = peak_rss_mib(wl.name)
    if tracer is not None:
        tracer.recording = False
    kern.append(kernel_s())
    return lat, kern, rss if rss is not None else peak_rss_mib(wl.name)


def peak_rss_mib(wl_name: str) -> float:
    who = resource.RUSAGE_CHILDREN if wl_name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def check_all(wl, records):
    from workloads import Raised

    failures = []
    for i, (inp, out, _) in enumerate(records):
        if isinstance(out, Raised):
            reason = out.text
        else:
            try:
                reason = wl.check(inp, out)
            except Exception as exc:  # a malformed output must fail its check, not the run
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(f"op {i}: {reason}")
    return failures


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, ops, hits, factor, bases):
    """Per-layer metrics of the traced phase; times are multiplied by the
    phase's reference-speed factor."""
    from tracer import SPAN_NAMES

    m = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = (ratio(tracer.self_s[name], ops) * factor, "s/op")
        m[f"{name}.calls"] = (ratio(tracer.calls[name], ops), "calls/op")
    for fn, (dh, dm) in hits.items():
        m[f"faces.{fn}.hit_ratio"] = (ratio(dh, dh + dm), "1")
        bases[f"faces.{fn}.hit_ratio"] = f"{dh} cache hits of {dh + dm} calls"
    for key in ("faces", "faces.dissection_patterns", "faces.dependency_patterns"):
        kept, cand = tracer.counts[f"{key}.kept"], tracer.counts[f"{key}.candidates"]
        m[f"{key}.keep_ratio"] = (ratio(kept, cand), "1")
        bases[f"{key}.keep_ratio"] = f"{kept} distinct patterns of {cand} computed candidates"
    events = tracer.counts["motion.events"]
    m["motion.events_per_op"] = (ratio(events, ops), "events/op")
    bases["motion.events_per_op"] = f"{events} events over {ops} ops"
    tries = tracer.calls["motion.g_from_motion"]
    accepted = tries - tracer.errors["motion.g_from_motion"]
    m["motion.accept_ratio"] = (ratio(accepted, tries), "1")
    bases["motion.accept_ratio"] = f"{accepted} traces of {tries} attempts"
    for sub in CLI_SUBCOMMANDS:
        name = f"cli.{sub}"
        m[f"{name}.wall_s"] = (ratio(tracer.self_s[name], tracer.calls[name]) * factor, "s")
        bases[f"{name}.wall_s"] = f"mean of {tracer.calls[name]} invocations"
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="file the traced run writes its spans to")
    args = ap.parse_args(argv)
    # One CPU for the worker and the CLI processes it starts, so that the
    # calibration kernel runs on the core the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    t0 = time.perf_counter()
    import arrlevels  # noqa: F401  (the import is part of set-up)
    import workloads

    t1 = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    feed = InputFeed(wl)
    feed.refill()
    t2 = time.perf_counter()
    warm_in = wl.warmup_input()
    warm_reason = [f"warm-{x}" for x in check_all(wl, [(warm_in, run_op(wl.op, warm_in), 0.0)])]
    gc.collect()
    ready_at = time.monotonic()
    t3 = time.perf_counter()
    setup_kernel_s = statistics.median(kernel_s() for _ in range(5))
    setup = {"import_s": t1 - t0, "inputs_s": t2 - t1, "warmup_s": t3 - t2}
    head = {"ready_at": ready_at, "setup_kernel_s": setup_kernel_s, "setup": setup}
    if args.setup_only:
        print(json.dumps(head))
        return 0

    records: list = []
    metrics: dict = {}
    bases: dict = {}
    if args.trace:
        from tracer import Tracer
        from arrlevels import faces

        plain = scaled(*run_phase(wl, feed, args.seconds / 3, records)[:2])
        tracer = Tracer()
        before = {fn: getattr(faces, fn).cache_info() for fn in ("f_matrix", "fstar_matrix")}
        tracer.install()
        lat, kern, _ = run_phase(wl, feed, args.seconds * 2 / 3, records, tracer)
        tracer.uninstall()
        hits = {}
        for fn, info in before.items():
            after = getattr(faces, fn).cache_info()
            hits[fn] = (after.hits - info.hits, after.misses - info.misses)
        factor = REF_KERNEL_S / statistics.median(kern)
        metrics = layer_metrics(tracer, len(lat), hits, factor, bases)
        untraced, traced = len(plain) / sum(plain), len(lat) / sum(scaled(lat, kern))
        metrics["trace.untraced_ops_per_s"] = (untraced, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced, "1/s")
        metrics["trace.overhead_frac"] = (untraced / traced - 1, "1")
        bases["trace.overhead_frac"] = f"{len(plain)} untraced ops, then {len(lat)} traced ops"
        for key, value in setup.items():
            metrics[f"setup.{key}"] = (value * REF_KERNEL_S / setup_kernel_s, "s")
        if args.spans:
            tracer.write_spans(args.spans)
            bases["spans"] = f"{len(tracer.spans)} spans kept, {tracer.dropped} dropped"
    else:
        lat, kern, rss = run_phase(wl, feed, args.seconds, records)
        ref = scaled(lat, kern)
        n = len(lat)
        metrics["ops_per_s"] = (n / sum(ref), "1/s")
        metrics["op_p50_s"] = (statistics.median(ref), "s")
        metrics["op_p90_s"] = (p90(ref), "s")
        metrics["peak_rss_mib"] = (rss, "MiB")
        bases["peak_rss_mib"] = f"after set-up and the first {min(n, RSS_AT_OPS)} ops"
        k_ms = statistics.median(kern) * 1e3
        bases["ops_per_s"] = f"raw {n / sum(lat):.4f}/s; median kernel {k_ms:.3f} ms, reference {REF_KERNEL_S * 1e3:g} ms"
        bases["op_p50_s"] = f"raw {statistics.median(lat):.4f} s"
        bases["op_p90_s"] = f"raw {p90(lat):.4f} s; {n} ops, {n - int(0.9 * n)} beyond the 90th percentile"

    failures = check_all(wl, records)
    print(
        json.dumps(
            {
                **head,
                "attempted": len(records),
                "failed": len(failures),
                "warmup_failures": warm_reason,
                "failures": failures[:20],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                "bases": bases,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
