#!/usr/bin/env python3
"""loupe benchmark: one closed-loop client running a seeded workload in-process.

Usage (from the root of a loupe checkout):

    python3 perfbench/run.py --workload family-sweep --seed 1 --seconds 24 --trace 0

Each pass starts a fresh loupe session (loupe and the survey scripts are
imported anew), generates the workload's inputs from the seed, writes its
loop files, then runs its jobs one after another.  Passes repeat while the
next one is expected to fit in ``--seconds``; there is always at least one.
Every job's stdout is checked after its pass, outside the timed span.
Timings are per-job medians over the passes, which filters the bursts of
interference a shared machine adds to single passes.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` one untraced pass is followed by traced passes, and the
per-layer metrics are printed instead (see spans.py).  The last line of
stdout is the JSON result; a provenance line precedes it, and the full
record is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    BenchError,
    Session,
    add_source_path,
    check,
    load_data,
    make_jobs,
    run_job,
)

SETUP_REPEATS = 9  # fresh sessions set up before the first pass; setup_s is their median
DEV_SEED = 1       # the seed used while writing a change; seed 2 is for re-checking it


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, tiny: bool = False):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.data = load_data("pool.json")
        self.expected = load_data("expected.json")
        self.input_dir = ROOT / ".perfbench" / f"{workload}-seed{seed}"
        self.setup_times: list[float] = []
        self.passes: list[dict] = []
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0

    def setup(self):
        """A fresh session plus every input of the workload, timed."""
        start = time.perf_counter()
        session = Session(ROOT)
        jobs = make_jobs(self.workload, self.seed, self.input_dir, self.data, self.tiny)
        self.setup_times.append(time.perf_counter() - start)
        return session, jobs

    def run_pass(self, session, jobs, tracer: Tracer | None = None) -> dict:
        gc.collect()
        outcomes = []
        wall0 = time.perf_counter()
        for i, job in enumerate(jobs):
            if tracer is None:
                outcomes.append(run_job(session, job))
            else:
                with tracer.job_span(i, job.key):
                    outcomes.append(run_job(session, job))
        wall = time.perf_counter() - wall0
        self.attempted += len(jobs)
        for job, outcome in zip(jobs, outcomes):
            reason = check(job, outcome, self.expected)
            if reason:
                self.failures.append((job.key, reason))
                print(f"FAILED {job.key}: {reason}", file=sys.stderr)
        return {"wall": wall, "traced": tracer is not None,
                "latencies": [o.latency for o in outcomes], "cpus": [o.cpu for o in outcomes]}

    def _more(self, start: float, walls: list[float]) -> bool:
        return time.perf_counter() - start + statistics.median(walls) <= self.seconds

    def measure(self) -> dict:
        for _ in range(SETUP_REPEATS):
            session, jobs = self.setup()
        start = time.perf_counter()
        while True:
            self.passes.append(self.run_pass(session, jobs))
            if not self._more(start, [p["wall"] for p in self.passes]):
                break
            session, jobs = self.setup()
        return {
            "setup_s": statistics.median(self.setup_times),
            "wall_s": sum(per_job_medians(self.passes, "latencies")),
            "cpu_s": sum(per_job_medians(self.passes, "cpus")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def measure_traced(self, tracer: Tracer) -> dict:
        session, jobs = self.setup()
        start = time.perf_counter()
        base = self.run_pass(session, jobs)
        self.passes.append(base)
        walls = []
        while True:
            session, jobs = self.setup()
            tracer.start_pass()
            tracer.install(session.modules())
            try:
                traced = self.run_pass(session, jobs, tracer)
            finally:
                tracer.restore()
                tracer.end_pass()
            self.passes.append(traced)
            walls.append(traced["wall"])
            if not self._more(start, [base["wall"]] + walls):
                break
        stats = tracer.layer_stats(len(walls))
        stats["trace.overhead_frac"] = statistics.median(walls) / base["wall"] - 1
        return stats


def per_job_medians(passes: list[dict], field: str) -> list[float]:
    """Each job's median over passes; every pass of a run has the same job list."""
    return [statistics.median(column) for column in zip(*(p[field] for p in passes))]


def layer_value(stats: dict, tracer: Tracer, name: str) -> float:
    """A per-layer metric; a traced kernel that never ran on this workload reads 0."""
    if name in stats:
        return stats[name]
    if name.rsplit(".", 1)[0] in tracer.labels:
        return 0.0
    raise BenchError(f"per-layer metric {name} is not traced")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(bench: Bench) -> dict:
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loupe_git_sha": git_sha(),
        "loupe_source_sha256": source_digest(),
        "jobs_per_pass": bench.attempted // max(1, len(bench.passes)),
        "passes": len(bench.passes),
        "traced_passes": sum(p["traced"] for p in bench.passes),
        "load_model": "closed loop, one client, one process, no threads",
    }


def read_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="the self-test's small version of the workload")
    args = parser.parse_args(argv)
    try:
        spec = read_spec()
        add_source_path(ROOT)
        bench = Bench(args.workload, args.seed, args.seconds, args.tiny)
        if args.trace:
            tracer = Tracer()
            stats = bench.measure_traced(tracer)
            metrics = {m["name"]: {"value": layer_value(stats, tracer, m["name"]), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            stats = bench.measure()
            metrics = {m["name"]: {"value": stats[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = {
        "provenance": provenance(bench),
        "pass_walls_s": [p["wall"] for p in bench.passes],
        "job_latencies_s": [p["latencies"] for p in bench.passes],
        "failures": bench.failures,
        "metrics": metrics,
    }
    out_dir = ROOT / ".perfbench"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        tracer.write_jsonl(out_dir / f"{stem}.spans.jsonl.gz")
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
