#!/usr/bin/env python3
"""Self-test of the benchmark, on tiny versions of its workloads.

    python3 perfbench/selftest.py

Checks that every tiny workload runs with no failed job, that both result
lines carry exactly the metrics BENCHMARK.json names, that the tracer puts
back every function it rebinds, and that tracing leaves each job's stdout
byte-identical.  Exits 0 when all hold.  Takes well under a minute.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Session,
    add_source_path,
    comparable,
    load_data,
    make_jobs,
    run_job,
)

FAILURES: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def result_line(argv: list[str]) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = run.main(argv)
    expect(rc == 0, f"run.py {' '.join(argv)} exits 0")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def test_tiny_workloads(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = result_line(["--workload", workload, "--seed", str(run.DEV_SEED),
                                  "--seconds", "0", "--trace", str(trace), "--tiny"])
            expect(result["attempted"] > 0 and result["failed"] == 0 and result["correct"],
                   f"{workload} trace={trace}: {result['attempted']} jobs, none failed")
            expect(set(result["metrics"]) == {m["name"] for m in spec[kind]},
                   f"{workload} trace={trace}: metrics are exactly the {kind} list")


def bindings(modules, originals) -> list:
    ids = {id(f) for f in originals}
    return [(m, name) for m in modules for name, v in vars(m).items() if id(v) in ids]


def test_restore() -> None:
    session = Session(ROOT)
    modules = session.modules()
    core = sys.modules["loupe.core"]
    originals = [getattr(sys.modules[mod], attr) for mod, attr, _ in TARGETS]
    before = {(id(m), name): getattr(m, name) for m, name in bindings(modules, originals)}
    methods = (core.FiniteLoop.ldiv, core.FiniteLoop.rdiv)
    is_subgroup = core.is_subgroup
    check_law = sys.modules["loupe.identities"].check_law
    tracer = Tracer()
    tracer.install(modules)
    expect(core.is_subgroup is not is_subgroup
           and sys.modules["loupe.identities"].is_subgroup is not is_subgroup
           and session.survey.check_law is not check_law,
           "install rebinds kernels in loupe's modules and in the scripts")
    tracer.restore()
    after = {(id(m), name): getattr(m, name) for m, name in bindings(modules, originals)}
    expect(core.is_subgroup is is_subgroup, "loupe.core.is_subgroup is the original object again")
    expect(before == after and all(a is before[k] for k, a in after.items()),
           f"all {len(before)} rebound names are restored")
    expect((core.FiniteLoop.ldiv, core.FiniteLoop.rdiv) == methods,
           "FiniteLoop.ldiv and rdiv are restored")


def test_traced_stdout_identical() -> None:
    data = load_data("pool.json")
    input_dir = ROOT / ".perfbench" / "selftest"
    for workload in WORKLOADS:
        session = Session(ROOT)
        jobs = make_jobs(workload, run.DEV_SEED, input_dir, data, tiny=True)
        plain = [run_job(session, job).stdout for job in jobs]
        tracer = Tracer()
        tracer.install(session.modules())
        try:
            traced = []
            for i, job in enumerate(jobs):
                with tracer.job_span(i, job.key):
                    traced.append(run_job(session, job).stdout)
        finally:
            tracer.restore()
        same = all(comparable(job, a) == comparable(job, b)
                   for job, a, b in zip(jobs, plain, traced))
        expect(same and len(tracer.s_label) > len(jobs),
               f"{workload}: traced stdout is byte-identical for all {len(jobs)} jobs")


def main() -> int:
    add_source_path(ROOT)
    spec = run.read_spec()
    test_restore()
    test_traced_stdout_identical()
    test_tiny_workloads(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
