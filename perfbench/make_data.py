#!/usr/bin/env python3
"""Regenerate the benchmark's recorded data from the loupe sources in this checkout.

    python3 perfbench/make_data.py

Writes ``data/pool.json`` (the subgroups offered to ``coset --cover`` and a
fixed pool of order-8 involutory right-alternative loops) and
``data/expected.json`` (the sha256 of every candidate job's stdout, for every
seed and for the self-test's tiny workloads).  Run it only on the commit the
digests should pin: the benchmark counts any later difference as a failure.
Takes a few minutes on one core.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DATA,
    GROUP_LOOPS,
    WORKLOADS,
    Session,
    add_source_path,
    digest,
    make_jobs,
    make_loop,
    oracle_failure,
    run_job,
)

ORDER8_STRIDE = 104  # every 104th of the 6,240 order-8 loops joins the pool


def coset_subgroups(session: Session) -> dict[str, list[list[int]]]:
    """Proper nontrivial subgroups of each group-report loop whose cover search
    stays under the default search cap."""
    from loupe.errors import CapExceeded
    from loupe.smarandache import coset_cover_search
    from loupe.substructures import all_subloops

    out = {}
    for name, factors in GROUP_LOOPS.items():
        doc = make_loop(factors)
        L = session.loupe.validate_loop(doc["table"], doc["labels"])
        census = all_subloops(L)
        subs = []
        for S in census.subgroups():
            if S.is_trivial() or not S.is_proper():
                continue
            try:
                coset_cover_search(L, S)
            except CapExceeded:
                continue
            subs.append(list(S.elements))
        out[name] = subs
    return out


def order8_pool(session: Session) -> list[dict]:
    from loupe.coloring import enumerate_involutory_right_alt
    from loupe.identities import Law, check_law, multiplication_group

    loops = enumerate_involutory_right_alt(8)
    pool = []
    for index, L in enumerate(loops):
        ip = check_law(L, Law.IP).holds
        if ip or index % ORDER8_STRIDE == 0:
            pool.append({
                "index": index,
                "ip": ip,
                "mlt": len(multiplication_group(L)),
                "table": [list(row) for row in L.table],
            })
    return pool


def main() -> int:
    add_source_path(ROOT)
    session = Session(ROOT)
    pool = {"coset_subgroups": coset_subgroups(session), "order8": order8_pool(session)}
    DATA.mkdir(exist_ok=True)
    (DATA / "pool.json").write_text(json.dumps(pool, separators=(",", ":")) + "\n")
    scratch = ROOT / ".perfbench" / "make_data"
    expected: dict[str, str] = {}
    bad = 0
    for workload in WORKLOADS:
        for tiny in (False, True):
            session = Session(ROOT)
            for job in make_jobs(workload, None, scratch, pool, tiny):
                outcome = run_job(session, job)
                reason = oracle_failure(job, outcome)
                if reason:
                    print(f"FAILED {job.key}: {reason}", file=sys.stderr)
                    bad += 1
                    continue
                value = digest(job, outcome.stdout)
                if expected.setdefault(job.key, value) != value:
                    print(f"UNSTABLE {job.key}", file=sys.stderr)
                    bad += 1
            print(f"{workload} tiny={tiny}: {len(expected)} digests", file=sys.stderr)
    (DATA / "expected.json").write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
