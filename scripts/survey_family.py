#!/usr/bin/env python3
"""Survey the modular loop family: predictions versus brute force.

For every admissible (n, m) up to --max-n, print the classification flags,
the translation cycle class, and whether every closed-form prediction agrees
with an exhaustive scan of the table.

Usage: python scripts/survey_family.py [--max-n 45]
"""

import argparse
from dataclasses import astuple

from loupe import (
    LnParams,
    build_ln,
    count_ln,
    enumerate_ln_params,
    ln_observed_flags,
    ln_predicted_flags,
    predicted_cycle_class,
)
from loupe.identities import check_law  # noqa: F401 (unused; perfbench/selftest.py reads it)
from loupe.representation import representation_report


def survey(max_n: int) -> int:
    mismatches = 0
    print(f"{'n':>3} {'m':>3} {'order':>5}  flags (C/R/L/W)  cycle class")
    for n in range(5, max_n + 1, 2):
        ms = enumerate_ln_params(n)
        assert len(ms) == count_ln(n)
        for m in ms:
            L = build_ln(n, m)
            params = LnParams(n, m)
            flags = ln_predicted_flags(params)
            klass = predicted_cycle_class(params)
            ok = (
                flags == ln_observed_flags(L)
                and representation_report(L, klass).matches_prediction
            )
            if not ok:
                mismatches += 1
            marks = "".join(c if f else "-" for c, f in zip("CRLW", astuple(flags)))
            print(
                f"{n:>3} {m:>3} {L.size:>5}  {marks:>15}  {klass}"
                + ("" if ok else "   <-- MISMATCH")
            )
    print(f"\nmismatches: {mismatches}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=45)
    raise SystemExit(survey(parser.parse_args().max_n))
