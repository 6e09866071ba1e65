#!/usr/bin/env python3
"""Count involutory right-alternative loops against K_2n edge colorings.

For each even order in --orders, enumerate every loop of that order that is
right alternative with x*x = e, count proper (2n-1)-edge-colorings of K_2n
by a separate backtracker that counts edge sets without building loops, and
confirm the two numbers agree.

Usage: python scripts/census_colorings.py [--orders 4 6 8]
"""

import argparse
import time

from loupe.coloring import (
    count_one_factorizations,
    enumerate_involutory_right_alt,
    loop_to_coloring,
    validate_proper,
)


def main(orders: list[int]) -> int:
    failures = 0
    for order in orders:
        t0 = time.time()
        loops = enumerate_involutory_right_alt(order)
        factorizations = count_one_factorizations(order)
        proper = all(validate_proper(loop_to_coloring(L)).holds for L in loops)
        agree = len(loops) == factorizations and proper
        if not agree:
            failures += 1
        print(
            f"order {order}: loops={len(loops)} colorings={factorizations} "
            f"all proper={proper} [{time.time() - t0:.2f}s]"
            + ("" if agree else "  <-- MISMATCH")
        )
    return 1 if failures else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--orders", type=int, nargs="+", default=[4, 6, 8])
    raise SystemExit(main(parser.parse_args().orders))
