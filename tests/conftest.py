"""Shared fixtures: frozen reference tables and a small corpus of loops."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from loupe import build_ln, cyclic_group, direct_product, symmetric_group, validate_loop

settings.register_profile(
    "ci", derandomize=True, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
settings.load_profile("ci")


# Order-6 loop of the modular family with n=5, m=2 (reference table).
L5_2_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 5, 2, 4],
    [2, 5, 0, 4, 1, 3],
    [3, 4, 1, 0, 5, 2],
    [4, 3, 5, 2, 0, 1],
    [5, 2, 4, 1, 3, 0],
]

L5_3_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 2, 5, 3],
    [2, 4, 0, 5, 3, 1],
    [3, 2, 5, 0, 1, 4],
    [4, 5, 3, 1, 0, 2],
    [5, 3, 1, 4, 2, 0],
]

L5_4_TABLE = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 5, 4, 3, 2],
    [2, 3, 0, 1, 5, 4],
    [3, 5, 4, 0, 2, 1],
    [4, 2, 1, 5, 0, 3],
    [5, 4, 3, 2, 1, 0],
]

# Non-commutative loop of order 5 on {e, a, b, c, d}; powers of b associate
# two different ways, so element orders are not well defined everywhere.
NONCOMM_5_TABLE = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 1, 0, 3],
    [3, 2, 4, 1, 0],
    [4, 3, 0, 2, 1],
]

# Non-flexible C-loop of order 12 containing the group {0, 1, 2}.
CLOOP_12_TABLE = [
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],
    [1, 2, 0, 4, 5, 3, 7, 8, 6, 10, 11, 9],
    [2, 0, 1, 5, 3, 4, 8, 6, 7, 11, 9, 10],
    [3, 4, 5, 0, 1, 2, 10, 11, 9, 8, 6, 7],
    [4, 5, 3, 1, 2, 0, 11, 9, 10, 6, 7, 8],
    [5, 3, 4, 2, 0, 1, 9, 10, 11, 7, 8, 6],
    [6, 7, 8, 11, 9, 10, 0, 1, 2, 4, 5, 3],
    [7, 8, 6, 9, 10, 11, 1, 2, 0, 5, 3, 4],
    [8, 6, 7, 10, 11, 9, 2, 0, 1, 3, 4, 5],
    [9, 10, 11, 7, 8, 6, 5, 3, 4, 0, 1, 2],
    [10, 11, 9, 8, 6, 7, 3, 4, 5, 1, 2, 0],
    [11, 9, 10, 6, 7, 8, 4, 5, 3, 2, 0, 1],
]


def family_params(max_n: int) -> list[tuple[int, int]]:
    from loupe import enumerate_ln_params

    return [(n, m) for n in range(5, max_n + 1, 2) for m in enumerate_ln_params(n)]


@pytest.fixture(scope="session")
def noncomm5():
    return validate_loop(NONCOMM_5_TABLE, ["e", "a", "b", "c", "d"])


@pytest.fixture(scope="session")
def cloop12():
    return validate_loop(CLOOP_12_TABLE)


@pytest.fixture(scope="session")
def klein():
    return direct_product(cyclic_group(2), cyclic_group(2))


@pytest.fixture(scope="session")
def l52xs3():
    return direct_product(build_ln(5, 2), symmetric_group(3))


@pytest.fixture(scope="session")
def chein_s3():
    """Chein's loop M(S_3, 2) of order 12: the pairs (g, s) of S_3 x {0, 1} under
    (g,0)(h,0) = (gh,0), (g,0)(h,1) = (hg,1), (g,1)(h,0) = (gh^-1,1) and
    (g,1)(h,1) = (h^-1 g,0).  It is the smallest Moufang loop that is not a group."""
    G = symmetric_group(3)
    t, n = G.table, G.size
    inv = [row.index(0) for row in t]

    def mul(x, y):
        (g, s), (h, r) = divmod(x, 2), divmod(y, 2)
        product = (t[g][h], t[h][g], t[g][inv[h]], t[inv[h]][g])[2 * s + r]
        return 2 * product + (s ^ r)

    labels = [f"({G.labels[g]},{s})" for g in range(n) for s in (0, 1)]
    return validate_loop([[mul(x, y) for y in range(2 * n)] for x in range(2 * n)], labels)


@pytest.fixture(scope="session")
def corpus(noncomm5, cloop12, klein, l52xs3):
    """Named test corpus: family members, groups, products, reference tables."""
    loops = {
        "L5(2)": build_ln(5, 2),
        "L5(3)": build_ln(5, 3),
        "L5(4)": build_ln(5, 4),
        "L7(3)": build_ln(7, 3),
        "L7(4)": build_ln(7, 4),
        "L9(5)": build_ln(9, 5),
        "L9(8)": build_ln(9, 8),
        "L15(2)": build_ln(15, 2),
        "L15(8)": build_ln(15, 8),
        "noncomm5": noncomm5,
        "cloop12": cloop12,
        "trivial": cyclic_group(1),
        "Z2": cyclic_group(2),
        "Z3": cyclic_group(3),
        "Z4": cyclic_group(4),
        "Z5": cyclic_group(5),
        "Z6": cyclic_group(6),
        "klein": klein,
        "S3": symmetric_group(3),
        "L5(2)xS3": l52xs3,
    }
    return loops
