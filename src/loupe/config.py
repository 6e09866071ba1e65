"""Resource caps for the enumerative kernels.

Every cap is a hard bound: when a search or closure would exceed it the
operation raises a ``CapExceeded`` subclass instead of returning partial
results.  The ``LOUPE_CAPS`` environment variable overrides defaults with
comma-separated ``key=value`` pairs, e.g. ``LOUPE_CAPS=census=10000,census_order=120``;
an unknown key raises ``ValueError``.  ``up_tup_check`` takes its subset size as an argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    census: int = 5000          # max subloops in a census
    census_order: int = 60      # max loop order for census-backed reports
    mlt: int = 50_000           # max permutations in a multiplication-group closure
    search: int = 1000          # max solutions in coset-cover / enumeration searches
    lattice_nodes: int = 40     # max lattice size for forbidden-sublattice search
    lattice_build: int = 2000   # max nodes while closing a lattice family
    color_search: int = 1_000_000  # max matching candidates while enumerating colorings

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"cap {f.name} must be positive")

    @classmethod
    def from_env(cls, env: str | None = None) -> "Caps":
        raw = os.environ.get("LOUPE_CAPS", "") if env is None else env
        caps = cls()
        if not raw.strip():
            return caps
        overrides = {}
        names = {f.name for f in fields(cls)}
        for item in raw.split(","):
            if not item.strip():
                continue
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in names:
                raise ValueError(f"unknown cap {key!r} in LOUPE_CAPS")
            try:
                overrides[key] = int(value)
            except ValueError:
                raise ValueError(f"cap {key!r} in LOUPE_CAPS needs an integer value") from None
        return replace(caps, **overrides)


DEFAULT_CAPS = Caps()
