"""Workload generation, the loupe session and job execution for the benchmark.

A workload is a list of jobs made from a seed.  A job is either a
``loupe.cli.main(argv)`` invocation or a library call where the CLI has no
verb; either way its output is its captured stdout, which is checked against
the sha256 digest recorded at the benchmark's parent commit
(``data/expected.json``) and against loupe's own oracles.

The program sees only the generated argv lists and the loop files written
under the run's input directory; nothing here computes a result for it.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import io
import json
import os
import random
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
DATA = HERE / "data"

WORKLOADS = ("family-sweep", "group-report", "census-large", "mlt-color")

# Members of L_n(m) sampled per n; the sweep always includes these two.
PER_N = 2
FORCED_MEMBERS = {45: 8, 59: 2}
SURVEY_MAX_N = 59  # the largest n whose members fit the default census_order cap

# Subgroup-rich groups and products, each loaded fresh from its file by every job.
GROUP_LOOPS = {
    "S4xC2": ("S4", "C2"),
    "S4": ("S4",),
    "S3xS3": ("S3", "S3"),
    "C2_4": ("C2", "C2", "C2", "C2"),
    "C2_2xS3": ("C2", "C2", "S3"),
    "C3xS3": ("C3", "S3"),
    "L5_2xS3": ("L5_2", "S3"),
    "L5_2xC2_2": ("L5_2", "C2", "C2"),
}
G_CHECK_MAX_ORDER = 31  # order^2 isotope pairs must stay under the default search cap
COSETS_PER_LOOP = 2
LARGE_CAPS = "census_order=150,census=2000,lattice_build=4000"

# |Mlt(L_7(m))| is 20,160 for these m; the order-8 sample already reaches 40,320.
L7_MEMBERS = (3, 5)

_TIMING = re.compile(r"\[\d+\.\d+s\]")


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or data)."""


@dataclass(frozen=True)
class Job:
    """One closed-loop job: a CLI argv or a named library call."""

    key: str                      # stable name; keys the expected digest
    argv: tuple[str, ...] = ()    # arguments of loupe.cli.main
    call: str = ""                # or a library call from CALLS
    args: tuple = ()
    caps: str = ""                # LOUPE_CAPS for this job only
    must_have: str = ""           # oracle text the output must contain
    must_not: str = ""            # oracle text the output must not contain
    timed_output: bool = False    # stdout carries wall-clock timings to mask


@dataclass(frozen=True)
class Outcome:
    latency: float   # wall-clock seconds
    cpu: float       # process CPU seconds
    rc: object
    stdout: str
    error: str


# --- inputs -----------------------------------------------------------------


def admissible_m(n: int) -> list[int]:
    return [m for m in range(2, n) if gcd(m, n) == 1 and gcd(m - 1, n) == 1]


def _default_labels(size: int) -> list[str]:
    return ["e"] + [str(i) for i in range(1, size)]


def _cyclic(k: int) -> dict:
    table = [[(i + j) % k for j in range(k)] for i in range(k)]
    return {"size": k, "labels": _default_labels(k), "table": table}


def _symmetric(k: int) -> dict:
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[i]] for i in range(k))] for q in perms] for p in perms]
    return {"size": len(perms), "labels": ["".join(map(str, p)) for p in perms], "table": table}


def _ln(n: int, m: int) -> dict:
    size = n + 1
    table = [list(range(size))]
    for i in range(1, size):
        table.append([i] + [0 if i == j else (m * j - (m - 1) * i) % n or n for j in range(1, size)])
    return {"size": size, "labels": _default_labels(size), "table": table}


def _product(a: dict, b: dict) -> dict:
    n2 = b["size"]
    ta, tb = a["table"], b["table"]
    table = [
        [ta[x][y] * n2 + tb[s][t] for y in range(a["size"]) for t in range(n2)]
        for x in range(a["size"])
        for s in range(n2)
    ]
    labels = [f"({la},{lb})" for la in a["labels"] for lb in b["labels"]]
    return {"size": a["size"] * n2, "labels": labels, "table": table}


_FACTORS = {
    "C2": lambda: _cyclic(2),
    "C3": lambda: _cyclic(3),
    "S3": lambda: _symmetric(3),
    "S4": lambda: _symmetric(4),
    "S5": lambda: _symmetric(5),
    "L5_2": lambda: _ln(5, 2),
}


def make_loop(factors: tuple[str, ...]) -> dict:
    """A loop in loupe's JSON form: the direct product of the named factors."""
    doc = _FACTORS[factors[0]]()
    for name in factors[1:]:
        doc = _product(doc, _FACTORS[name]())
    return doc


def coloring_text(table) -> str:
    """Edge {u, v} of K_n colored by the a whose right translation swaps u and v."""
    edges = sorted(
        (u, table[u][a], a)
        for a in range(1, len(table))
        for u in range(len(table))
        if u < table[u][a]
    )
    return "\n".join(f"{u} {v} {a}" for u, v, a in edges)


class InputDir:
    """Writes the loop and coloring files a job list refers to."""

    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, text: str) -> str:
        path = self.root / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def loop(self, name: str, doc: dict) -> str:
        return self._write(name + ".json", json.dumps(doc, separators=(",", ":")))

    def coloring(self, name: str, text: str) -> str:
        return self._write(name + ".txt", text)


# --- job lists ----------------------------------------------------------------


class Chooser:
    """Seeded selection and ordering; with no rng it keeps every candidate in order."""

    def __init__(self, rng: random.Random | None):
        self.rng = rng

    def pick(self, items, k: int) -> list:
        items = list(items)
        if self.rng is None:
            return items
        return self.rng.sample(items, min(k, len(items)))

    def shuffle(self, items) -> list:
        items = list(items)
        if self.rng is not None:
            self.rng.shuffle(items)
        return items


def _cli(argv, names=None, **kw) -> Job:
    """A CLI job; ``names`` maps file paths in argv to the names used in the key."""
    names = names or {}
    key = " ".join(names.get(a, a) for a in argv)
    return Job(key=key, argv=tuple(argv), **kw)


def _family_sweep(ch: Chooser, files: InputDir, data: dict, tiny: bool) -> list[Job]:
    ns = (5, 7, 9) if tiny else range(5, SURVEY_MAX_N + 1, 2)
    per_n = 1 if tiny else PER_N
    members = []
    for n in ns:
        forced = [FORCED_MEMBERS[n]] if n in FORCED_MEMBERS else []
        rest = [m for m in admissible_m(n) if m not in forced]
        members += [(n, m) for m in forced + ch.pick(rest, per_n - len(forced))]
    jobs = []
    for n, m in ch.shuffle(members):
        nm = ["--n", str(n), "--m", str(m)]
        jobs += [
            _cli(["report", "--format", "json", "--ln", f"{n},{m}"]),
            _cli(["ln", "classify", *nm], must_not="MISMATCH"),
            _cli(["ln", "cycles", *nm], must_have="matches_prediction=true"),
            _cli(["ln", "normalizers", *nm], must_not="predicted_ok=NO"),
        ]
    max_n = ns[-1]
    jobs.append(Job(key=f"survey_family.survey({max_n})", call="survey", args=(max_n,),
                    must_have="mismatches: 0", must_not="MISMATCH"))
    return jobs


def _group_report(ch: Chooser, files: InputDir, data: dict, tiny: bool) -> list[Job]:
    names = ("C3xS3", "C2_4") if tiny else tuple(GROUP_LOOPS)
    jobs = []
    for name in names:
        doc = make_loop(GROUP_LOOPS[name])
        path = files.loop(name, doc)
        src = {path: name}
        jobs += [
            _cli(["report", "--format", "json", "--loop", path], src),
            _cli(["smarandache", "--loop", path], src),
            _cli(["lattice", "--family", "subgroups", "--format", "json", "--loop", path], src),
        ]
        if doc["size"] <= G_CHECK_MAX_ORDER:
            jobs.append(_cli(["isotope", "--g-check", "--loop", path], src))
        for sub in ch.pick(data["coset_subgroups"][name], 1 if tiny else COSETS_PER_LOOP):
            spec = ",".join(map(str, sub))
            jobs.append(_cli(["coset", "--loop", path, "--subgroup", spec, "--cover"], src))
    return ch.shuffle(jobs)


def _census_large(ch: Chooser, files: InputDir, data: dict, tiny: bool) -> list[Job]:
    # S_5: order 120, 14,400 table entries, 156 subloops.  L_5(2)xS_4 (order 144)
    # is left out: its 10 s census allows too few repeats per run to be steady.
    name = "S4" if tiny else "S5"
    path = files.loop(name, make_loop((name,)))
    src = {path: name}
    jobs = [
        _cli(["substructures", "--format", "json", "--loop", path], src, caps=LARGE_CAPS),
        _cli(["smarandache", "--loop", path], src, caps=LARGE_CAPS),
        _cli(["lattice", "--family", "subgroups", "--format", "json", "--loop", path], src,
             caps=LARGE_CAPS),
    ]
    return ch.shuffle(jobs)


def _mlt_color(ch: Chooser, files: InputDir, data: dict, tiny: bool) -> list[Job]:
    pool = data["order8"]
    jobs = [_cli(["color", "enumerate", "--order", str(k)]) for k in ((6,) if tiny else (6, 8))]
    orders = [4, 6] if tiny else [4, 6, 8]
    jobs.append(Job(key=f"census_colorings.main({orders})", call="census_colorings",
                    args=(orders,), must_not="MISMATCH", timed_output=True))
    strata: dict[int, list[dict]] = {}
    for entry in pool:
        if not entry["ip"]:
            strata.setdefault(entry["mlt"], []).append(entry)
    sizes = sorted(strata)[:1] if tiny else sorted(strata)
    sample = [e for size in sizes for e in ch.pick(strata[size], 1)]
    groups = ch.pick([e for e in pool if e["ip"]], 1 if tiny else 2)
    for entry in sample + groups:
        name = f"o8_{entry['index']}"
        path = files.loop(name, {"size": 8, "table": entry["table"]})
        jobs.append(Job(key=f"mlt {name}", call="mlt", args=(path, entry["ip"])))
    for entry in ch.pick([e for e in pool if not e["ip"]], 1 if tiny else 2):
        name = f"o8_{entry['index']}"
        path = files.loop(name, {"size": 8, "table": entry["table"]})
        colors = files.coloring(name, coloring_text(entry["table"]))
        jobs.append(_cli(["color", "from-loop", "--loop", path], {path: name}))
        jobs.append(_cli(["color", "to-loop", "--coloring", colors], {colors: name + ".txt"}))
        jobs.append(_cli(["represent", "--validate", "--loop", path], {path: name},
                         must_have="albert: valid"))
    for m in ch.pick(() if tiny else L7_MEMBERS, 1):
        jobs.append(Job(key=f"mlt L_7({m})", call="mlt", args=((7, m), False)))
        jobs.append(_cli(["represent", "--validate", "--ln", f"7,{m}"],
                         must_have="albert: valid"))
    return ch.shuffle(jobs)


_GENERATORS = {
    "family-sweep": _family_sweep,
    "group-report": _group_report,
    "census-large": _census_large,
    "mlt-color": _mlt_color,
}


def load_data(name: str) -> dict:
    path = DATA / name
    if not path.is_file():
        raise BenchError(f"missing benchmark data {path}")
    return json.loads(path.read_text(encoding="utf-8"))


def make_jobs(workload: str, seed: int | None, input_dir: Path, data: dict,
              tiny: bool = False) -> list[Job]:
    """The workload's job list for ``seed``; ``seed=None`` gives every candidate job."""
    rng = None if seed is None else random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](Chooser(rng), InputDir(input_dir), data, tiny)


# --- the loupe session --------------------------------------------------------


class Session:
    """A fresh import of loupe and the two survey scripts from a source tree."""

    SCRIPTS = {"survey": "survey_family", "colorings": "census_colorings"}

    def __init__(self, root: Path):
        for name in [n for n in sys.modules if n == "loupe" or n.startswith("loupe.")]:
            del sys.modules[name]
        for name in self.SCRIPTS.values():
            sys.modules.pop(name, None)
        self.loupe = importlib.import_module("loupe")
        if Path(self.loupe.__file__).resolve().parent != (root / "src" / "loupe").resolve():
            raise BenchError(f"imported loupe from {self.loupe.__file__}, not {root / 'src'}")
        self.cli = importlib.import_module("loupe.cli")
        self.identities = importlib.import_module("loupe.identities")
        for attr, name in self.SCRIPTS.items():
            setattr(self, attr, _load_script(root / "scripts" / f"{name}.py", name))

    def modules(self) -> list:
        """Every namespace a kernel may be bound in: loupe's modules and the scripts."""
        loupe = [m for n, m in sys.modules.items() if n == "loupe" or n.startswith("loupe.")]
        return loupe + [self.survey, self.colorings]


def _load_script(path: Path, name: str):
    if not path.is_file():
        raise BenchError(f"missing script {path}")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def add_source_path(root: Path) -> None:
    src = root / "src"
    if not (src / "loupe" / "__init__.py").is_file():
        raise BenchError(f"no loupe sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# --- running and checking jobs --------------------------------------------------


def _verdict_doc(v) -> dict:
    return {"holds": v.holds, "witness": v.witness}


def _call_mlt(session: Session, source, ip: bool) -> int:
    """Inner mapping group and A-loop decision (plus ARIF for IP loops) as JSON."""
    if isinstance(source, str):
        L = session.cli.load_loop(source)
    else:
        L = session.loupe.build_ln(*source)
    ids = session.identities
    doc = {
        "order": L.size,
        "inner_mapping_group": len(ids.inner_mapping_group(L)),
        "is_a_loop": _verdict_doc(ids.is_a_loop(L)),
    }
    if ip:
        doc["is_arif"] = _verdict_doc(ids.is_arif(L))
    print(json.dumps(doc, sort_keys=True))
    return 0


CALLS = {
    "survey": lambda session, max_n: session.survey.survey(max_n),
    "census_colorings": lambda session, orders: session.colorings.main(list(orders)),
    "mlt": _call_mlt,
}


def run_job(session: Session, job: Job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("LOUPE_CAPS")
    if job.caps:
        os.environ["LOUPE_CAPS"] = job.caps
    error = ""
    try:
        cpu_start, start = time.process_time(), time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if job.call:
                    rc = CALLS[job.call](session, *job.args)
                else:
                    rc = session.cli.main(list(job.argv))
        except SystemExit as exc:
            rc, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a failing job is counted, not fatal
            rc, error = None, f"{type(exc).__name__}: {exc}"
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    finally:
        if saved is None:
            os.environ.pop("LOUPE_CAPS", None)
        else:
            os.environ["LOUPE_CAPS"] = saved
    return Outcome(latency, cpu, rc, out.getvalue(), (err.getvalue() + error).strip())


def comparable(job: Job, stdout: str) -> str:
    """The stdout with wall-clock timings masked, for jobs that print them."""
    return _TIMING.sub("[]", stdout) if job.timed_output else stdout


def digest(job: Job, stdout: str) -> str:
    return hashlib.sha256(comparable(job, stdout).encode("utf-8")).hexdigest()


def oracle_failure(job: Job, outcome: Outcome) -> str | None:
    """Why the job failed by loupe's own standards (exit code and oracles), or None."""
    if outcome.rc != 0:
        return f"exit {outcome.rc}: {outcome.error[-300:]}"
    if job.must_have and job.must_have not in outcome.stdout:
        return f"output lacks {job.must_have!r}"
    if job.must_not and job.must_not in outcome.stdout:
        return f"output contains {job.must_not!r}"
    return None


def check(job: Job, outcome: Outcome, expected: dict) -> str | None:
    """Why the job failed, or None when exit code, oracles and digest all agree."""
    reason = oracle_failure(job, outcome)
    if reason:
        return reason
    want = expected.get(job.key)
    if want is None:
        return "no recorded digest for this job"
    if digest(job, outcome.stdout) != want:
        return "stdout differs from the recorded digest"
    return None
