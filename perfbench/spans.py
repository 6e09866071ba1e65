"""Outside-in spans around loupe's kernels, for the benchmark's traced run.

Modules import kernels by name, so each traced function is rebound in every
namespace that holds it (loupe's modules and the survey scripts) and the
original bindings are put back by ``restore``.  ``FiniteLoop.ldiv`` and
``rdiv`` are counted but not timed.  Spans stay in memory, in flat arrays,
until ``write_jsonl``; each has a name, start, end, parent span, job and pass.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import update_wrapper


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


class Tracer:
    """Records spans and work counters while installed on a loupe session."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_index: dict[str, int] = {}
        self.s_label = array("I")
        self.s_parent = array("q")
        self.s_job = array("q")
        self.s_pass = array("I")
        self.s_outer = array("b")   # no span of the same label is open around it
        self.s_start = array("d")
        self.s_end = array("d")
        self._stack: list[int] = []
        self._open_count: dict[int, int] = {}
        self.job = -1
        self.pass_no = 0
        self.origin = time.perf_counter()
        # work counters, summed over every traced pass
        self.counts: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self.jobs_calling: dict[str, set] = {}
        self.max_ratio: dict[str, float] = {}
        self._loop_serial: dict[int, int] = {}
        self._next_serial = 0
        self._loops_alive: list = []
        self._undo: list[tuple[object, str, object]] = []

    # --- spans -------------------------------------------------------------

    def _label(self, label: str) -> int:
        idx = self._label_index.get(label)
        if idx is None:
            idx = self._label_index[label] = len(self.labels)
            self.labels.append(label)
            self._open_count[idx] = 0
        return idx

    def _open(self, idx: int) -> int:
        sid = len(self.s_label)
        self.s_label.append(idx)
        self.s_parent.append(self._stack[-1] if self._stack else -1)
        self.s_job.append(self.job)
        self.s_pass.append(self.pass_no)
        depth = self._open_count[idx]
        self._open_count[idx] = depth + 1
        self.s_outer.append(depth == 0)
        self.s_end.append(0.0)
        self._stack.append(sid)
        self.s_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, idx: int) -> None:
        self.s_end[sid] = time.perf_counter()
        self._stack.pop()
        self._open_count[idx] -= 1

    @contextmanager
    def job_span(self, job: int, key: str):
        self.job = job
        idx = self._label("job:" + key)
        sid = self._open(idx)
        try:
            yield
        finally:
            self._close(sid, idx)
            self.job = -1

    def start_pass(self) -> None:
        self.pass_no += 1

    def end_pass(self) -> None:
        self._loop_serial.clear()
        self._loops_alive.clear()

    # --- counters ----------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def loop_key(self, loop) -> int:
        """A serial per loop object, stable for the pass (the object is kept alive)."""
        serial = self._loop_serial.get(id(loop))
        if serial is None:
            self._next_serial += 1
            serial = self._loop_serial[id(loop)] = self._next_serial
            self._loops_alive.append(loop)
        return serial

    def note_distinct(self, label: str, key) -> None:
        self.distinct.setdefault(label, set()).add(key)

    def note_job(self, label: str) -> None:
        self.jobs_calling.setdefault(label, set()).add((self.pass_no, self.job))

    def note_max(self, name: str, value: float) -> None:
        self.max_ratio[name] = max(self.max_ratio.get(name, 0.0), value)

    # --- rebinding ---------------------------------------------------------

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, replacement)
                    self._undo.append((module, name, original))

    def install(self, modules, targets=None) -> None:
        """Rebind every target kernel in ``modules``; ``restore`` undoes it."""
        for module_name, attr, observe in targets or TARGETS:
            original = getattr(sys.modules[module_name], attr)
            label = module_name.removeprefix("loupe.") + "." + attr
            self._rebind(modules, original, self._timed(label, original, observe))
        loop_class = sys.modules["loupe.core"].FiniteLoop
        for attr in ("ldiv", "rdiv"):
            original = loop_class.__dict__[attr]
            self._rebind([loop_class], original, self._counted("core.ldiv_rdiv.calls", original))

    def restore(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)

    def _timed(self, label, fn, observe):
        idx = self._label(label)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._open(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, idx)
            if observe is not None:
                observe(tracer, label, args, kwargs, result)
            return result

        return update_wrapper(traced, fn)

    def _counted(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return update_wrapper(counted, fn)

    # --- results -----------------------------------------------------------

    def layer_stats(self, passes: int) -> dict[str, float]:
        """Per-pass means of every traced kernel's calls, self_s and total_s, plus
        the derived work ratios."""
        n = len(self.s_label)
        child = [0.0] * n
        for i in range(n):
            p = self.s_parent[i]
            if p >= 0:
                child[p] += self.s_end[i] - self.s_start[i]
        calls = [0] * len(self.labels)
        self_s = [0.0] * len(self.labels)
        total_s = [0.0] * len(self.labels)
        for i in range(n):
            idx = self.s_label[i]
            dur = self.s_end[i] - self.s_start[i]
            calls[idx] += 1
            self_s[idx] += dur - child[i]
            if self.s_outer[i]:
                total_s[idx] += dur
        stats: dict[str, float] = {}
        for idx, label in enumerate(self.labels):
            if label.startswith("job:"):
                continue
            stats[label + ".calls"] = calls[idx] / passes
            stats[label + ".self_s"] = self_s[idx] / passes
            stats[label + ".total_s"] = total_s[idx] / passes
        for label, keys in self.distinct.items():
            made = calls[self._label_index[label]]
            stats[label + ".distinct_frac"] = len(keys) / made if made else 0.0
        for label, jobs in self.jobs_calling.items():
            stats[label + ".per_job"] = calls[self._label_index[label]] / len(jobs)
        for name, value in self.counts.items():
            stats[name] = value / passes
        stats.update(self.max_ratio)
        return stats

    def write_jsonl(self, path) -> None:
        """Gzipped JSONL: a header naming the fields and span names, then one
        array per span with times in seconds from the tracer's creation."""
        fields = ["id", "parent", "pass", "job", "name", "start", "end"]
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": fields, "names": self.labels}) + "\n")
            origin = self.origin
            for i in range(len(self.s_label)):
                fh.write("[%d,%d,%d,%d,%d,%.9f,%.9f]\n" % (
                    i, self.s_parent[i], self.s_pass[i], self.s_job[i], self.s_label[i],
                    self.s_start[i] - origin, self.s_end[i] - origin))


# --- what each traced kernel records beyond calls and time ----------------------


def _distinct_subset(position: int, name: str, of_subloop: bool = False):
    def observe(tracer, label, args, kwargs, result):
        arg = _arg(args, kwargs, position, name)
        key = arg.elements if of_subloop else frozenset(arg)
        tracer.note_distinct(label, (tracer.loop_key(args[0] if args else kwargs["L"]), key))
    return observe


def _census(tracer, label, args, kwargs, result):
    caps = _arg(args, kwargs, 1, "caps") or sys.modules["loupe.config"].DEFAULT_CAPS
    found = len(result.subloops)
    tracer.note_job(label)
    tracer.add(label + ".subloops", found)
    tracer.note_max(label + ".cap_headroom", found / caps.census)


def _sized(stat: str, size):
    def observe(tracer, label, args, kwargs, result):
        tracer.add(f"{label}.{stat}", size(result))
    return observe


TARGETS = (
    ("loupe.core", "generated_subloop", _distinct_subset(1, "seed")),
    ("loupe.core", "is_subgroup", _distinct_subset(1, "S", of_subloop=True)),
    ("loupe.core", "normality_witness", None),
    ("loupe.core", "validate_loop", None),
    ("loupe.core", "find_isomorphism", None),
    ("loupe.isotopes", "principal_isotope", None),
    ("loupe.isotopes", "is_g_loop", None),
    ("loupe.identities", "check_law", None),
    ("loupe.identities", "is_diassociative", None),
    ("loupe.identities", "multiplication_group", _sized("perms", len)),
    ("loupe.identities", "is_a_loop", None),
    ("loupe.substructures", "all_subloops", _census),
    ("loupe.lattice", "build_lattice", _sized("nodes", lambda lat: lat.size)),
    ("loupe.lattice", "check_modular", None),
    ("loupe.lattice", "find_forbidden_sublattice", None),
    ("loupe.smarandache", "s_classical_report", None),
    ("loupe.smarandache", "coset_cover_search", None),
    ("loupe.representation", "render_representation", None),
    ("loupe.representation", "cycle_class", None),
    ("loupe.representation", "validate_albert", None),
    ("loupe.coloring", "enumerate_involutory_right_alt", _sized("loops", len)),
    ("loupe.coloring", "count_one_factorizations", None),
    ("loupe.ln", "build_ln", None),
    ("loupe.cli", "main", None),
)
