"""Command-line surface: build, load and analyse finite loops.

Loop files are JSON ({"size", "labels"?, "table"}) or headerless CSV of the
Cayley table; both are accepted anywhere a loop is an input.  Each ``cmd_*``
returns its text rendering and its JSON document, and ``main`` writes one of
them as the invocation's one result on stdout; errors and diagnostics go to
stderr.  Exit codes:
0 when a decision was rendered (pass or fail), 1 for cap/internal errors,
2 for usage or input errors.  The LOUPE_CAPS environment variable overrides
resource caps (see loupe.config).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from . import coloring as coloring_mod
from . import identities, isotopes, lattice as lattice_mod, representation, smarandache, substructures
from .config import Caps
from .core import FiniteLoop, certify_subloop, validate_loop
from .errors import CapExceeded, LoupeError
from .identities import Law, StrictForm
from .ln import (
    LnParams,
    all_h_subloops,
    build_ln,
    count_ln,
    enumerate_ln_params,
    h_subloop,
    ln_observed_flags,
    ln_predicted_flags,
    predicted_cycle_class,
    predicted_normalizers,
)

USAGE_ERRORS = (ValueError, OSError)


def loop_to_json(L: FiniteLoop) -> dict:
    return {"size": L.size, "labels": list(L.labels), "table": [list(r) for r in L.table]}


def loop_from_json(doc: dict) -> FiniteLoop:
    if "table" not in doc:
        raise ValueError("loop file has no 'table' field")
    L = validate_loop(doc["table"], doc.get("labels"))
    if L.size != doc.get("size", L.size):
        raise ValueError("size field disagrees with table")
    return L


def load_loop(path: str) -> FiniteLoop:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path} nests too deeply to be a loadable loop table") from None
        return loop_from_json(doc)
    rows = [
        [int(tok) for tok in line.replace(",", " ").split()]
        for line in text.splitlines()
        if line.strip()
    ]
    return validate_loop(rows)


def loop_to_csv(L: FiniteLoop) -> str:
    return "\n".join(",".join(str(v) for v in row) for row in L.table)


def resolve_loop(args) -> FiniteLoop:
    loop_path = getattr(args, "loop", None)
    ln_spec = getattr(args, "ln", None)
    if loop_path and ln_spec:
        raise ValueError("supply exactly one input source (--loop or --ln)")
    if loop_path:
        return load_loop(loop_path)
    if ln_spec:
        try:
            n, m = (int(tok) for tok in ln_spec.split(","))
        except ValueError:
            raise ValueError(f"--ln expects two integers N,M, got {ln_spec!r}") from None
        return build_ln(n, m)
    raise ValueError("supply a loop with --loop FILE or --ln N,M")


def parse_element(L: FiniteLoop, token: str) -> int:
    if token in L.labels:
        return L.labels.index(token)
    value = int(token)
    if not 0 <= value < L.size:
        raise ValueError(f"element {token} out of range")
    return value


def parse_subset(L: FiniteLoop, spec: str) -> list[int]:
    return [parse_element(L, tok.strip()) for tok in spec.split(",") if tok.strip()]


def _verdict_doc(v) -> dict:
    doc = {"holds": v.holds}
    if v.witness is not None:
        doc["witness"] = list(v.witness) if isinstance(v.witness, tuple) else v.witness
    if v.detail:
        doc["detail"] = v.detail
    return doc


def cmd_ln(args, caps: Caps) -> tuple[str, object]:
    n = args.n
    if args.action == "list":
        ms = enumerate_ln_params(n)
        return (
            "m: " + " ".join(str(m) for m in ms) + f" (count {count_ln(n)})",
            {"n": n, "m": ms, "count": count_ln(n)},
        )
    if args.m is None:
        raise ValueError(f"action {args.action!r} needs --m")
    params = LnParams(n, args.m)
    if args.action == "census":
        groups = all_h_subloops(params)
        lines = []
        doc = {}
        for t, subs in sorted(groups.items()):
            lines.append(f"t={t}: {len(subs)} subloops of order {n // t + 1}")
            doc[str(t)] = [list(S.elements) for S in subs]
        return "\n".join(lines), doc
    L = build_ln(n, args.m)
    if args.action == "classify":
        observed = vars(ln_observed_flags(L))
        lines = []
        doc = {}
        for name, predicted in vars(ln_predicted_flags(params)).items():
            status = "verified" if predicted == observed[name] else "MISMATCH"
            lines.append(f"{name}={str(predicted).lower()} {status}")
            doc[name] = {"predicted": predicted, "observed": observed[name]}
        return "\n".join(lines), doc
    if args.action == "normalizers":
        lines = []
        doc = []
        for t in sorted(d for d in range(2, n) if n % d == 0):
            for i in range(1, t + 1):
                H = h_subloop(params, i, t)
                first = substructures.first_normalizer(L, H)
                second = substructures.second_normalizer(L, H)
                p1, p2 = predicted_normalizers(params, i, t)
                ok = first == p1.as_set() and second == p2.as_set()
                lines.append(
                    f"H_{i}({t}): first={L.render_subset(first)} "
                    f"second={L.render_subset(second)} predicted_ok={'yes' if ok else 'NO'}"
                )
                doc.append(
                    {
                        "i": i,
                        "t": t,
                        "first": sorted(first),
                        "second": sorted(second),
                        "predicted_ok": ok,
                    }
                )
        return "\n".join(lines) if lines else "no proper subloops", doc
    if args.action == "cycles":
        predicted = predicted_cycle_class(params)
        report = representation.representation_report(L, predicted)
        text = (
            f"predicted class: {predicted}\n"
            f"uniform={str(report.uniform_class).lower()} "
            f"matches_prediction={str(report.matches_prediction).lower()} "
            f"transpositions={str(report.transpositions_present).lower()}"
        )
        return text, {
            "predicted": predicted.as_dict(),
            "uniform": report.uniform_class,
            "matches_prediction": report.matches_prediction,
            "transpositions_present": report.transpositions_present,
        }
    # argparse's choices leave "build" as the one action not handled above
    return loop_to_csv(L), loop_to_json(L)


_LAW_LOOKUP = {law.value: law for law in Law}
_STRICT_LOOKUP = {form.value: form for form in StrictForm}


def cmd_check(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    name = args.law.lower()
    if name in _LAW_LOOKUP:
        verdict = identities.check_law(L, _LAW_LOOKUP[name])
    elif name in _STRICT_LOOKUP:
        verdict = identities.check_strict(L, _STRICT_LOOKUP[name])
    else:
        known = sorted(list(_LAW_LOOKUP) + list(_STRICT_LOOKUP))
        raise ValueError(f"unknown law {args.law!r}; choose from {', '.join(known)}")
    text = "PASS" if verdict.holds else "FAIL"
    if verdict.witness is not None:
        rendered = ",".join(
            L.labels[v] if isinstance(v, int) and 0 <= v < L.size else str(v)
            for v in verdict.witness
        )
        text += f" witness=({rendered})"
    return text, {"law": name, **_verdict_doc(verdict)}


def cmd_report(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    doc: dict = {"loop": {"size": L.size, "labels": list(L.labels)}}
    if L.size <= caps.census_order:
        laws = {}
        for law in Law:
            laws[law.value] = _verdict_doc(identities.check_law(L, law))
        doc["laws"] = laws
        doc["power_associative"] = _verdict_doc(identities.is_power_associative(L))
        doc["diassociative"] = _verdict_doc(identities.is_diassociative(L))
    else:
        doc["laws"] = {"error": f"loop order {L.size} exceeds cap {caps.census_order}"}
    try:
        census = substructures.all_subloops(L, caps)
        doc["substructures"] = {
            "subloops": len(census.subloops),
            "subgroups": sum(census.subgroup_flags),
            "normal_subloops": sum(census.normal_flags),
        }
        lat = lattice_mod.build_lattice(L, census.subloops, caps)
        summary = {"nodes": lat.size, "modular": lattice_mod.check_modular(lat).holds}
        if lat.size <= caps.lattice_nodes:
            summary["distributive"] = lattice_mod.check_distributive(lat, caps).holds
        doc["subloop_lattice"] = summary
        glat = lattice_mod.build_lattice(L, census.subgroups(), caps)
        doc["subgroup_lattice"] = {
            "nodes": glat.size,
            "modular": lattice_mod.check_modular(glat).holds,
        }
    except CapExceeded as exc:
        doc["substructures"] = {"error": str(exc)}
    try:
        report = smarandache.s_classical_report(L, caps)
        doc["smarandache"] = {
            "is_s_loop": report.is_s_loop,
            "witness_subgroup": list(report.witness_subgroup or ()),
            "s_subloops": [list(S.elements) for S in report.s_subloops],
            "flags": report.flags,
        }
    except CapExceeded as exc:
        doc["smarandache"] = {"error": str(exc)}
    lines = [f"loop of order {L.size}"]
    for section, payload in doc.items():
        if section != "loop":
            lines.append(f"[{section}]")
            lines.extend(f"  {key}: {value}" for key, value in payload.items())
    return "\n".join(lines), doc


def cmd_substructures(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    census = substructures.all_subloops(L, caps)
    lines = []
    doc = []
    for S, grp, nrm in zip(census.subloops, census.subgroup_flags, census.normal_flags):
        tags = [tag for tag, on in (("subgroup", grp), ("normal", nrm)) if on]
        lines.append(L.render_subset(S.elements) + (" [" + ",".join(tags) + "]" if tags else ""))
        doc.append({"elements": list(S.elements), "subgroup": grp, "normal": nrm})
    return "\n".join(lines), doc


def cmd_smarandache(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    report = smarandache.s_classical_report(L, caps)
    doc = {
        "is_s_loop": report.is_s_loop,
        "witness_subgroup": list(report.witness_subgroup or ()),
        "s_subloops": [list(S.elements) for S in report.s_subloops],
        "s_normal_subloops": [list(S.elements) for S in report.s_normal_subloops],
        "flags": report.flags,
        "witnesses": {k: str(v) for k, v in report.witnesses.items()},
    }
    lines = [f"is_s_loop: {report.is_s_loop}"]
    if report.witness_subgroup:
        lines.append(f"witness: {L.render_subset(report.witness_subgroup)}")
    lines.append(f"s_subloops: {len(report.s_subloops)}")
    lines.extend(f"{name}: {value}" for name, value in report.flags.items())
    return "\n".join(lines), doc


def cmd_represent(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    lines = representation.render_representation(L)
    doc = {"permutations": lines}
    if args.validate:
        verdict = representation.validate_albert(
            representation.right_regular_representation(L)
        )
        doc["albert"] = _verdict_doc(verdict)
        lines = lines + [f"albert: {'valid' if verdict.holds else 'invalid'}"]
    return "\n".join(lines), doc


def cmd_color(args, caps: Caps) -> tuple[str, object]:
    if args.action == "enumerate":
        if args.order is None:
            raise ValueError("enumerate needs --order")
        loops = coloring_mod.enumerate_involutory_right_alt(args.order, caps)
        rendered = representation.render_representations(loops)
        text = f"count: {len(loops)}\n\n" + "\n\n".join(map("\n".join, rendered))
        return text, {"count": len(loops), "blocks": rendered}
    if args.action == "from-loop":
        L = resolve_loop(args)
        col = coloring_mod.loop_to_coloring(L)
        return coloring_mod.coloring_to_text(col), {
            "n_vertices": col.n_vertices,
            "edges": [[u, v, c] for (u, v), c in col.color_of],
        }
    # argparse's choices leave "to-loop" as the one action not handled above
    if not args.coloring:
        raise ValueError("to-loop needs --coloring FILE")
    with open(args.coloring, "r", encoding="utf-8") as fh:
        col = coloring_mod.coloring_from_text(fh.read())
    L = coloring_mod.coloring_to_loop(col)
    return loop_to_csv(L), loop_to_json(L)


def cmd_lattice(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    census = substructures.all_subloops(L, caps)
    family = {
        "subloops": list(census.subloops),
        "subgroups": census.subgroups(),
        "normal": census.normal_subloops(),
    }[args.family]
    lat = lattice_mod.build_lattice(L, family, caps)
    if args.format == "dot":
        return lattice_mod.export_dot(lat), None
    summary = lattice_mod.lattice_summary(lat, caps)
    return (
        f"nodes: {len(summary['nodes'])}\n"
        f"modular: {summary['modular']}\n"
        f"distributive: {summary['distributive']}",
        summary,
    )


def cmd_isotope(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    if args.g_check:
        verdict = isotopes.is_g_loop(L, caps.search)
        return (
            "PASS g-loop" if verdict.holds else f"FAIL g-loop witness={verdict.witness}",
            {"g_loop": _verdict_doc(verdict)},
        )
    if args.a is None or args.b is None:
        raise ValueError("supply --a and --b, or --g-check")
    a = parse_element(L, args.a)
    b = parse_element(L, args.b)
    iso = isotopes.principal_isotope(L, a, b)
    return loop_to_csv(iso), loop_to_json(iso)


def cmd_hyperloop(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    maker = smarandache.a_hyperloop if args.a_variant else smarandache.hyperloop
    if args.partition_check:
        verdict = smarandache.hyper_partition_check(
            L, "a_hyperloop" if args.a_variant else "hyperloop"
        )
        return (
            "partitions" if verdict.holds else f"does not partition ({verdict.detail})",
            _verdict_doc(verdict),
        )
    if args.q is None:
        raise ValueError("supply --q ELEMENT or --partition-check")
    q = parse_element(L, args.q)
    pairs = sorted(maker(L, q))
    text = " ".join(f"({L.labels[x]},{L.labels[y]})" for x, y in pairs)
    return text, {"q": q, "pairs": [list(p) for p in pairs]}


def cmd_coset(args, caps: Caps) -> tuple[str, object]:
    L = resolve_loop(args)
    A = certify_subloop(L, parse_subset(L, args.subgroup))
    lines = []
    doc = {"cosets": {}}
    for m, block in enumerate(smarandache._subgroup_cosets(L, A, args.side)):
        lines.append(f"{L.labels[m]}: {L.render_subset(block)}")
        doc["cosets"][L.labels[m]] = sorted(block)
    if args.cover:
        covers = smarandache.coset_cover_search(L, A, args.side, caps)
        lines.append("covers: " + (
            "; ".join("{" + ",".join(L.labels[r] for r in reps) + "}" for reps in covers)
            if covers
            else "none"
        ))
        doc["covers"] = [list(reps) for reps in covers]
    return "\n".join(lines), doc


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args`` fills a fresh
    namespace from the parser's defaults on every call, so no option of one call
    carries over to the next."""
    parser = argparse.ArgumentParser(
        prog="loupe", description="computational algebra for finite loops"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("--loop", help="loop file (JSON or CSV table)")
        p.add_argument("--ln", help="family member as N,M")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p_ln = sub.add_parser("ln", help="the modular loop family")
    p_ln.add_argument("action", choices=["build", "list", "classify", "census", "normalizers", "cycles"])
    p_ln.add_argument("--n", type=int, required=True)
    p_ln.add_argument("--m", type=int)
    p_ln.add_argument("--format", choices=["text", "json"], default="text")
    p_ln.set_defaults(func=cmd_ln)

    p_check = sub.add_parser("check", help="decide one identity")
    add_input(p_check)
    p_check.add_argument("--law", required=True)
    p_check.set_defaults(func=cmd_check)

    p_report = sub.add_parser("report", help="full structured report")
    add_input(p_report)
    p_report.set_defaults(func=cmd_report)

    p_sub = sub.add_parser("substructures", help="subloop census")
    add_input(p_sub)
    p_sub.set_defaults(func=cmd_substructures)

    p_sma = sub.add_parser("smarandache", help="Smarandache flags")
    add_input(p_sma)
    p_sma.set_defaults(func=cmd_smarandache)

    p_rep = sub.add_parser("represent", help="right regular representation")
    add_input(p_rep)
    p_rep.add_argument("--validate", action="store_true")
    p_rep.set_defaults(func=cmd_represent)

    p_col = sub.add_parser("color", help="edge-coloring correspondence")
    add_input(p_col)
    p_col.add_argument("action", choices=["from-loop", "to-loop", "enumerate"])
    p_col.add_argument("--order", type=int)
    p_col.add_argument("--coloring", help="edge list file for to-loop")
    p_col.set_defaults(func=cmd_color)

    p_lat = sub.add_parser("lattice", help="inclusion lattices")
    p_lat.add_argument("--loop", help="loop file (JSON or CSV table)")
    p_lat.add_argument("--ln", help="family member as N,M")
    p_lat.add_argument("--family", choices=["subloops", "subgroups", "normal"], default="subloops")
    p_lat.add_argument("--format", choices=["text", "json", "dot"], default="text")
    p_lat.set_defaults(func=cmd_lattice)

    p_iso = sub.add_parser("isotope", help="principal isotopes")
    add_input(p_iso)
    p_iso.add_argument("--a")
    p_iso.add_argument("--b")
    p_iso.add_argument("--g-check", action="store_true")
    p_iso.set_defaults(func=cmd_isotope)

    p_hyp = sub.add_parser("hyperloop", help="hyperloop pair sets")
    add_input(p_hyp)
    p_hyp.add_argument("--q")
    p_hyp.add_argument("--a-variant", action="store_true")
    p_hyp.add_argument("--partition-check", action="store_true")
    p_hyp.set_defaults(func=cmd_hyperloop)

    p_cos = sub.add_parser("coset", help="subgroup cosets and covers")
    add_input(p_cos)
    p_cos.add_argument("--subgroup", required=True, help="comma-separated elements")
    p_cos.add_argument("--side", choices=["right", "left"], default="right")
    p_cos.add_argument("--cover", action="store_true")
    p_cos.set_defaults(func=cmd_coset)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text, doc = args.func(args, Caps.from_env())
        print(json.dumps(doc, indent=2) if args.format == "json" else text)
        sys.stdout.flush()  # a reader gone early is met here, not at exit
        return 0
    except BrokenPipeError:
        # the reader stopped, which is no input fault; stdout is flushed again
        # at exit, so point it at devnull before that write can fail once more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except CapExceeded as exc:
        print(f"cap error: {exc}", file=sys.stderr)
        return 1
    except (LoupeError, *USAGE_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
