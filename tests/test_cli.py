"""Command surface: formats, exit codes, determinism."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loupe import build_ln, cli, cyclic_group, direct_product, identities, symmetric_group
from loupe.cli import load_loop, loop_from_json, loop_to_csv, loop_to_json, main
from loupe.coloring import coloring_to_text, loop_to_coloring
from loupe.config import Caps

from conftest import family_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ln_list(capsys):
    code, out, _ = run(capsys, "ln", "list", "--n", "5")
    assert code == 0
    assert out.strip() == "m: 2 3 4 (count 3)"


def test_ln_list_rejects_even_n(capsys):
    code, _, err = run(capsys, "ln", "list", "--n", "6")
    assert code == 2
    assert "odd" in err


def test_ln_classify(capsys):
    code, out, _ = run(capsys, "ln", "classify", "--n", "7", "--m", "3")
    assert code == 0
    assert "wip=true verified" in out


def test_ln_cycles(capsys):
    code, out, _ = run(capsys, "ln", "cycles", "--n", "45", "--m", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["predicted"] == {"2": 2, "4": 3, "6": 1, "12": 2}
    assert doc["matches_prediction"]


def test_ln_cycles_builds_the_loop_once(capsys, monkeypatch):
    built = []

    def counted(n, m):
        built.append((n, m))
        return build_ln(n, m)

    patched = [name for name, module in sys.modules.items()
               if name.split(".")[0] == "loupe" and getattr(module, "build_ln", None) is build_ln]
    for name in patched:
        monkeypatch.setattr(sys.modules[name], "build_ln", counted)
    assert {"loupe.ln", "loupe.cli"} <= set(patched)
    code, out, _ = run(capsys, "ln", "cycles", "--n", "45", "--m", "8")
    assert code == 0
    assert out.splitlines()[-1] == "uniform=true matches_prediction=true transpositions=true"
    assert built == [(45, 8)]


def test_survey_verdicts_agree_with_ln_classify_and_cycles(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "survey_family.py"
    spec = importlib.util.spec_from_file_location("survey_family", path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    survey.survey(25)
    rows = capsys.readouterr().out.split("\n\n")[0].splitlines()[1:]
    verdicts = {(int(r.split()[0]), int(r.split()[1])): "MISMATCH" not in r for r in rows}
    assert sorted(verdicts) == family_params(25)
    for (n, m), ok in verdicts.items():
        _, classify, _ = run(capsys, "ln", "classify", "--n", str(n), "--m", str(m))
        _, cycles, _ = run(capsys, "ln", "cycles", "--n", str(n), "--m", str(m))
        assert ok == ("MISMATCH" not in classify and "matches_prediction=true" in cycles), (n, m)


def test_check_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--ln", "5,3", "--law", "commutative")
    assert code == 0 and out.startswith("PASS")
    code, out, _ = run(capsys, "check", "--ln", "5,2", "--law", "bol")
    assert code == 0 and out.startswith("FAIL witness=(")
    bad = tmp_path / "bad.csv"
    bad.write_text("0,1\n1,1\n")
    code, _, err = run(capsys, "check", "--loop", str(bad), "--law", "bol")
    assert code == 2


def test_loop_file_roundtrip(tmp_path, capsys):
    L = build_ln(5, 2)
    json_path = tmp_path / "loop.json"
    json_path.write_text(json.dumps(loop_to_json(L)))
    assert load_loop(str(json_path)).table == L.table
    csv_path = tmp_path / "loop.csv"
    csv_path.write_text(loop_to_csv(L))
    assert load_loop(str(csv_path)).table == L.table
    assert loop_from_json(loop_to_json(L)).table == L.table


def test_report_json(capsys):
    code, out, _ = run(capsys, "report", "--ln", "15,8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["substructures"]["subgroups"] == 21
    assert doc["subgroup_lattice"]["nodes"] == 22
    assert doc["subgroup_lattice"]["modular"] is False
    assert doc["smarandache"]["flags"]["s_sylow_criteria"] is True


def test_report_on_mixed_product(capsys, tmp_path):
    from loupe import direct_product, symmetric_group
    from loupe.cli import loop_to_json as toj

    prod = direct_product(build_ln(5, 2), symmetric_group(3))
    path = tmp_path / "prod.json"
    path.write_text(json.dumps(toj(prod)))
    code, out, _ = run(capsys, "report", "--loop", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["smarandache"]["flags"]["s_loop_ii"] is True


def test_substructures_and_smarandache(capsys):
    code, out, _ = run(capsys, "substructures", "--ln", "5,2")
    assert code == 0
    assert out.count("[subgroup") == 6
    code, out, _ = run(capsys, "smarandache", "--ln", "5,2")
    assert code == 0
    assert "s_subgroup_loop: True" in out
    assert "s_loop_ii: False" in out


def test_represent(capsys):
    code, out, _ = run(capsys, "represent", "--ln", "7,4", "--validate")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "I"
    assert lines[1] == "(e 1) (2 5 3) (4 6 7)"
    assert lines[-1] == "albert: valid"


def test_color_commands(capsys, tmp_path):
    code, out, _ = run(capsys, "color", "enumerate", "--order", "6")
    assert code == 0
    assert out.startswith("count: 6")
    code, out, _ = run(capsys, "color", "from-loop", "--ln", "5,2")
    assert code == 0
    edge_lines = out.strip().splitlines()
    assert len(edge_lines) == 15
    path = tmp_path / "coloring.txt"
    path.write_text(out)
    code, out2, _ = run(capsys, "color", "to-loop", "--coloring", str(path))
    assert code == 0
    assert out2.strip() == loop_to_csv(build_ln(5, 2))
    code, _, err = run(capsys, "color", "from-loop", "--ln", "5,3")
    assert code == 2
    assert "right alternative" in err


def test_color_to_loop_names_a_wrong_color_count(capsys, tmp_path):
    # a proper coloring of K_4 with a fourth color: one class split in two
    path = tmp_path / "coloring.txt"
    path.write_text("0 1 0\n0 2 1\n0 3 2\n1 2 2\n1 3 1\n2 3 7\n")
    code, out, err = run(capsys, "color", "to-loop", "--coloring", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: K_4 was given 4 colors where a loop needs 3\n"
    path.write_text("")
    code, out, err = run(capsys, "color", "to-loop", "--coloring", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: coloring has no vertices; a loop needs at least one element\n"


def test_lattice_command(capsys):
    code, out, _ = run(capsys, "lattice", "--ln", "5,2", "--family", "subloops", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.count("->") == 10
    code, out, _ = run(capsys, "lattice", "--ln", "15,8", "--family", "subgroups", "--format", "json")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 22 and doc["modular"] is False


def test_isotope_command(capsys):
    code, out, _ = run(capsys, "isotope", "--ln", "5,3", "--a", "4", "--b", "e")
    assert code == 0
    code, out, _ = run(capsys, "isotope", "--ln", "5,2", "--g-check")
    assert code == 0
    assert out == "FAIL g-loop witness=(1, 0)\n"


def test_isotope_g_check_on_a_loaded_group(capsys, tmp_path):
    path = tmp_path / "c3xs3.json"
    path.write_text(json.dumps(loop_to_json(direct_product(cyclic_group(3), symmetric_group(3)))))
    code, out, _ = run(capsys, "isotope", "--g-check", "--loop", str(path))
    assert code == 0
    assert out == "PASS g-loop\n"


def test_hyperloop_command(capsys):
    code, out, _ = run(capsys, "hyperloop", "--ln", "5,4", "--q", "5")
    assert code == 0
    assert "(e,5)" in out
    code, out, _ = run(capsys, "hyperloop", "--ln", "5,4", "--partition-check")
    assert code == 0
    assert out.strip() == "partitions"
    code, out, _ = run(capsys, "hyperloop", "--ln", "5,4", "--a-variant", "--partition-check")
    assert code == 0
    assert out.startswith("does not partition")


def test_coset_command(capsys):
    code, out, _ = run(capsys, "coset", "--ln", "5,2", "--subgroup", "e,1", "--cover")
    assert code == 0
    assert "covers: {e,2,5}; {e,3,4}" in out


def test_coset_command_checks_the_subgroup_once(capsys, monkeypatch):
    from loupe import smarandache

    checked = []
    is_subgroup = smarandache.is_subgroup
    monkeypatch.setattr(
        smarandache, "is_subgroup", lambda L, S: checked.append(S) or is_subgroup(L, S)
    )
    code, out, _ = run(capsys, "coset", "--ln", "5,2", "--subgroup", "e,1", "--side", "left")
    assert code == 0
    assert out.splitlines() == ["e: {e,1}", "1: {e,1}", "2: {2,5}", "3: {3,4}", "4: {3,4}",
                                "5: {2,5}"]
    assert len(checked) == 1


def test_coset_command_rejects_a_subloop_that_is_no_group(capsys):
    # an S-subloop of L_15(2): closed, but not associative
    code, out, err = run(capsys, "coset", "--ln", "15,2", "--subgroup", "0,1,4,7,10,13")
    assert code == 2
    assert out == ""
    assert err == "error: cosets are defined relative to subgroups\n"


def test_report_on_trivial_loop(capsys, tmp_path):
    path = tmp_path / "trivial.csv"
    path.write_text("0\n")
    code, out, _ = run(capsys, "report", "--loop", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["loop"]["size"] == 1
    assert doc["substructures"]["subloops"] == 1


def test_outputs_deterministic(capsys):
    first = run(capsys, "report", "--ln", "9,5", "--format", "json")
    second = run(capsys, "report", "--ln", "9,5", "--format", "json")
    assert first == second


def test_parser_is_built_once_and_keeps_no_options_between_calls(capsys):
    """main reuses one parser; an option given to one call does not carry to the next."""
    assert cli.build_parser() is cli.build_parser()
    for argv, fmt in ((["lattice", "--ln", "5,2"], "dot"), (["report", "--ln", "5,2"], "json")):
        args = cli.build_parser.__wrapped__().parse_args(argv)  # a parser built for this call alone
        assert args.format == "text" and args.func(args, Caps()) == 0
        text = capsys.readouterr().out
        _, formatted, _ = run(capsys, *argv, "--format", fmt)
        assert formatted != text
        assert run(capsys, *argv) == (0, text, "")


def test_caps_env(monkeypatch, capsys):
    monkeypatch.setenv("LOUPE_CAPS", "census=2")
    code, _, err = run(capsys, "substructures", "--ln", "15,8")
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("LOUPE_CAPS", "bogus=1")
    code, _, err = run(capsys, "substructures", "--ln", "5,2")
    assert code == 2


def test_caps_parsing():
    caps = Caps.from_env("census=10,mlt=99")
    assert caps.census == 10 and caps.mlt == 99
    assert Caps.from_env("") == Caps()
    with pytest.raises(ValueError):
        Caps.from_env("nope=3")


def test_report_rejects_float_table(capsys, tmp_path):
    path = tmp_path / "float.json"
    path.write_text('{"table": [[0.5, 1], [1, 0]]}')
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "0.5" in err


@pytest.mark.parametrize("table", ["5", "[5]", "null"])
def test_report_rejects_table_that_is_not_rows(capsys, tmp_path, table):
    path = tmp_path / "shape.json"
    path.write_text('{"table": %s}' % table)
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "sequence of rows" in err


@pytest.mark.parametrize("labels", ["5", "true", '"ab"', '{"e": 0, "a": 1}'])
def test_report_rejects_labels_that_are_not_a_sequence(capsys, tmp_path, labels):
    path = tmp_path / "labels.json"
    path.write_text('{"labels": %s, "table": [[0, 1], [1, 0]]}' % labels)
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "labels must be a sequence" in err


def test_coset_rejects_duplicate_labels(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text('{"labels": ["a", "a"], "table": [[0, 1], [1, 0]]}')
    code, out, err = run(capsys, "coset", "--loop", str(path), "--subgroup", "a")
    assert code == 2
    assert out == ""
    assert "distinct" in err


@pytest.mark.parametrize("argv", [
    ("report", "--loop"),
    ("coset", "--subgroup", "e", "--loop"),
    ("color", "to-loop", "--coloring"),
])
def test_directory_given_as_input_is_a_usage_error(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "directory" in err


@pytest.mark.parametrize("text, message", [
    ("0 1 3\n0 2 2\n0 3 1\n1 2 1\n1 3 2\n2 3 3\n0 1 1\n", "line 7: edge {0, 1} is listed twice"),
    ("0 1 0\n\n0 2\n", "line 3: expected 'u v color'"),
    ("0 1 0 4\n", "line 1: expected 'u v color'"),
    ("0 1 a\n", "line 1: expected 'u v color'"),
    ("-1 0 0\n", "line 1: vertex -1 is negative"),
    ("0 1 0\n2 -3 1\n", "line 2: vertex -3 is negative"),
], ids=["duplicate-edge", "two-tokens", "four-tokens", "not-an-integer", "negative-u",
        "negative-v"])
def test_color_to_loop_rejects_malformed_lines(capsys, tmp_path, text, message):
    path = tmp_path / "coloring.txt"
    path.write_text(text)
    code, out, err = run(capsys, "color", "to-loop", "--coloring", str(path))
    assert code == 2
    assert out == ""
    assert message in err


def test_report_rejects_bool_table(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"table": [[false, true], [true, false]]}')
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "False" in err


@pytest.mark.parametrize("spec", ["5", "5,2,3", "a,b"])
def test_ln_spec_names_the_expected_form(capsys, spec):
    code, out, err = run(capsys, "report", "--ln", spec)
    assert code == 2
    assert out == ""
    assert "N,M" in err


def test_loop_file_without_table_names_the_field(capsys, tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "'table' field" in err


def test_deeply_nested_loop_file_is_an_input_error(capsys, tmp_path):
    # json.loads raises RecursionError past its nesting limit: bad input, not a fault
    path = tmp_path / "nested.json"
    path.write_text('{"table": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "report", "--loop", str(path))
    assert code == 2
    assert out == ""
    assert "loadable loop table" in err


@pytest.mark.parametrize("raw", ["census", "census=", "census=many"])
def test_caps_env_without_integer_names_the_key(monkeypatch, capsys, raw):
    monkeypatch.setenv("LOUPE_CAPS", raw)
    code, out, err = run(capsys, "substructures", "--ln", "5,2")
    assert code == 2
    assert out == ""
    assert "'census'" in err and "integer" in err


def test_kernel_key_error_is_internal(monkeypatch, capsys):
    def broken(L, law):
        raise KeyError("div")

    monkeypatch.setattr(identities, "check_law", broken)
    code, out, err = run(capsys, "check", "--ln", "5,2", "--law", "bol")
    assert code == 1
    assert out == ""
    assert err.startswith("internal error:")


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 5) | st.floats(-2, 5) | st.text("ea01", max_size=2),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text("ea", max_size=2), inner, max_size=2),
    max_leaves=12,
)
_LOOP_DOCUMENTS = st.fixed_dictionaries(
    {},
    optional={
        "table": st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=4) | _JSON_VALUES,
        "labels": st.lists(st.text("ea01", max_size=2), max_size=4) | _JSON_VALUES,
        "size": st.integers(-1, 5) | _JSON_VALUES,
    },
).map(json.dumps)
_TOKENS = st.integers(-2, 8).map(str) | st.sampled_from(["", "x", "1.5", "-", "{", "[0]"])
_CSV_TEXTS = st.lists(st.lists(_TOKENS, max_size=5).map(",".join), max_size=5).map("\n".join)
_EDGE_LINES = st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=12).map("\n".join)
_PROPER_COLORINGS = st.sampled_from(
    [coloring_to_text(loop_to_coloring(L)).splitlines() for L in (cyclic_group(2), build_ln(5, 2))]
).flatmap(st.permutations).map("\n".join)
_COLORING_TEXTS = _EDGE_LINES | _PROPER_COLORINGS | st.tuples(_PROPER_COLORINGS, _EDGE_LINES).map("\n".join)


@settings(max_examples=150)
@given(text=_LOOP_DOCUMENTS | _CSV_TEXTS | _COLORING_TEXTS)
def test_loaders_exit_0_or_2_on_generated_input(tmp_path_factory, text):
    # a loop file or coloring file is input: whatever it holds, it is never an internal error
    path = tmp_path_factory.mktemp("fuzz") / "input.txt"
    path.write_text(text, encoding="utf-8")
    assert main(["report", "--loop", str(path)]) in (0, 2), text
    assert main(["color", "to-loop", "--coloring", str(path)]) in (0, 2), text
