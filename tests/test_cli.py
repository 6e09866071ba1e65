"""Command surface: formats, exit codes, determinism."""

import json

import pytest

from loupe import build_ln, cyclic_group, direct_product, identities, symmetric_group
from loupe.cli import load_loop, loop_from_json, loop_to_csv, loop_to_json, main
from loupe.config import Caps


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
