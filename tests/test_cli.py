"""Command surface: formats, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
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


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--order", "8"), "77030adca21873d52b751dfc18cd8a4cd5ed4d63d14c8c789762eaa9a1a96616"),
        (
            ("--order", "6", "--format", "json"),
            "f6c3b99ba97c5e77e2e8db31fe815a08d4b84fb167cd5b897b037566e79ff4e4",
        ),
    ],
)
def test_color_enumerate_bytes_are_pinned(capsys, argv, digest):
    # every loop's block, in order: the rendering of each translation, not just the count line
    code, out, _ = run(capsys, "color", "enumerate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout for one invocation of each subcommand and format; "K6" stands for a file
# holding `color from-loop --ln 5,2`'s output
STDOUT_PINS = {
    "report --ln 15,8 --format text": "3e93bb006d1904ab6c6cb7761064f42875c14ca1595533b0c4634f9ecdeac46a",
    "report --ln 15,8 --format json": "60e3802682a990e9a13ff0135cbffab78763fe657d0a76451d7cb19d20ed8670",
    "smarandache --ln 15,8 --format text": "a0bdb40bd26849e08dd4243d5df1c49c43f965852aa0af950425687bc4f4917a",
    "smarandache --ln 15,8 --format json": "ebf802ea5509e6e36fca3a3e22a4de6621f9d85256c567360fd3cb0a8b0cb558",
    "substructures --ln 15,8 --format text": "c58879e354c1aee8de1f1e254c2d3f91e0a53e90e388b8f01c36f3813b68e80d",
    "substructures --ln 15,8 --format json": "0b74038cabb00661d20f1707585802213f03537520b3cec36749a9b8747b45ef",
    "lattice --ln 15,8 --family subloops --format text": "8f9dd1da95c597687e488d50dc43baff05183528c923cccff755df886169d81c",
    "lattice --ln 15,8 --family subloops --format json": "84f37c8eb983681a7260b35b4b688ee06b2bf88a9f09ac28313639d88f3bafd3",
    "lattice --ln 15,8 --family subloops --format dot": "727da5c62d14dbcb8d7b255865db62b7120e85395534cdbac5d3e03b0107364d",
    "lattice --ln 15,8 --family subgroups --format text": "9a42cb392dc5a23089b316ab1eacf50c0c9356f543fe1fd469cee4bb5a264ea1",
    "lattice --ln 15,8 --family subgroups --format json": "77a879797fbef7d364484305ede337b11dcee494d668705c7746a2e069512e18",
    "lattice --ln 15,8 --family subgroups --format dot": "926638bc7f17859ffe3f75ac969de810a1bcd7b02577b248396180fd3a19d9fd",
    "lattice --ln 15,8 --family normal --format text": "082b41acb1206296468b0afc245e9c48ba268fe1e02accae5686b8bbdfda426b",
    "lattice --ln 15,8 --family normal --format json": "22c6f0a356090e62355c8571455bda9b5e974bf8b9e8f00469f0ff0e86dc0c3a",
    "lattice --ln 15,8 --family normal --format dot": "3a4b1ed2cda864d5a3d12a7372bd836bf6696019f49a304b1e3a2145d687aebc",
    "ln list --n 15 --m 8 --format text": "ac06c84289fbddaee187c7d4d85df91611cbef12e3674b19a8377debf60ccb22",
    "ln list --n 15 --m 8 --format json": "d4fbf0e89fa1255b624bffeac9d55b406007447362565d58f9cab2fa9ce4b95d",
    "ln build --n 15 --m 8 --format text": "bce2b61806a3035b22ef1d827c7b1f22c024766605ab950775203daf0dc9cecc",
    "ln build --n 15 --m 8 --format json": "ef566d60c0f1c55e33f6cb31c530503156604cb12d6ccb63ddae15a7720f1f50",
    "ln classify --n 15 --m 8 --format text": "7baeec550e8e3bd77d2999698ab66a847fee2cad1453cd700fe941c1fdc96200",
    "ln classify --n 15 --m 8 --format json": "6d009fe9895503e4803a8c997a811fa52b5c301c9f9cb18454215809fcc5d951",
    "ln census --n 15 --m 8 --format text": "6579b8d4135b2f3d9903878389580df8bf7f79600cc1290e52b3d8574092e2fd",
    "ln census --n 15 --m 8 --format json": "4009e208f14a1a4dd83e8a936e652edb4552b67ac56488d3e4d222c8abc26714",
    "ln normalizers --n 15 --m 8 --format text": "69d1d25dd3ebd812c303635155daede1359a8664c862b925c3e8df6305bf8c16",
    "ln normalizers --n 15 --m 8 --format json": "4a896c77177794d14e55ee885efb0b85240913620a370bd3dfc6c00a1462f1ff",
    "ln cycles --n 15 --m 8 --format text": "e83db6c3a328307fada5fb57ee08f2c3a38c69a5462f29c7355c822c8849c37a",
    "ln cycles --n 15 --m 8 --format json": "67c236a5bb5626d84e9b3d927b920009869464f7e3a3b4f9e88922ebf749a4bf",
    "check --ln 5,2 --law bol --format text": "434ee9fa6f07e245be00d49a8002cbd70d6f706ea98145a702ad063d78e55a13",
    "check --ln 5,2 --law bol --format json": "011c69440579799f5af69ade799958920007ae6fa7c09dd8c96c55c759efd22b",
    "represent --ln 7,4 --validate --format text": "6deda0c23ee6ee90cd45b41bc1843c0c63f8cbcea3c7f46cb2e572644a05dd13",
    "represent --ln 7,4 --validate --format json": "184a590502fc820a14e2d9f9668e69985a54499f844764b6517e56cc7f081dc8",
    "color from-loop --ln 5,2 --format text": "707cfcc84c9515db27256e28412bf11a5c3eecfbc15d6dcb6e85911f74907405",
    "color from-loop --ln 5,2 --format json": "ee8c6a35152f11ced458a19a9aca989e6e02f47104b76b66c427159623c06c6b",
    "color to-loop --coloring K6 --format text": "a414231de199a5c2a27a5609206aff95cf95bf275605b8d98519ac64e3a7a860",
    "color to-loop --coloring K6 --format json": "87e350b31be1110524a4c2f54c477bafddb31bea2ef0abed5a391b9346a5c52c",
    "isotope --ln 5,3 --a 4 --b e --format text": "0f6d599962d6e2af3442333f683acbd10bad34d272de63ab2989e967b1c703af",
    "isotope --ln 5,3 --a 4 --b e --format json": "c0576ec66a73e2554159c80e01d36d5ea32b93318c6f87898215cba3d5b0698e",
    "isotope --g-check --ln 5,2 --format text": "95319774a2f7014738be8b72498bbe0a60d070fcdbfd27dfdc7fac6852936409",
    "isotope --g-check --ln 5,2 --format json": "4607a7124ac2efa4e952f8fa3f7bdfc54341d8e96d04d73051b220311372ac63",
    "hyperloop --ln 5,4 --q 5 --format text": "b6fd89fea041e2da1915fbff89d0b5a618d324f6a24549e40c1234d9dd92be2e",
    "hyperloop --ln 5,4 --q 5 --format json": "43c41a93470a1a77108b4e74ede2816152a0331508099056bf1a44f3641a7773",
    "hyperloop --ln 5,4 --partition-check --format text": "40f917cde7be098cd82aa0a8b22ab86e25efad23f493eb4e83380a16b505e62e",
    "hyperloop --ln 5,4 --partition-check --format json": "c750fcd9f524ff1eca8885e00aa513112c84dfcc4289aca7fe61b6a75727350d",
    "hyperloop --ln 5,4 --partition-check --a-variant --format text": "e8ce6bca0efcf0047045a1c08eeaba8aa4e29f0d3613c504d9c7a87a688edcdb",
    "hyperloop --ln 5,4 --partition-check --a-variant --format json": "5964c82a20a91acb058ec80c004464dc73334213095029c28ebcf01265963059",
    "coset --ln 5,2 --subgroup e,1 --cover --side left --format text": "78d5e2d65847290215af1aafb13025cc1fb9d6ef7541581cace223a6fcd5d8f1",
    "coset --ln 5,2 --subgroup e,1 --cover --side left --format json": "22ad154e48c5766a3b0865712bc1c71513e987a972fd524b3153d467ccb27859",
    "coset --ln 5,2 --subgroup e,1 --cover --side right --format text": "1f166b3946e7ace76c820e82360d12d70652153274b4a5cbe3740c5e614deb48",
    "coset --ln 5,2 --subgroup e,1 --cover --side right --format json": "06b8559d36dad4dab24df9b6a5b18340ee2b2a0c185780b52cdcfe0033cfa89a",
    # cap-degraded outputs: each report section past its cap reads an error, and a
    # lattice past the sublattice-search cap reads distributive None
    "LOUPE_CAPS=census_order=10 report --ln 15,8 --format text": "8070d3ca68b6572e2c8696bdb0fc8e59f117a9f6e2e84db57903333f5833e412",
    "LOUPE_CAPS=census_order=10 report --ln 15,8 --format json": "2614d24e18924eee6078a3a93ed457770667df77168cafbc3a7731bfe275130f",
    "LOUPE_CAPS=lattice_nodes=5 lattice --ln 5,2 --format text": "cb4d416f18553c1bf1602df61f19d84b9f47e3c20c6a5bee046f652212ef5492",
    "LOUPE_CAPS=lattice_nodes=5 lattice --ln 5,2 --format json": "587f9b742e63f2df0e4533fe55ccefba5a91dd6ebf55c9597dde923a4e385004",
}


def _pinned_run(capsys, monkeypatch, tmp_path, line):
    path = tmp_path / "k6.txt"
    path.write_text(run(capsys, "color", "from-loop", "--ln", "5,2")[1])
    argv = line.split()
    if argv[0].startswith("LOUPE_CAPS="):  # an environment prefix, read as a shell reads it
        monkeypatch.setenv(*argv.pop(0).split("=", 1))
    return run(capsys, *(str(path) if tok == "K6" else tok for tok in argv))


@pytest.mark.parametrize("line", list(STDOUT_PINS))
def test_stdout_bytes_are_pinned(capsys, monkeypatch, tmp_path, line):
    code, out, _ = _pinned_run(capsys, monkeypatch, tmp_path, line)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_PINS[line]


@pytest.mark.parametrize("line", list(STDOUT_PINS))
def test_each_invocation_writes_one_document(capsys, monkeypatch, tmp_path, line):
    """A JSON result is one document, a text result ends in one newline, and success
    writes nothing to stderr."""
    code, out, err = _pinned_run(capsys, monkeypatch, tmp_path, line)
    assert (code, err) == (0, "")
    if line.endswith("--format json"):
        json.loads(out)
    else:
        assert out.endswith("\n") and not out.endswith("\n\n")


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
        assert args.format == "text"
        text = args.func(args, Caps())[0] + "\n"  # main's print ends the text in one newline
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


def test_reader_that_stops_early_is_no_input_error():
    # about 1 MB of output: the writer is still printing, far past the pipe's
    # buffer, when the reader closes its end after the first line
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "loupe.cli", "color", "enumerate", "--order", "8"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"count: 6240\n"
    proc.stdout.close()
    try:
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert b"Broken pipe" not in err and b"error:" not in err, err


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
