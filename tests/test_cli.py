"""Command-line surface: exit codes, file round trips, sweep CSV, DOT."""

import copy
import io
import json
from contextlib import chdir, redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from constructions import ladder
from oddgraceful import Graph, build_theorem1, cycle_graph, labeling_to_json
from oddgraceful import cli
from oddgraceful.cli import FAMILIES, main, parse_grid
from oddgraceful.graphs import IdOrder

from test_graphs import MALFORMED_GRAPH_DOCS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_canonical_graph(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--family", "ladder", "--n", "2",
                     "--m", "1", "--out", str(out))
    assert code == 0
    text = out.read_text()
    g = Graph.from_json_obj(json.loads(text))
    assert (g.p, g.q) == (8, 8)
    assert g.to_json() == text  # byte-identical round trip


def test_gen_families(tmp_path, capsys):
    out = tmp_path / "g.json"
    code, _, _ = run(capsys, "gen", "--family", "sub-ladder", "--n", "3",
                     "--m", "1", "--out", str(out))
    assert code == 0
    g = Graph.from_json_obj(json.loads(out.read_text()))
    assert (g.p, g.q) == (26, 27)
    code, _, _ = run(capsys, "gen", "--family", "sub-tri-snake", "--k", "1",
                     "--m", "1", "--out", str(out))
    assert code == 0
    g = Graph.from_json_obj(json.loads(out.read_text()))
    assert (g.p, g.q) == (12, 12)


def test_gen_invalid_params(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "ladder", "--n", "1",
                       "--m", "1", "--out", str(tmp_path / "g.json"))
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "gen", "--family", "ladder", "--n", "2",
                     "--m", "0", "--out", str(tmp_path / "g.json"))
    assert code == 2
    code, _, _ = run(capsys, "gen", "--family", "no-such", "--n", "2",
                     "--m", "1", "--out", str(tmp_path / "g.json"))
    assert code == 2


def assert_one_error_line(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gen_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "g.json"
    assert_one_error_line(*run(capsys, "gen", "--family", "ladder", "--n",
                               "2", "--m", "1", "--out", str(out)))


def test_label_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "labels.json"
    assert_one_error_line(*run(capsys, "label", "--theorem", "1", "--n", "2",
                               "--m", "1", "--out", str(out)))


def test_sweep_unwritable_out(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("sweep ran before opening --out")

    monkeypatch.setattr(cli, "build_sweep_rows", no_work)
    out = tmp_path / "missing" / "sweep.csv"
    assert_one_error_line(*run(capsys, "sweep", "--grid", "theorem1:n=2,m=1",
                               "--search-policy", "never", "--out", str(out)))


def gen_pair(tmp_path, capsys, theorem, param, value, m):
    flag = "--n" if param == "n" else "--k"
    gpath = tmp_path / f"t{theorem}.json"
    lpath = tmp_path / f"t{theorem}-labels.json"
    family = {1: "ladder", 2: "sub-ladder", 3: "sub-tri-snake"}[theorem]
    code, _, _ = run(capsys, "gen", "--family", family, flag, str(value),
                     "--m", str(m), "--out", str(gpath))
    assert code == 0
    code, _, _ = run(capsys, "label", "--theorem", str(theorem), flag,
                     str(value), "--m", str(m), "--out", str(lpath))
    assert code == 0
    return gpath, lpath


def test_label_writes_labels_and_sidecar(tmp_path, capsys):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    obj = json.loads(lpath.read_text())
    assert obj["labels"] == [13, 4, 0, 15, 8, 11, 1, 12]
    sidecar = json.loads((tmp_path / "t1-labels.interp.json").read_text())
    assert sidecar["uncovered"] == []
    assert sidecar["notes"][0][0] == "t1.v-pendant-base-row"


def test_label_theorem2_n2_contains_duplicate_value(tmp_path, capsys):
    _, lpath = gen_pair(tmp_path, capsys, 2, "n", 2, 1)
    labels = json.loads(lpath.read_text())["labels"]
    assert labels.count(23) == 2  # transcription succeeds anyway


def test_label_theorem3_k2_sidecar_lists_uncovered(tmp_path, capsys):
    _, lpath = gen_pair(tmp_path, capsys, 3, "k", 2, 1)
    labels = json.loads(lpath.read_text())["labels"]
    assert labels.count(None) == 1
    sidecar = json.loads(
        (tmp_path / "t3-labels.interp.json").read_text())
    assert sidecar["uncovered"] == ["p(y1,1)"]


def test_verify_pass_and_fail_exit_codes(tmp_path, capsys):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    code, out, _ = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 0
    assert json.loads(out)["ok"] is True

    gpath, lpath = gen_pair(tmp_path, capsys, 2, "n", 2, 1)
    code, out, _ = run(capsys, "verify", str(gpath), str(lpath))
    assert code == 1
    report = json.loads(out)
    kinds = [v["kind"] for v in report["violations"]]
    assert "DuplicateVertexLabel" in kinds


def test_verify_fingerprint_mismatch(tmp_path, capsys):
    _, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    other = tmp_path / "other.json"
    run(capsys, "gen", "--family", "ladder", "--n", "3", "--m", "1",
        "--out", str(other))
    code, _, err = run(capsys, "verify", str(other), str(lpath))
    assert code == 2 and "fingerprint" in err


def test_verify_truncated_json(tmp_path, capsys):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    broken = tmp_path / "broken.json"
    broken.write_text(lpath.read_text()[:25])
    code, _, _ = run(capsys, "verify", str(gpath), str(broken))
    assert code == 2


@pytest.mark.parametrize("resize", [lambda arr: arr + [0],
                                    lambda arr: arr[:-1]],
                         ids=["long", "short"])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_labeling_array_length_mismatch_exits_2(tmp_path, capsys, command,
                                                resize):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    doc = json.loads(lpath.read_text())
    doc["labels"] = resize(doc["labels"])
    lpath.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, str(gpath), str(lpath))
    assert_one_error_line(code, stdout, err)
    assert "length" in err


@pytest.mark.parametrize("command", ["verify", "export"])
def test_wrong_length_labeling_reads_the_labeling_check(tmp_path, capsys,
                                                        command):
    # the commands check a labeling file's labels as the library does
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    doc = json.loads(lpath.read_text())
    doc["labels"].append(0)
    lpath.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, str(gpath), str(lpath))
    assert_one_error_line(code, stdout, err)
    assert err == ("error: 9 labels for 8 vertices: a labeling's length is "
                   "the vertex count\n")


@pytest.mark.parametrize("command", ["verify", "export"])
def test_wrong_type_label_is_named_once(tmp_path, capsys, command):
    # the label types of a labeling file are checked once, by the check
    # every labeling meets
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    doc = json.loads(lpath.read_text())
    doc["labels"][1] = "y"
    lpath.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, str(gpath), str(lpath))
    assert_one_error_line(code, stdout, err)
    assert err == "error: vertex 1 has label 'y', not an int or None\n"


@pytest.mark.parametrize("file, message", [
    ("graph", "error: family object has an unknown key 'M'\n"),
    ("labeling", "error: labeling document has an unknown key 'label'\n"),
])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_unknown_key_is_named(tmp_path, capsys, command, file, message):
    # a misspelled key is an error, not a field read as absent
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    path = gpath if file == "graph" else lpath
    doc = json.loads(path.read_text())
    if file == "graph":
        doc["family"]["M"] = doc["family"].pop("m")
    else:
        doc["label"] = doc["labels"]
    path.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, str(gpath), str(lpath))
    assert_one_error_line(code, stdout, err)
    assert err == message


@pytest.mark.parametrize("fp", [5, None, ["x"]])
@pytest.mark.parametrize("command", ["verify", "export"])
def test_labeling_fingerprint_not_a_string_exits_2(tmp_path, capsys, command,
                                                   fp):
    # not reported as a fingerprint that does not match the graph
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    doc = json.loads(lpath.read_text())
    doc["graph_fingerprint"] = fp
    lpath.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, command, str(gpath), str(lpath))
    assert_one_error_line(code, stdout, err)
    assert "'graph_fingerprint' must be a string" in err


@pytest.mark.parametrize("argv", [
    ("label", "--theorem", "1", "--n", "100000000", "--m", "1"),
    ("gen", "--family", "sub-tri-snake", "--k", "90910", "--m", "1"),
    ("gen", "--family", "ladder", "--n", "100000000000000000000", "--m", "1"),
    ("gen", "--family", "ladder", "--n", "2", "--m", "100000000000000000000"),
])
def test_oversized_instance_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert "limit" in err and not out.exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "ladder", "--n", "2", "--k", "3", "--m", "1"),
    ("gen", "--family", "sub-tri-snake", "--k", "1", "--n", "2", "--m", "1"),
    ("label", "--theorem", "1", "--n", "2", "--k", "3", "--m", "1"),
    ("label", "--theorem", "3", "--k", "1", "--n", "2", "--m", "1"),
])
def test_other_size_flag_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert "not --" in err and not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (("gen", "--family", "ladder", "--m", "1"), "--n"),
    (("label", "--theorem", "3", "--m", "1"), "--k"),
])
def test_missing_size_flag_exits_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.json"
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert f"needs {flag}" in err and not out.exists()


def write_graph(tmp_path, g, name="g.json"):
    path = tmp_path / name
    path.write_text(g.to_json())
    return path


@pytest.mark.parametrize("break_doc", MALFORMED_GRAPH_DOCS)
def test_malformed_graph_file_exits_2(tmp_path, capsys, break_doc):
    _, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    doc = json.loads(ladder(2).to_json())
    break_doc(doc)
    gpath = tmp_path / "bad.json"
    gpath.write_text(json.dumps(doc))
    for argv in (("verify", str(gpath), str(lpath)), ("search", str(gpath)),
                 ("export", str(gpath))):
        assert_one_error_line(*run(capsys, *argv))


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    # a truncated file and a byte that is not UTF-8 are named too
    cut = tmp_path / "cut.json"
    cut.write_text(lpath.read_text()[:21])
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"edges":[],"\xff":1}')
    for bad in (deep, cut, latin):
        for argv in (("verify", bad, lpath), ("search", bad), ("export", bad),
                     ("verify", gpath, bad), ("export", gpath, bad)):
            code, out, err = run(capsys, *map(str, argv))
            assert_one_error_line(code, out, err)
            assert str(bad) in err


def test_repeated_json_key_exits_2(tmp_path, capsys):
    # json.load would keep the last value: an edgeless graph, or the second
    # labels array
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    graph_text = gpath.read_text()
    assert graph_text.startswith('{"edges":[')
    bad_graph = tmp_path / "bad-graph.json"
    bad_graph.write_text(graph_text.replace('{"edges":[',
                                            '{"edges":[[0,1]],"edges":[', 1))
    labels_text = lpath.read_text()
    assert labels_text.endswith("}\n")
    bad_labels = tmp_path / "bad-labels.json"
    bad_labels.write_text(labels_text[:-2] + ',"labels":[]}\n')
    for argv, key in ((("export", bad_graph, "--format", "json"), "edges"),
                      (("verify", bad_graph, lpath), "edges"),
                      (("search", bad_graph), "edges"),
                      (("verify", gpath, bad_labels), "labels"),
                      (("export", gpath, bad_labels), "labels")):
        code, out, err = run(capsys, *map(str, argv))
        assert_one_error_line(code, out, err)
        assert f"JSON key {key!r} repeated" in err


def test_search_found_and_none_and_budget(tmp_path, capsys):
    c4 = write_graph(tmp_path, cycle_graph(4), "c4.json")
    code, out, _ = run(capsys, "search", str(c4))
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"] == "found" and len(obj["labels"]) == 4

    c3 = write_graph(tmp_path, cycle_graph(3), "c3.json")
    code, out, _ = run(capsys, "search", str(c3))
    assert code == 1
    assert json.loads(out)["outcome"] == "none"

    big = write_graph(tmp_path, build_theorem1(3, 1), "big.json")
    code, out, _ = run(capsys, "search", str(big), "--max-nodes", "10")
    assert code == 3
    obj = json.loads(out)
    assert obj["outcome"] == "inconclusive" and obj["reason"] == "node-budget"


def test_search_negative_node_budget_rejected(tmp_path, capsys):
    c4 = write_graph(tmp_path, cycle_graph(4), "c4.json")
    code, out, err = run(capsys, "search", str(c4), "--max-nodes", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_search_negative_timeout_rejected(tmp_path, capsys):
    c4 = write_graph(tmp_path, cycle_graph(4), "c4.json")
    code, out, err = run(capsys, "search", str(c4), "--timeout-ms", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_search_huge_timeout_is_no_limit(tmp_path, capsys):
    # a budget past the float range is compared as an int, not converted
    gpath = write_graph(tmp_path, ladder(2))
    code, out, err = run(capsys, "search", str(gpath),
                         "--timeout-ms", "1" + "0" * 320)
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == "found"


def test_search_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "search", str(bad))
    assert code == 2


def test_parse_grid():
    grid = parse_grid("theorem1:n=2..3,m=1..2;theorem3:k=1,m=1")
    assert grid == [(1, 2, 1), (1, 2, 2), (1, 3, 1), (1, 3, 2), (3, 1, 1)]
    with pytest.raises(ValueError):
        parse_grid("theorem9:n=1,m=1")
    with pytest.raises(ValueError):
        parse_grid("theorem3:n=1..2,m=1")  # theorem3 takes k
    with pytest.raises(ValueError):
        parse_grid("")


@pytest.mark.parametrize("grid", ["theorem1:n=1..3,m=1",
                                  "theorem2:n=0,m=1..2",
                                  "theorem3:k=0..2,m=1",
                                  "theorem1:n=2,m=1;theorem3:k=1,m=0..1",
                                  "theorem1:n=2..100000000,m=1",
                                  "theorem3:k=1,m=1..100000000"])
def test_sweep_rejects_grid_outside_theorem_domain(tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "sweep", "--grid", grid,
                            "--search-policy", "never", "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert grid.split(";")[-1] in err and not out.exists()


@pytest.mark.parametrize("grid", ["theorem1:n=2..3,m=1,m=2",
                                  "theorem1:n=2..3,n=5,m=1",
                                  "theorem3:k=1,m=1;theorem3:k=1,k=2,m=1"])
def test_sweep_rejects_repeated_grid_key(tmp_path, capsys, grid):
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "sweep", "--grid", grid,
                            "--search-policy", "never", "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert grid.split(";")[-1] in err and not out.exists()


def test_sweep_grid_parse_error_names_clause(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, stdout, err = run(capsys, "sweep", "--grid",
                            "theorem2:n=2,m=1;theorem1:n=a..3,m=1",
                            "--search-policy", "never", "--out", str(out))
    assert_one_error_line(code, stdout, err)
    assert "theorem1:n=a..3,m=1" in err and not out.exists()


def test_sweep_builds_each_graph_once(monkeypatch):
    calls = []

    def counted(build):
        def build_and_count(a, m):
            calls.append((build, a, m))
            return build(a, m)
        return build_and_count

    monkeypatch.setattr(cli, "_THEOREMS", {
        number: (param, counted(build), label, family)
        for number, (param, build, label, family) in cli._THEOREMS.items()})
    grid = parse_grid("theorem1:n=2..4,m=1..2;theorem2:n=2..3,m=1;"
                      "theorem3:k=1..3,m=1..2")
    rows = cli.build_sweep_rows(grid, "never", 0)
    assert len(calls) == len(rows) == len(grid)
    assert len(set(calls)) == len(calls)


def test_never_sweep_formats_no_tags_in_bulk(tmp_path, monkeypatch):
    # a sweep reads at most the two tags of a DuplicateVertexLabel cell, so
    # it formats them one at a time; gen writes every tag, formatted once
    calls = []
    bulk = IdOrder.__iter__

    def counted(order):
        calls.append(order)
        return bulk(order)

    monkeypatch.setattr(IdOrder, "__iter__", counted)
    grid = parse_grid("theorem1:n=2..4,m=1..2;theorem2:n=2..3,m=1;"
                      "theorem3:k=1..3,m=1..2")
    rows = cli.build_sweep_rows(grid, "never", 0)
    assert any(r["first_violation"].startswith("DuplicateVertexLabel(")
               for r in rows)
    assert calls == []
    assert main(["gen", "--family", "ladder", "--n", "3", "--m", "2",
                 "--out", str(tmp_path / "g.json")]) == 0
    assert len(calls) == 1


def test_sweep_rows_are_keyed_by_the_csv_columns():
    rows = cli.build_sweep_rows(parse_grid("theorem3:k=1,m=1"), "never", 0)
    assert [tuple(r) for r in rows] == [cli.SWEEP_COLUMNS]


def test_sweep_csv_content(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid",
                     "theorem2:n=2..4,m=1;theorem3:k=1..2,m=1",
                     "--search-policy", "never", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("family,n_or_k,m,p,q,closed_form_verdict,"
                        "first_violation,search_outcome,search_nodes,"
                        "elapsed_ms")
    rows = {tuple(ln.split(",")[:3]): ln.split(",") for ln in lines[1:]}
    assert rows[("theorem2", "2", "1")][5] == "fail"
    assert rows[("theorem2", "2", "1")][6] == "DuplicateVertexLabel(u2 w1 23)"
    assert rows[("theorem2", "3", "1")][5] == "pass"
    assert rows[("theorem2", "3", "1")][6] == ""
    assert rows[("theorem3", "1", "1")][5] == "pass"
    assert rows[("theorem3", "2", "1")][5] == "partial(1)"
    assert rows[("theorem3", "2", "1")][6] == "DuplicateEdgeLabel(21)"
    for row in rows.values():
        assert row[7] == "skipped" and row[8] == "0" and row[9] == "0"


def test_sweep_search_on_fail_policy(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid",
                     "theorem2:n=2..3,m=1;theorem3:k=2,m=1",
                     "--search-policy", "on-fail", "--max-nodes", "2000",
                     "--out", str(out))
    assert code == 0
    rows = {tuple(ln.split(",")[:3]): ln.split(",")
            for ln in out.read_text().splitlines()[1:]}
    assert rows[("theorem2", "2", "1")][7] == "found"
    assert rows[("theorem2", "2", "1")][8] == "196"
    assert rows[("theorem2", "3", "1")][7] == "skipped"
    assert rows[("theorem3", "2", "1")][7] == "inconclusive"
    assert rows[("theorem3", "2", "1")][8] == "2000"


def test_sweep_search_always_policy(tmp_path, capsys):
    # every row searches unless q > 30; the node budget stops t3(2,1)
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--grid",
                     "theorem1:n=2..3,m=1;theorem1:n=10,m=1;theorem3:k=2,m=1",
                     "--search-policy", "always", "--max-nodes", "2000",
                     "--out", str(out))
    assert code == 0
    rows = [ln.split(",")[:-1] for ln in out.read_text().splitlines()[1:]]
    assert rows == [
        ["theorem1", "2", "1", "8", "8", "pass", "", "found", "25"],
        ["theorem1", "3", "1", "12", "13", "pass", "", "found", "383"],
        ["theorem1", "10", "1", "40", "48", "fail", "DuplicateEdgeLabel(7)",
         "skipped", "0"],
        ["theorem3", "2", "1", "22", "23", "partial(1)",
         "DuplicateEdgeLabel(21)", "inconclusive", "2000"],
    ]


def test_sweep_expected_table(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    table = tmp_path / "expected.csv"
    table.write_text("family,n_or_k,m,verdict\n"
                     "theorem2,2,1,fail\ntheorem2,3,1,pass\n")
    code, _, _ = run(capsys, "sweep", "--grid", "theorem2:n=2..3,m=1",
                     "--search-policy", "never", "--out", str(out),
                     "--expected", str(table))
    assert code == 0
    table.write_text("family,n_or_k,m,verdict\n"
                     "theorem2,2,1,pass\ntheorem2,3,1,pass\n")
    code, _, err = run(capsys, "sweep", "--grid", "theorem2:n=2..3,m=1",
                       "--search-policy", "never", "--out", str(out),
                       "--expected", str(table))
    assert code == 1 and "mismatch" in err
    # a byte-order mark, as spreadsheet programs save "CSV UTF-8"
    table.write_bytes(b"\xef\xbb\xbffamily,n_or_k,m,verdict\n"
                      b"theorem2,2,1,fail\ntheorem2,3,1,pass\n")
    code, _, err = run(capsys, "sweep", "--grid", "theorem2:n=2..3,m=1",
                       "--search-policy", "never", "--out", str(out),
                       "--expected", str(table))
    assert code == 0 and err == ""


def test_sweep_rejects_repeated_expected_row(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    table = tmp_path / "expected.csv"
    table.write_text("family,n_or_k,m,verdict\n"
                     "theorem1,2,1,pass\ntheorem1,2,1,fail\n")
    code, stdout, err = run(capsys, "sweep", "--grid", "theorem1:n=2,m=1",
                            "--search-policy", "never", "--out", str(out),
                            "--expected", str(table))
    assert_one_error_line(code, stdout, err)
    assert "theorem1,2,1,fail" in err and not out.exists()


@pytest.mark.parametrize("row", ["theorem9,2,1,maybe", "theorem1,2,1,PASS",
                                 "theorem1,x,1,pass", "theorem1,2,1.0,pass",
                                 "theorem1,2,1,partial(0)", "theorem1,2,1",
                                 "theorem1,2,1,pass,pass", "ladder,2,1,pass"])
def test_sweep_rejects_malformed_expected_row(tmp_path, capsys, row):
    out = tmp_path / "sweep.csv"
    table = tmp_path / "expected.csv"
    table.write_text(f"family,n_or_k,m,verdict\n{row}\n")
    code, stdout, err = run(capsys, "sweep", "--grid", "theorem1:n=2,m=1",
                            "--search-policy", "never", "--out", str(out),
                            "--expected", str(table))
    assert_one_error_line(code, stdout, err)
    assert row in err and "mismatch" not in err and not out.exists()


def test_sweep_rejects_expected_table_with_wrong_header(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    table = tmp_path / "expected.csv"
    table.write_text("family,n,m,verdict\ntheorem1,2,1,pass\n")
    code, stdout, err = run(capsys, "sweep", "--grid", "theorem1:n=2,m=1",
                            "--search-policy", "never", "--out", str(out),
                            "--expected", str(table))
    assert_one_error_line(code, stdout, err)
    assert "header" in err and not out.exists()


def test_sweep_expected_table_accepts_partial_verdict(tmp_path, capsys):
    table = tmp_path / "expected.csv"
    table.write_text("family,n_or_k,m,verdict\ntheorem3,2,1,partial(1)\n")
    code, _, err = run(capsys, "sweep", "--grid", "theorem3:k=2,m=1",
                       "--search-policy", "never",
                       "--out", str(tmp_path / "s.csv"),
                       "--expected", str(table))
    assert code == 0 and err == ""


def test_sweep_malformed_grid(tmp_path, capsys):
    code, _, _ = run(capsys, "sweep", "--grid", "nope",
                     "--out", str(tmp_path / "s.csv"))
    assert code == 2


def test_sweep_negative_node_budget_rejected(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code, _, err = run(capsys, "sweep", "--grid", "theorem1:n=2,m=1",
                       "--search-policy", "never", "--max-nodes", "-1",
                       "--out", str(out))
    assert code == 2 and not out.exists()
    assert err.startswith("error:") and "Traceback" not in err


def test_sweep_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(capsys, "sweep", "--grid",
                         "theorem1:n=2..5,m=1..2;theorem3:k=1..2,m=1",
                         "--search-policy", "never", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_export_dot_graph_only(tmp_path, capsys):
    gpath = write_graph(tmp_path, ladder(2))
    code, out, _ = run(capsys, "export", str(gpath))
    assert code == 0
    assert out.startswith("graph G {")
    assert out.count(" -- ") == 4
    assert '"u1";' in out and '"v2";' in out


def test_export_dot_with_labels(tmp_path, capsys):
    gpath, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    code, out, _ = run(capsys, "export", str(gpath), str(lpath))
    assert code == 0
    assert '"u1" [xlabel=13];' in out
    for lab in range(1, 16, 2):
        assert f"[label={lab}]" in out


def test_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    g = Graph(['a"b', "a\\b"], [(0, 1)])
    gpath = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "export", str(gpath))
    assert code == 0
    assert out.splitlines() == [
        "graph G {",
        '  "a\\"b";',
        '  "a\\\\b";',
        '  "a\\"b" -- "a\\\\b";',
        "}",
    ]
    lpath = tmp_path / "labels.json"
    lpath.write_text(labeling_to_json(g, [0, 1]))
    code, out, _ = run(capsys, "export", str(gpath), str(lpath))
    assert code == 0
    assert out.splitlines() == [
        "graph G {",
        '  "a\\"b" [xlabel=0];',
        '  "a\\\\b" [xlabel=1];',
        '  "a\\"b" -- "a\\\\b" [label=1];',
        "}",
    ]


def test_export_json_round_trip(tmp_path, capsys):
    g = build_theorem1(2, 1)
    gpath = write_graph(tmp_path, g)
    code, out, _ = run(capsys, "export", str(gpath), "--format", "json")
    assert code == 0 and out == g.to_json()


def test_export_unknown_format(tmp_path, capsys):
    gpath = write_graph(tmp_path, ladder(2))
    code, _, _ = run(capsys, "export", str(gpath), "--format", "xml")
    assert code == 2


def test_export_fingerprint_mismatch(tmp_path, capsys):
    _, lpath = gen_pair(tmp_path, capsys, 1, "n", 2, 1)
    other = write_graph(tmp_path, ladder(3), "other.json")
    code, _, _ = run(capsys, "export", str(other), str(lpath))
    assert code == 2


# -- input contract fuzzing ----------------------------------------------------

_SWAPPED = [None, True, -1, 2 ** 70, 1.5, "x", "", [], {}]


def _paths(node, path=()):
    """Every path from the root of a JSON document to one of its nodes."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, path + (i,))


@st.composite
def mutated(draw, doc):
    """doc with one to three mutations: a field dropped, a value swapped for
    one of another type, a value nested one level, or a length changed."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        parent, node = None, doc
        for key in path:
            parent, node = node, node[key]
        op = draw(st.sampled_from(["drop", "swap", "nest", "grow", "shrink"]))
        if op == "drop" and parent is not None:
            del parent[path[-1]]
            continue
        if op == "grow" and isinstance(node, list):
            node.append(copy.deepcopy(node[-1]) if node else 0)
            continue
        if op == "shrink" and isinstance(node, list) and node:
            node.pop()
            continue
        if op == "nest":
            new = draw(st.sampled_from([[node], {"x": node}]))
        else:
            new = copy.deepcopy(draw(st.sampled_from(_SWAPPED)))
        if parent is None:
            doc = new
        else:
            parent[path[-1]] = new
    return doc


_FUZZ_GRAPH = build_theorem1(2, 1)
_FUZZ_GRAPH_DOC = json.loads(_FUZZ_GRAPH.to_json())
_FUZZ_LABELING_DOC = json.loads(
    labeling_to_json(_FUZZ_GRAPH, [13, 4, 0, 15, 8, 11, 1, None]))


@given(st.one_of(
    st.tuples(mutated(_FUZZ_GRAPH_DOC), st.just(_FUZZ_LABELING_DOC)),
    st.tuples(st.just(_FUZZ_GRAPH_DOC), mutated(_FUZZ_LABELING_DOC)),
    st.tuples(mutated(_FUZZ_GRAPH_DOC), mutated(_FUZZ_LABELING_DOC))))
@settings(max_examples=150, deadline=None)
def test_mutated_documents_exit_cleanly(tmp_path_factory, docs):
    graph_doc, labeling_doc = docs
    try:  # bind the labeling to a mutated graph that still loads
        fp = Graph.from_json_obj(graph_doc).fingerprint()
    except ValueError:
        fp = None
    if (fp and isinstance(labeling_doc, dict) and labeling_doc.get(
            "graph_fingerprint") == _FUZZ_LABELING_DOC["graph_fingerprint"]):
        labeling_doc = {**labeling_doc, "graph_fingerprint": fp}
    base = tmp_path_factory.mktemp("fuzz")
    gpath, lpath = base / "g.json", base / "l.json"
    gpath.write_text(json.dumps(graph_doc))
    lpath.write_text(json.dumps(labeling_doc))
    for command in ("verify", "export"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, str(gpath), str(lpath)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error:")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""


# -- the error boundary and flag fuzzing --------------------------------------

_SWEEP_ARGV = ("sweep", "--grid", "theorem1:n=2,m=1", "--search-policy",
               "never", "--out", "s.csv")


def _raise(exc):
    def raiser(*args):
        raise exc
    return raiser


def test_os_error_in_a_command_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "rows_to_csv", _raise(OSError("disk full")))
    code, stdout, err = run(capsys, *_SWEEP_ARGV)
    assert_one_error_line(code, stdout, err)
    assert err == "error: disk full\n"


@pytest.mark.parametrize("exc", [RuntimeError, AssertionError])
def test_program_faults_propagate(tmp_path, monkeypatch, exc):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "rows_to_csv", _raise(exc("fault")))
    with pytest.raises(exc):
        main(list(_SWEEP_ARGV))


def test_help_exits_0(capsys):
    assert main(["gen", "-h"]) == 0
    assert capsys.readouterr().out.startswith("usage:")


_BAD_VALUES = ["x", "", "2.5", "-1", "0", str(10 ** 8)]
_BROKEN_GRIDS = ["theorem1:n=2", "theorem1:n=3..2,m=1", "theorem4:n=2,m=1",
                 "theorem1:n=2,m=1,m=2", "theorem3:n=1,m=1", "theorem1:n=,m=1",
                 "theorem1", ";", "theorem1:n=a,m=1", "theorem2:n=2..3..4,m=1",
                 "theorem1:n=2,m=1;theorem3:k=0,m=1", "theorem1:n=2,k=1,m=1"]
_SIZES = {"--n": st.integers(2, 4), "--k": st.integers(1, 3)}


@st.composite
def valid_argv(draw):
    """A well-formed command line for gen, label, search or sweep, on small
    instances and the files that fuzz_files writes."""
    command = draw(st.sampled_from(["gen", "label", "search", "sweep"]))
    if command in ("gen", "label"):
        number = draw(st.integers(1, 3))
        size = "--k" if number == 3 else "--n"
        which = (["--family", FAMILIES[number - 1]] if command == "gen"
                 else ["--theorem", str(number)])
        return [command, *which, size, str(draw(_SIZES[size])),
                "--m", str(draw(st.integers(1, 2))), "--out", "out.json"]
    if command == "search":
        argv = [command, draw(st.sampled_from(["c3.json", "c4.json"]))]
        if draw(st.booleans()):
            argv += ["--max-nodes", str(draw(st.integers(0, 1000)))]
        if draw(st.booleans()):
            argv += ["--timeout-ms", str(draw(st.integers(0, 1000)))]
        return argv
    grid = draw(st.sampled_from([
        "theorem1:n=2..3,m=1", "theorem2:n=2,m=1..2", "theorem3:k=1..2,m=1",
        "theorem1:n=2,m=1;theorem3:k=1,m=1"]))
    policy = draw(st.sampled_from(["never", "on-fail", "always"]))
    argv = [command, "--grid", grid, "--out", "out.csv",
            "--search-policy", policy]
    if draw(st.booleans()):
        argv += ["--expected", "expected.csv"]
    return argv


@st.composite
def mutated_argv(draw):
    """valid_argv with one to three mutations: a token dropped, a flag
    repeated, an unknown flag added, a value swapped for a bad one, the
    other size flag given, or a grid clause broken."""
    argv = draw(valid_argv())
    command = argv[0]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "repeat", "unknown", "swap",
                                   "size", "grid"]))
        flags = [i for i, t in enumerate(argv[:-1]) if t.startswith("--")]
        values = [i for i in range(1, len(argv))
                  if not argv[i].startswith("--")]
        if op == "drop" and argv:
            del argv[draw(st.integers(0, len(argv) - 1))]
        elif op == "repeat" and flags:
            i = draw(st.sampled_from(flags))
            argv += argv[i:i + 2]
        elif op == "unknown":
            argv.insert(draw(st.integers(0, len(argv))), "--no-such-flag")
        elif op == "swap" and values:
            argv[draw(st.sampled_from(values))] = draw(
                st.sampled_from(_BAD_VALUES))
        elif op == "size":
            size = draw(st.sampled_from(sorted(_SIZES)))
            argv += [size, str(draw(_SIZES[size]))]
        elif op == "grid" and "--grid" in argv[:-1]:
            argv[argv.index("--grid") + 1] = draw(
                st.sampled_from(_BROKEN_GRIDS))
    if command == "sweep":  # the last value wins: bounds any search
        argv += ["--max-nodes", str(draw(st.integers(0, 1000)))]
    return argv


def fuzz_files(base):
    (base / "c3.json").write_text(cycle_graph(3).to_json())
    (base / "c4.json").write_text(cycle_graph(4).to_json())
    (base / "expected.csv").write_text("family,n_or_k,m,verdict\n"
                                       "theorem1,2,1,pass\n")


@given(mutated_argv())
@settings(max_examples=200, deadline=None)
def test_mutated_argv_exit_cleanly(tmp_path_factory, argv):
    base = tmp_path_factory.mktemp("argv")
    fuzz_files(base)
    out, err = io.StringIO(), io.StringIO()
    with chdir(base), redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
