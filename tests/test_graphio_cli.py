"""Parser round-trips and end-to-end command-line runs (in process)."""

import dataclasses
import io
import json

import pytest

from resolvedim import cli, families, formulas, graphio
from resolvedim.cli import Report, main
from resolvedim.verify import Check, SuiteResult


def test_parse_edge_list_with_comments():
    text = "# a triangle plus a tail\n4 4\n0 1\n1 2  # back\n2 0\n2 3\n"
    g = graphio.parse_graph(text)
    assert g.n == 4
    assert g.edges() == ((0, 1), (0, 2), (1, 2), (2, 3))


def test_parse_json_after_leading_comment():
    text = '# json follows\n{"n": 3, "edges": [[0, 1], [1, 2]]}'
    g = graphio.parse_graph(text)
    assert g.n == 3
    assert g.edges() == ((0, 1), (1, 2))


def test_round_trips():
    g = families.petersen()
    assert graphio.parse_graph(graphio.graph_to_edge_list(g)).edges() == g.edges()
    assert graphio.parse_graph(graphio.graph_to_json(g)).edges() == g.edges()


def test_parse_errors_name_the_line():
    with pytest.raises(ValueError, match="empty"):
        graphio.parse_graph("   \n# only comments\n")
    with pytest.raises(ValueError, match="line 2"):
        graphio.parse_graph("2 1\n0 1 2\n")
    with pytest.raises(ValueError, match="line 2"):
        graphio.parse_graph("2 1\n0 x\n")
    # Comment lines and trailing comments still count as input lines, and
    # the message quotes the line without its comment.
    with pytest.raises(ValueError, match=r"line 4: not an integer pair: '0 x'$"):
        graphio.parse_graph("# header next\n2 1\n  # none here\n0 x  # bad\n")
    with pytest.raises(ValueError, match="promised"):
        graphio.parse_graph("3 2\n0 1\n")
    with pytest.raises(ValueError, match="nonnegative"):
        graphio.parse_graph("-2 0\n")


def test_parse_json_errors():
    with pytest.raises(ValueError, match="invalid JSON"):
        graphio.parse_graph("{broken")
    with pytest.raises(ValueError, match='"n" and "edges"'):
        graphio.parse_graph('{"n": 3}')
    with pytest.raises(ValueError, match="edge 0"):
        graphio.parse_graph('{"n": 3, "edges": [[0]]}')


def test_order_cap(monkeypatch, capsys):
    cap = graphio.MAX_ORDER
    assert graphio.parse_graph(f"{cap} 0\n").n == cap
    assert graphio.parse_graph(f'{{"n": {cap}, "edges": []}}').n == cap
    with pytest.raises(ValueError, match="exceeds the limit"):
        graphio.parse_graph(f"{cap + 1} 0\n")
    with pytest.raises(ValueError, match="exceeds the limit"):
        graphio.parse_graph(f'{{"n": {cap + 1}, "edges": []}}')
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{cap + 1} 0\n"))
    assert main(["dim", "-"]) == 3
    assert "exceeds the limit" in capsys.readouterr().err


def test_report_round_trip():
    r = Report(
        input="x n=5 m=4",
        parameter="dim",
        value=1,
        witness=[0],
        stats={"order": 5},
        bounds=[],
        timing_ms=2,
    )
    assert Report.from_json(r.to_json()) == r


def _write_graph(tmp_path, g, name="g.txt"):
    p = tmp_path / name
    p.write_text(graphio.graph_to_edge_list(g))
    return str(p)


def test_solve_dim_text(tmp_path, capsys):
    path = _write_graph(tmp_path, families.path(6))
    assert main(["dim", path]) == 0
    out = capsys.readouterr().out
    assert "dim = 1" in out
    assert "witness: [0]" in out


def test_solve_bdim_json(tmp_path, capsys):
    path = _write_graph(tmp_path, families.path(6))
    assert main(["bdim", path, "--format", "json"]) == 0
    report = Report.from_json(capsys.readouterr().out)
    assert report.parameter == "bdim"
    assert report.value == 2
    assert report.witness == [0, 0, 1, 0, 1, 0]
    assert report.schema == "resolvedim.report/1"
    assert any(b["id"] == "capacity-bdim" and b["holds"] for b in report.bounds)


def test_text_solve_skips_the_bound_scorecard(tmp_path, monkeypatch, capsys):
    g = families.cycle(7)
    path = _write_graph(tmp_path, g)

    def refuse(*args, **kwargs):
        raise AssertionError("the text report computed the bound scorecard")

    with monkeypatch.context() as patched:
        patched.setattr(formulas, "bound_report", refuse)
        assert main(["dim", path]) == 0
    assert "dim = " in capsys.readouterr().out
    assert main(["dim", path, "--format", "json"]) == 0
    report = Report.from_json(capsys.readouterr().out)
    records = formulas.bound_report(g, dim=report.value)
    assert report.bounds == [
        {
            "id": r.id,
            "applicable": r.applicable,
            "lhs": r.lhs,
            "rhs": r.rhs,
            "holds": r.holds if r.applicable else None,
            "note": r.note,
        }
        for r in records
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["bdim", "SPIDER"],
        ["enum-min", "SPIDER"],
        ["formula", "--param", "bdim", "--family", "path", "--params", "n=9"],
        ["verify", "--max-order", "3"],
    ],
)
def test_json_output_is_one_compact_sorted_line(argv, tmp_path, capsys):
    spider = families.generate(families.FamilySpec("spider", {"x": 4, "s": 2}))
    path = _write_graph(tmp_path, spider)
    argv = [path if a == "SPIDER" else a for a in argv]
    assert main([*argv, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    payload = json.loads(out)
    assert out[:-1] == json.dumps(payload, sort_keys=True)
    if argv[0] == "bdim":
        assert payload == dataclasses.asdict(Report.from_json(out))


def test_solve_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1\n0 1\n"))
    assert main(["adim", "-", "--format", "json"]) == 0
    report = Report.from_json(capsys.readouterr().out)
    assert report.value == 1


def test_solve_runs_bfs_once(monkeypatch, capsys):
    import resolvedim

    calls = {}

    def counter(name, fn):
        def counted(g, *args):
            calls[name] = calls.get(name, 0) + 1
            return fn(g, *args)

        return counted

    # Every module of the package that binds a function gets its counter.
    for name in ("all_pairs_distances", "twin_partition", "metric_profile"):
        fn = getattr(resolvedim.graphs, name)
        for modname in ("cli", "formulas", "graphs", "resolution", "solvers", "verify"):
            module = getattr(resolvedim, modname)
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counter(name, fn))
    text = graphio.graph_to_edge_list(families.cycle(7))
    for argv in (["dim"], ["adim"], ["dimk", "-k", "2"], ["bdim"]):
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        # The solve, revalidation and the bound report share one of each.
        assert main([argv[0], "-", *argv[1:], "--format", "json"]) == 0
        assert calls["all_pairs_distances"] == 1, argv
        assert calls.get("twin_partition", 0) <= 1, argv
        assert calls.get("metric_profile", 0) <= 1, argv
        stats = Report.from_json(capsys.readouterr().out).stats
        assert stats["candidates_checked"] <= stats["candidates_examined"]
        assert stats["nodes_built"] >= 0


def test_dimk_needs_k(tmp_path, capsys):
    path = _write_graph(tmp_path, families.path(6))
    assert main(["dimk", path]) == 2
    capsys.readouterr()
    assert main(["dimk", path, "-k", "1", "--format", "json"]) == 0
    report = Report.from_json(capsys.readouterr().out)
    assert report.parameter == "dim_k"
    assert report.stats["k"] == 1
    capsys.readouterr()
    assert main(["adim", path, "--format", "json"]) == 0
    assert Report.from_json(capsys.readouterr().out).value == report.value


def test_solve_write_to_file(tmp_path):
    path = _write_graph(tmp_path, families.star(3))
    out = tmp_path / "report.json"
    assert main(["dim", path, "--format", "json", "-o", str(out)]) == 0
    assert Report.from_json(out.read_text()).value == 2


def test_solve_input_errors(tmp_path, capsys):
    assert main(["dim", str(tmp_path / "missing.txt")]) == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 1 2\n")
    assert main(["dim", str(bad)]) == 3
    assert "error:" in capsys.readouterr().err


def test_json_bool_order_is_an_input_error(monkeypatch, capsys):
    with pytest.raises(ValueError, match='"n" must be an integer'):
        graphio.parse_graph('{"n": true, "edges": []}')
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": true, "edges": []}'))
    assert main(["dim", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert '"n" must be an integer' in captured.err


def test_json_bool_endpoint_is_an_input_error(monkeypatch, capsys):
    with pytest.raises(ValueError, match="edge 1 is not an integer pair"):
        graphio.parse_graph('{"n": 3, "edges": [[0, 1], [1, false]]}')
    monkeypatch.setattr("sys.stdin", io.StringIO('{"n": 3, "edges": [[true, 2]]}'))
    assert main(["bdim", "-", "--format", "json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "edge 0 is not an integer pair" in captured.err


def test_threads_flag_is_gone(tmp_path, capsys):
    path = _write_graph(tmp_path, families.cycle(7))
    assert main(["bdim", path, "--threads", "1"]) == 2
    assert "--threads" in capsys.readouterr().err


def test_enum_min_json(tmp_path, capsys):
    path = _write_graph(tmp_path, families.kK2(2))
    assert main(["enum-min", path, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "resolvedim.enumeration/1"
    assert payload["optimal_cost"] == 2
    assert payload["count"] == 4
    assert [1, 0, 1, 0] in payload["broadcasts"]


def test_formula_command(capsys):
    assert main(["formula", "--param", "bdim", "--family", "path",
                 "--params", "n=7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["applicable"] is True
    assert payload["value"] == 3
    capsys.readouterr()
    assert main(["formula", "--param", "adim", "--family", "complete_multipartite",
                 "--params", "parts=1,2,2"]) == 0
    assert "= 2" in capsys.readouterr().out


def test_formula_not_applicable_text(capsys):
    assert main(["formula", "--param", "bdim", "--family", "spider",
                 "--params", "x=4,s=4"]) == 0
    assert "not applicable" in capsys.readouterr().out


def test_formula_rejects_bad_input(capsys):
    assert main(["formula", "--param", "dim", "--family", "moebius"]) == 2
    assert "unknown" in capsys.readouterr().err
    assert main(["formula", "--param", "dim", "--family", "path",
                 "--params", "n=0"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "path", "--params", "n=abc"],
        ["gen", "--family", "path", "--params", "n=2.5"],
        ["gen", "--family", "grid", "--params", "dims=x"],
        ["formula", "--param", "dim", "--family", "path", "--params", "n=abc"],
        ["formula", "--param", "bdim", "--family", "complete_multipartite", "--params", "parts=a,b"],
        ["formula", "--param", "dim", "--family", "path", "--params", "n=5,6"],
        ["gen", "--family", "spider", "--params", "x=4,2,s=1"],
        ["formula", "--param", "dim", "--family", "path", "--params", "n=5,n=9"],
        ["gen", "--family", "spider", "--params", "x=4,s=1,x=5"],
        ["verify", "--max-order", "-1", "--samples", "0", "--suite", "chain"],
        ["verify", "--max-order", "-1", "--samples", "2"],
        ["verify", "--max-order", "7"],
        ["verify", "--max-order", "0"],
        ["verify", "--samples", "-1"],
    ],
)
def test_bad_parameter_values_exit_3(argv, capsys):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_gen_pipes_into_solve(tmp_path, capsys):
    out = tmp_path / "gen.txt"
    assert main(["gen", "--family", "spider", "--params", "x=3,s=2",
                 "-o", str(out)]) == 0
    assert main(["dim", str(out), "--format", "json"]) == 0
    assert Report.from_json(capsys.readouterr().out).value == 2


def test_gen_json_format(capsys):
    assert main(["gen", "--family", "kK2", "--params", "k=2",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 4
    assert payload["edges"] == [[0, 1], [2, 3]]


def test_gen_rejects_orders_above_the_limit(monkeypatch, capsys):
    # The order is checked before the builder runs: K_2001 would take
    # two million edges.
    def refuse(spec):
        raise AssertionError(f"{spec.family} was built")

    monkeypatch.setattr(families, "generate", refuse)
    for family in ("path", "complete"):
        assert main(["gen", "--family", family, "--params", "n=2001"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the limit of 2000" in captured.err
    monkeypatch.undo()
    assert main(["gen", "--family", "path", "--params", "n=2000"]) == 0
    assert graphio.parse_graph(capsys.readouterr().out).n == 2000


def test_gen_rejects_bad_family(capsys):
    assert main(["gen", "--family", "moebius", "--params", "n=4"]) == 2
    assert main(["gen", "--family", "path"]) == 3


def test_verify_list_and_run(capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out
    assert "chain" in out and "flatten" in out
    assert main(["verify", "--suite", "chain,truncation",
                 "--max-order", "3", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "2/2 suites passed" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "--suite", "nonsense"]) == 2
    assert "unknown" in capsys.readouterr().err


def test_verify_reports_failures(monkeypatch, capsys):
    fake = SuiteResult(
        suite="chain",
        description="stub",
        checked=3,
        failures=[Check("n=2 edges=[]", False, "boom")],
    )
    monkeypatch.setattr(cli, "run_suites", lambda ids, ctx: [fake])
    assert main(["verify", "--suite", "chain"]) == 4
    out = capsys.readouterr().out
    assert "FAIL chain" in out
    assert "boom" in out


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "resolvedim" in capsys.readouterr().out


def test_usage_errors_exit_2():
    assert main([]) == 2
    assert main(["dim"]) == 2
    assert main(["formula", "--param", "nope", "--family", "path"]) == 2
    # The timing subcommand is gone; bench/ measures the solvers.
    assert main(["bench"]) == 2
