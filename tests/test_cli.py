import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdom.cli
import bdom.graphs
import bdom.interval
from bdom.cli import main
from bdom.audit import run_audit
from bdom.errors import GraphConstructionError, OutOfFormulaDomain, ParseError, TooLarge
from bdom.families import grid, star, star_orientation
from bdom.graphs import MAX_PARSED_VERTICES, format_dg, format_ug, parse_dg, parse_ug
from bdom.lattice import builtin_patterns, format_pat, parse_pat
from conftest import pool_spy


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    assert rc == 0, out
    return json.loads(out)


@pytest.fixture
def g35_file(tmp_path):
    p = tmp_path / "g35.ug"
    p.write_text(format_ug(grid(3, 5)), encoding="utf-8")
    return str(p)


@pytest.fixture
def s5_file(tmp_path):
    p = tmp_path / "s5.ug"
    p.write_text(format_ug(star(5)), encoding="utf-8")
    return str(p)


def test_family_grid_emits_canonical_ug(capsys):
    rc, out = run(capsys, "family", "grid", "--m", "3", "--n", "5")
    assert rc == 0
    assert out == format_ug(grid(3, 5))
    assert out.startswith("15 22\n")


def test_family_writes_file(tmp_path, capsys):
    target = tmp_path / "out.ug"
    rc, _ = run(capsys, "family", "star", "--n", "9", "--out", str(target))
    assert rc == 0
    assert target.read_text(encoding="utf-8") == format_ug(star(9))


def test_gamma_undirected_grid(capsys, g35_file):
    report = run_json(capsys, "gamma", g35_file, "--t", "3", "--r", "2")
    assert report["results"] == {"gamma": 3, "r": 2, "t": 3, "witness": report["results"]["witness"]}
    assert report["results"]["gamma"] == 3
    assert len(report["results"]["witness"]) == 3


def test_gamma_directed_star(tmp_path, capsys):
    dg = tmp_path / "fig6_left.dg"
    dg.write_text(format_dg(star_orientation(9, 0)), encoding="utf-8")
    report = run_json(capsys, "gamma", str(dg), "--t", "2", "--r", "1")
    assert report["results"]["gamma"] == 1
    assert report["results"]["witness"] == [0]
    assert report["params"]["directed"] is True


def test_gamma_single_vertex(tmp_path, capsys):
    ug = tmp_path / "one.ug"
    ug.write_text("1 0\n", encoding="utf-8")
    report = run_json(capsys, "gamma", str(ug), "--t", "5", "--r", "5")
    assert report["results"]["gamma"] == 1


def test_gamma_on_600_disjoint_paths(tmp_path, capsys):
    # each path needs 2 towers at (2,1): 1,200 towers, more than a
    # search recursing once per tower could place under the default
    # recursion limit
    edges = [(4 * i + j, 4 * i + j + 1) for i in range(600) for j in range(3)]
    ug = tmp_path / "paths.ug"
    ug.write_text(format_ug(bdom.graphs.Graph(2400, edges)), encoding="utf-8")
    report = run_json(capsys, "gamma", str(ug), "--t", "2", "--r", "1")
    assert report["results"]["gamma"] == 1200


def test_oracle_agrees_with_gamma(capsys, s5_file):
    # every leaf is forced (it can hear at most 1 from the center), and
    # four leaf towers already feed the center
    solver = run_json(capsys, "gamma", s5_file, "--t", "2", "--r", "2")
    oracle = run_json(capsys, "oracle", s5_file, "--t", "2", "--r", "2")
    assert solver["results"]["gamma"] == oracle["results"]["gamma"] == 4


def test_gamma_and_oracle_run_their_own_solver(monkeypatch, capsys, s5_file):
    calls = []

    def spy(d, p):
        calls.append(d.n)
        return real(d, p)

    real = bdom.cli.gamma_bruteforce
    monkeypatch.setattr("bdom.cli.gamma_bruteforce", spy)
    solver = run_json(capsys, "gamma", s5_file, "--t", "2", "--r", "2")
    assert calls == []
    oracle = run_json(capsys, "oracle", s5_file, "--t", "2", "--r", "2")
    assert calls == [5]
    assert (solver["command"], oracle["command"]) == ("gamma", "oracle")
    for report in (solver, oracle):
        report.pop("command")
        report.pop("timing_ms")
    assert solver == oracle


def test_interval_star5(capsys, s5_file):
    report = run_json(capsys, "interval", s5_file, "--t", "2", "--r", "2")
    assert report["results"] == {"D": 5, "attained": [4, 5], "d": 4, "full": True}
    report = run_json(capsys, "interval", s5_file, "--t", "3", "--r", "1")
    assert report["results"] == {"D": 4, "attained": [1, 2, 3, 4], "d": 1, "full": True}


def test_interval_results_independent_of_jobs(monkeypatch, capsys, s5_file):
    one = run_json(capsys, "interval", s5_file, "--t", "2", "--r", "2", "--jobs", "1")
    # star(5) has 5 orbit minima: start the pool from one per worker
    opened = pool_spy(monkeypatch)
    two = run_json(capsys, "interval", s5_file, "--t", "2", "--r", "2", "--jobs", "2")
    assert opened == [2]
    assert one["results"] == two["results"]


def test_walk_star9(tmp_path, capsys):
    ug = tmp_path / "s9.ug"
    ug.write_text(format_ug(star(9)), encoding="utf-8")
    report = run_json(
        capsys, "walk", str(ug), "--from", "0" * 8, "--to", "1" * 8, "--t", "2", "--r", "1"
    )
    assert report["results"]["gamma_sequence"][0] == 1
    assert report["results"]["gamma_sequence"][-1] == 8
    assert report["results"]["max_step"] == 1


def test_torus_builtin(capsys):
    report = run_json(
        capsys, "torus", "--pattern", "diag13", "--t", "2", "--r", "2", "--reps", "2"
    )
    results = report["results"]
    assert results["density"] == "1/3"
    assert results["dominating"] and results["strict_efficient"]
    assert results["torus"] == [6, 6]


def test_torus_pattern_file(tmp_path, capsys):
    pat = tmp_path / "checker.pat"
    pat.write_text(format_pat(builtin_patterns()["checker12"]), encoding="utf-8")
    report = run_json(
        capsys, "torus", "--pattern", str(pat), "--t", "2", "--r", "2", "--reps", "2"
    )
    assert report["results"]["density"] == "1/2"
    assert report["inputs_digest"]["pattern"]


def test_jumps_seeded(capsys):
    report = run_json(
        capsys, "jumps", "--t", "2", "--r", "2", "--budget", "7",
        "--trials", "30", "--seed", "9",
    )
    assert report["results"]["count"] == 0


def test_jumps_requires_seed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jumps", "--t", "5", "--r", "3", "--trials", "10"])
    assert exc.value.code == 2


def test_audit_star_all_confirmed(capsys, tmp_path):
    md = tmp_path / "star.md"
    report = run_json(capsys, "audit", "star", "--md-out", str(md))
    claims = report["results"]["claims"]
    assert claims and all(c["status"] == "confirmed" for c in claims)
    assert md.read_text(encoding="utf-8").startswith("# Claim audit: star")


def test_audit_all_renders_markdown(capsys, tmp_path):
    md = tmp_path / "all.md"
    report = run_json(capsys, "audit", "all", "--md-out", str(md))
    statuses = {c["status"] for c in report["results"]["claims"]}
    assert statuses <= {"confirmed", "refuted-at-instance", "unverifiable"}
    assert "refuted-at-instance" in statuses  # the 3x2 upper endpoint
    text = md.read_text(encoding="utf-8")
    assert "Summary:" in text and "| claim | status | details |" in text


def test_audit_prop34_reports_refutation(capsys):
    report = run_json(capsys, "audit", "prop34")
    by_instance = {
        (c["instance"]["m"], c["instance"]["n"]): c["status"]
        for c in report["results"]["claims"]
    }
    assert by_instance[(3, 2)] == "refuted-at-instance"
    assert by_instance[(2, 4)] == "confirmed"
    assert by_instance[(3, 3)] == "confirmed"


def test_audit_unknown_target_names_the_targets():
    with pytest.raises(OutOfFormulaDomain) as exc:
        run_audit("bogus")
    assert str(exc.value) == (
        "unknown audit target 'bogus'; choose from"
        " ['grid', 'prop34', 'prop44', 'star', 'torus'] or 'all'"
    )


def test_audit_choices_follow_the_audit_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "bogus"])
    assert exc.value.code == 2
    # the audit table's order, then "all"; quoting varies across Pythons
    names = re.sub(r"[\s',]+", " ", capsys.readouterr().err)
    assert "star grid prop34 prop44 torus all" in names


def test_family_grid_needs_both_dims(capsys):
    assert main(["family", "grid", "--n", "3"]) == 2
    assert capsys.readouterr().err == "error: family grid needs --m and --n\n"


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.ug"
    bad.write_text("not a graph\n", encoding="utf-8")
    assert main(["gamma", str(bad), "--t", "2", "--r", "1"]) == 2
    assert main(["gamma", str(tmp_path / "missing.ug"), "--t", "2", "--r", "1"]) == 2


_NON_UTF8_COMMANDS = {
    "gamma": ["gamma", "{src}"],
    "oracle": ["oracle", "{src}"],
    "interval": ["interval", "{src}"],
    "walk": ["walk", "{src}", "--from", "0000", "--to", "1111"],
    "torus": ["torus", "--pattern", "{src}"],
}


@pytest.mark.parametrize("command", sorted(_NON_UTF8_COMMANDS))
def test_exit_code_non_utf8_input(command, tmp_path, capsys):
    src = tmp_path / "bad.ug"
    src.write_bytes(b"5 4\n0 1\n0 2\n0 3\n0 \xff4\n")
    argv = [a.format(src=src) for a in _NON_UTF8_COMMANDS[command]]
    rc = main(argv + ["--t", "2", "--r", "2"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_exit_code_guard_cover_pairs(monkeypatch, capsys, tmp_path):
    g33 = tmp_path / "g33.ug"
    g33.write_text(format_ug(grid(3, 3)), encoding="utf-8")
    monkeypatch.setattr(bdom.graphs, "MAX_COVER_PAIRS", 20)
    assert main(["gamma", str(g33), "--t", "5", "--r", "1"]) == 4
    assert capsys.readouterr().err == (
        "error: cover table of 9 vertices at t=5 exceeds the guard of 20 pairs\n"
    )


def test_exit_code_infeasible(capsys, s5_file):
    assert main(["gamma", s5_file, "--t", "1", "--r", "2"]) == 3


def test_exit_code_guard(tmp_path, capsys):
    big = tmp_path / "big.ug"
    big.write_text(format_ug(grid(3, 6)), encoding="utf-8")  # 27 edges
    assert main(["interval", str(big), "--t", "2", "--r", "2"]) == 4


def test_reports_are_stable_across_runs(capsys, s5_file):
    a = run_json(capsys, "interval", s5_file, "--t", "2", "--r", "2")
    b = run_json(capsys, "interval", s5_file, "--t", "2", "--r", "2")
    a.pop("timing_ms")
    b.pop("timing_ms")
    assert a == b


def test_json_is_key_sorted(capsys, s5_file):
    rc, out = run(capsys, "gamma", s5_file, "--t", "2", "--r", "2")
    assert rc == 0
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_exit_code_guard_jumps_budget(capsys):
    rc = main(["jumps", "--t", "2", "--r", "1", "--budget", "0",
               "--trials", "3", "--seed", "1"])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith("error: vertex budget") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["jumps", "--trials", "-3", "--seed", "1"], "trials must be >= 0, got -3"),
        (["interval", "{graph}", "--jobs", "-2"], "jobs must be >= 1, got -2"),
        (["interval", "{graph}", "--jobs", "0"], "jobs must be >= 1, got 0"),
    ],
    ids=["jumps-trials", "interval-jobs", "interval-jobs-zero"],
)
def test_exit_code_guard_negative_counts(argv, message, capsys, s5_file):
    argv = [a.format(graph=s5_file) for a in argv]
    rc = main(argv + ["--t", "2", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_exit_code_guard_torus_reps(capsys):
    # 1000 periods of diag13 a side would be a 3000x3000 torus
    rc = main(["torus", "--pattern", "diag13", "--t", "2", "--r", "2", "--reps", "1000"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err == (
        "error: 3000x3000 torus has 9000000 vertices;"
        f" building is guarded at {MAX_PARSED_VERTICES}\n"
    )


def test_exit_code_guard_jumps_large_budget(capsys):
    rc = main(["jumps", "--t", "5", "--r", "3", "--budget", str(10**9),
               "--trials", "1", "--seed", "1"])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err == (
        f"error: vertex budget of {10**9} vertices;"
        f" the jump search is guarded at {MAX_PARSED_VERTICES}\n"
    )


@pytest.mark.parametrize(
    "argv, subject",
    [
        ("grid --m 101 --n 100", "101x100 grid has 10100"),
        ("star --n 10001", "star has 10001"),
        ("path --n 10001", "path has 10001"),
    ],
)
def test_exit_code_guard_family_size(argv, subject, tmp_path, capsys):
    out = tmp_path / "big.ug"
    assert main(["family", *argv.split(), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == (
        f"error: {subject} vertices; generation is guarded at {MAX_PARSED_VERTICES}\n"
    )


@pytest.mark.parametrize("command", ["gamma", "oracle", "interval"])
def test_exit_code_guard_oversized_header(command, tmp_path, capsys):
    src = tmp_path / "huge.ug"
    src.write_text("2000000 0\n", encoding="utf-8")
    assert main([command, str(src), "--t", "1", "--r", "1"]) == 4
    err = capsys.readouterr().err
    assert err == (
        "error: .ug declares 2000000 vertices;"
        f" parsing is guarded at {MAX_PARSED_VERTICES}\n"
    )


def test_exit_code_internal_error(monkeypatch, capsys, s5_file):
    def broken(g, p):
        raise RuntimeError("boom")

    monkeypatch.setattr("bdom.cli.gamma", broken)
    rc = main(["gamma", s5_file, "--t", "2", "--r", "1"])
    captured = capsys.readouterr()
    assert rc == 5
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError: boom (")
    assert captured.err.count("\n") == 1


def test_interval_jobs_clamped_to_cpu_count(monkeypatch, tmp_path, capsys):
    src = tmp_path / "g33.ug"
    src.write_text(format_ug(grid(3, 3)), encoding="utf-8")  # 570 orbit minima
    serial = run_json(capsys, "interval", str(src), "--t", "2", "--r", "1", "--witnesses")

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    # without the clamp, 570 minima would start 64 workers
    monkeypatch.setattr(bdom.interval, "MIN_MINIMA_PER_WORKER", 1)
    monkeypatch.setattr(bdom.interval.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(bdom.interval, "Pool", no_pool)
    clamped = run_json(
        capsys, "interval", str(src), "--t", "2", "--r", "1", "--witnesses", "--jobs", "64"
    )
    assert clamped["results"] == serial["results"]
    assert clamped["params"]["jobs"] == 64


def test_exit_code_nonpositive_params(capsys, s5_file):
    assert main(["gamma", s5_file, "--t", "0", "--r", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: t and r must be positive")


def test_exit_code_internal_value_error(monkeypatch, capsys, s5_file):
    def broken(g, p):
        raise ValueError("internal")

    monkeypatch.setattr("bdom.cli.gamma", broken)
    assert main(["gamma", s5_file, "--t", "2", "--r", "1"]) == 5
    assert capsys.readouterr().err.startswith("internal error: ValueError: internal (")


_huge = st.integers(MAX_PARSED_VERTICES + 1, 10**12)

# arbitrary text, and framed text: a header of small integers, or of
# counts above the parse guard, that often matches the body's line
# count, over rows of pair- and .pat-like tokens
_cell = st.one_of(
    st.integers(-1, 6).map(str),
    st.sampled_from(["T", ".", "0", "1", "x", "1_0", "#", ""]),
)
_row = st.lists(_cell, min_size=1, max_size=3)


@st.composite
def _framed(draw):
    body = draw(st.lists(st.one_of(_row.map(" ".join), _row.map("".join)), max_size=9))
    first = draw(st.sampled_from([len(body) // 3, draw(st.integers(-1, 6)), draw(_huge)]))
    second = draw(st.sampled_from([len(body), draw(st.integers(-1, 3)), draw(_huge)]))
    return "\n".join([f"{first} {second}"] + body)


_text = st.one_of(st.text(max_size=40), _framed())


@settings(max_examples=100, deadline=None)
@given(_text)
def test_parsers_raise_only_input_errors(text):
    for parse in (parse_ug, parse_dg, parse_pat):
        try:
            parse(text)
        except (ParseError, GraphConstructionError):
            pass
        except TooLarge as exc:
            # the vertex-count guard, the one non-input error a parser raises
            assert parse is not parse_pat and "parsing is guarded" in str(exc)


_PARAM_COMMANDS = {
    "gamma": ["gamma", "{graph}"],
    "oracle": ["oracle", "{graph}"],
    "interval": ["interval", "{graph}"],
    "walk": ["walk", "{graph}", "--from", "0000", "--to", "1111"],
    "torus": ["torus", "--pattern", "diag13"],
    "jumps": ["jumps", "--trials", "1", "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(_PARAM_COMMANDS))
def test_params_exit_codes_on_every_subcommand(command, capsys, s5_file):
    argv = [a.format(graph=s5_file) for a in _PARAM_COMMANDS[command]]
    assert main(argv + ["--t", "1", "--r", "2"]) == 3
    assert main(argv + ["--t", "0", "--r", "5"]) == 2
    assert main(argv + ["--t", "2", "--r", "2"]) == 0


# CLI-level fuzz: small .ug/.dg/.pat files, header-shaped or free text.
# Files have at most 10 lines.  Numbers are at most 8 or above the parse
# guard, which rejects such a vertex count with exit 4: a count in
# between is valid input that gamma takes seconds to solve.
_num = st.one_of(st.integers(-1, 8), _huge).map(str)


@st.composite
def _graph_text(draw):
    n = draw(st.integers(0, 8)) if draw(st.integers(0, 3)) else draw(_huge)
    if n > 1 and draw(st.integers(0, 3)):  # mostly in range and loop-free
        end = st.integers(0, n - 1)
        pair = st.tuples(end, end).filter(lambda e: e[0] != e[1]).map(
            lambda e: f"{e[0]} {e[1]}"
        )
    else:
        pair = st.tuples(_num, _num).map(" ".join)
    body = draw(st.lists(pair, max_size=9))
    wrong = draw(st.one_of(st.integers(0, 9), _huge))
    m = draw(st.sampled_from([len(body)] * 3 + [wrong]))
    return "\n".join([f"{n} {m}"] + body) + "\n"


@st.composite
def _pat_text(draw):
    pa, pb = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def rows(alphabet):
        row = st.text(alphabet, min_size=pb, max_size=pb)
        return draw(st.lists(row, min_size=pa, max_size=pa))

    return "\n".join([f"{pa} {pb}"] + rows("T.") + rows("01") + rows("01")) + "\n"


def _small_text(text):
    return text.count("\n") < 10 and all(
        not 8 < int(x) <= MAX_PARSED_VERTICES for x in re.findall(r"\d+", text)
    )


_free_text = st.text(max_size=40).filter(_small_text)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["gamma", "oracle", "interval", "torus"]),
    st.sampled_from([".ug", ".dg"]),
    st.integers(0, 4),
    st.data(),
)
def test_cli_exit_codes_on_fuzzed_files(command, suffix, t, data):
    r = data.draw(st.one_of(st.integers(1, max(t, 1)), st.integers(0, 4)))
    if command == "torus":
        suffix = ".pat"
        text = data.draw(st.one_of(_pat_text(), _free_text))
    else:
        text = data.draw(st.one_of(_graph_text(), _free_text))
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / f"input{suffix}"
        src.write_text(text, encoding="utf-8")
        target = ["--pattern", str(src)] if command == "torus" else [str(src)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = main([command, *target, "--t", str(t), "--r", str(r)])
    assert rc in (0, 2, 3, 4), err.getvalue()
    if rc == 0:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0] == json.dumps(json.loads(lines[0]), sort_keys=True)
