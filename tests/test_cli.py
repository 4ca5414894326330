import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hivecount import lr_tableau_count
from hivecount.cli import main
from hivecount.errors import InvariantError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1")
    assert code == 0
    assert out.strip() == "2"


def test_python_dash_m_runs_count(tmp_path):
    """A source checkout runs the command line as python -m hivecount, with no install."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hivecount", "count", "--lambda", "2,1", "--mu", "2,1",
         "--nu", "3,2,1"],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"


def test_count_rank7_row(capsys):
    # a chart of dimension 15 with 60 rows, whose double description pass
    # holds at most 90 rays, bottom-up; the tableau rule is independent
    lam, nu = (7, 6, 5, 4, 3, 2, 1), (13, 12, 10, 8, 6, 4, 3)
    weights = ",".join(map(str, lam))
    code, out, _ = run(capsys, "count", "--lambda", weights, "--mu", weights,
                       "--nu", ",".join(map(str, nu)))
    assert code == 0
    assert out.strip() == "32"
    assert lr_tableau_count(lam, lam, nu) == 32


def test_count_zero_coefficient_exits_zero(capsys):
    code, out, _ = run(capsys, "count", "--lambda", "4,0", "--mu", "1,1", "--nu", "3,3")
    assert code == 0
    assert out.strip() == "0"


def test_count_size_mismatch_is_zero(capsys):
    code, out, _ = run(capsys, "count", "--lambda", "2,1", "--mu", "1,0", "--nu", "9,1")
    assert code == 0
    assert out.strip() == "0"


def test_count_trailing_zeros_do_not_raise_rank(capsys):
    code, out, _ = run(
        capsys, "count", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1,0,0,0,0,0,0"
    )
    assert code == 0
    assert out.strip() == "2"


def test_count_json_envelope(capsys):
    code, out, _ = run(
        capsys, "count", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "count"
    assert doc["method"] == "barvinok"
    assert doc["rank"] == 3
    assert "timings" in doc and "total_s" in doc["timings"]
    assert doc["results"][0]["value"] == 2


def test_count_method_both(capsys):
    code, out, _ = run(
        capsys,
        "count", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1",
        "--method", "both",
    )
    assert code == 0
    assert out.strip() == "2"


def test_count_bad_weight_exits_two(capsys):
    code, _, err = run(capsys, "count", "--lambda", "1,2", "--mu", "1,0", "--nu", "2,2")
    assert code == 2
    assert err.strip()


def test_count_missing_weight_exits_two(capsys):
    code, _, err = run(capsys, "count", "--lambda", "2,1")
    assert code == 2


def test_count_input_file_batch(tmp_path, capsys):
    batch = tmp_path / "triples.txt"
    batch.write_text(
        "# corpus\n"
        "2,1 2,1 3,2,1\n"
        "1,0 1,0 1,1\n"
        "\n"
    )
    code, out, _ = run(capsys, "count", "--input-file", str(batch))
    assert code == 0
    assert out.split() == ["2", "1"]


def test_count_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "count", "--input-file", "/nonexistent/file.txt")
    assert code == 2


@pytest.mark.parametrize("command", ["count", "nonzero"])
def test_input_file_not_utf8_exits_two(tmp_path, capsys, command):
    batch = tmp_path / "triples.txt"
    batch.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, "--input-file", str(batch))
    assert code == 2
    assert str(batch) in err and "Traceback" not in err
    assert out == ""


def test_count_naive_cap_exit_four(capsys):
    code, _, err = run(
        capsys,
        "count", "--lambda", "9,7,3,0,0", "--mu", "9,9,3,2,0", "--nu", "10,9,9,8,6",
        "--method", "naive", "--naive-cap", "0",
    )
    assert code == 4


def test_nonzero_output(capsys):
    code, out, _ = run(capsys, "nonzero", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1")
    assert code == 0
    assert out.strip() == "nonzero"
    code, out, _ = run(capsys, "nonzero", "--lambda", "4,0", "--mu", "1,1", "--nu", "3,3")
    assert code == 0
    assert out.strip() == "zero"


def test_kostka_direct_and_hive(capsys):
    for via in ("direct", "hive"):
        code, out, _ = run(
            capsys, "kostka", "--lambda", "2,1", "--mu", "1,1,1", "--via", via
        )
        assert code == 0
        assert out.strip() == "2"


def test_kostka_bad_content_exits_two(capsys):
    code, out, err = run(capsys, "kostka", "--lambda", "2,1", "--mu", "1,x")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_klimyk_term_lines(capsys):
    code, out, _ = run(capsys, "klimyk", "--lambda", "1,0", "--mu", "1,0")
    assert code == 0
    lines = sorted(out.strip().splitlines())
    assert lines == ["1,1 1", "2,0 1"]


def test_stretch_report(capsys):
    code, out, _ = run(
        capsys, "stretch", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--n-max", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["period"] == 1
    assert doc["degree"] >= 1
    assert doc["all_coeffs_nonnegative"] in (True, False)


def test_stretch_json_envelope(capsys):
    code, out, _ = run(
        capsys,
        "stretch", "--lambda", "1,0", "--mu", "1,0", "--nu", "1,1", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "stretch"
    assert doc["report"]["period"] == 1


def test_stretch_insufficient_samples_exit_three(capsys):
    code, _, err = run(
        capsys,
        "stretch", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--n-max", "2",
    )
    assert code == 3


def test_stretch_n_max_zero_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stretch", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--n-max", "0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --n-max" in err
    assert "Traceback" not in err


def test_invariant_failure_exits_three(monkeypatch, capsys):
    import hivecount.counting as counting

    def stalled(adj, target):
        raise InvariantError("short-vector search stalled below the determinant")

    monkeypatch.setattr(counting, "_short_vector", stalled)
    # the 557744 row of the paper's table has cones of determinant above 1
    code, out, err = run(
        capsys,
        "count", "--lambda", "73,58,41,21,4", "--mu", "77,61,46,27,1",
        "--nu", "124,117,71,52,45",
    )
    assert code == 3
    assert out == ""
    assert err == "internal error: short-vector search stalled below the determinant\n"


def test_triangulation_invariant_failure_exits_three(tmp_path, monkeypatch, capsys):
    import hivecount.triangulation as triangulation

    # every cell then has determinant 0 and a zero adjugate from its bordering,
    # so no later point sees a facet, and every cell fails the determinant check
    def degenerate(adj, d, col, row, corner):
        return [[0] * (len(col) + 1)] * (len(col) + 1), 0

    monkeypatch.setattr(triangulation, "add_row_column", degenerate)
    triangulation.hive_triangulation.cache_clear()
    out_file = tmp_path / "r3.txt"
    code, out, err = run(capsys, "triangulate", "--rank", "3", "--out", str(out_file))
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert err == "internal error: degenerate cell in placing triangulation\n"
    assert not out_file.exists()


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_triangulate_rank_below_one_exits_two(tmp_path, capsys, rank):
    with pytest.raises(SystemExit) as exc:
        main(["triangulate", "--rank", rank, "--out", str(tmp_path / "r.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --rank" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["count", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--naive-cap", "-1"],
         "--naive-cap"),
        (["klimyk", "--lambda", "0", "--mu", "0", "--cap", "-1"], "--cap"),
        (["kostka", "--lambda", "2,1", "--mu", "2,1", "--cap", "-1"], "--cap"),
    ],
)
def test_negative_cap_exits_two(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be at least 0, got -1" in err
    assert "Traceback" not in err


@st.composite
def command_lines(draw, out_dir):
    """argv for one subcommand: weights of at most 3 parts up to 3, small caps and ranks."""
    commands = ["count", "nonzero", "kostka", "klimyk", "stretch", "triangulate", "export"]
    cmd = draw(st.sampled_from(commands))
    argv = [cmd]

    def maybe(flag, values):
        if draw(st.booleans()):
            argv.extend([flag, str(draw(values))])

    parts = st.lists(st.integers(-1, 3), max_size=3).map(lambda p: ",".join(map(str, p)))
    weight = st.one_of(parts, st.sampled_from(["", "x", "1,,2"]))
    if cmd != "triangulate":
        maybe("--lambda", weight)
        maybe("--mu", weight)
    if cmd not in ("triangulate", "kostka", "klimyk"):
        maybe("--nu", weight)
    if cmd == "count":
        maybe("--method", st.sampled_from(["naive", "barvinok", "both"]))
        maybe("--naive-cap", st.integers(-1, 6))
    if cmd == "kostka":
        maybe("--via", st.sampled_from(["direct", "hive"]))
    if cmd in ("kostka", "klimyk"):
        maybe("--cap", st.integers(-1, 12))
    if cmd == "stretch":
        maybe("--n-max", st.integers(-1, 6))
    if cmd == "triangulate":
        # always --out: without it the file goes to the working directory
        argv += ["--rank", str(draw(st.integers(-2, 3))), "--out", str(out_dir / "out.txt")]
        maybe("--order", st.sampled_from(["default", "natural", "random"]))
    if cmd in ("count", "stretch", "triangulate"):
        maybe("--seed", st.integers(0, 3))
    if cmd == "export":
        maybe("--out", st.just(out_dir / "out.txt"))
        if draw(st.booleans()):
            argv.append("--homogenized")
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@given(data=st.data())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_fuzz_exit_codes_without_traceback(tmp_path, data):
    argv = data.draw(command_lines(tmp_path))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


def test_triangulate_rank2(tmp_path, capsys):
    out_file = tmp_path / "r2.txt"
    code, out, _ = run(capsys, "triangulate", "--rank", "2", "--out", str(out_file))
    assert code == 0
    assert out.startswith("PASS rank=2 cells=1")
    assert out_file.exists()


def test_triangulate_json(tmp_path, capsys):
    out_file = tmp_path / "r3.json.txt"
    code, out, _ = run(
        capsys, "triangulate", "--rank", "3", "--out", str(out_file), "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "triangulate"
    assert doc["unimodular"] is True
    assert doc["cells"] == 7


def test_export_stdout_counts(capsys):
    code, out, _ = run(capsys, "export", "--lambda", "0,0", "--mu", "0,0", "--nu", "0,0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "10 7"
    assert lines[-1].startswith("linearity 7 ")


def test_export_round_trip_count(tmp_path, capsys):
    from hivecount import count_barvinok, read_polytope_file

    path = tmp_path / "hive.poly"
    code, out, _ = run(
        capsys,
        "export", "--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1", "--out", str(path),
    )
    assert code == 0
    poly = read_polytope_file(path)
    assert count_barvinok(poly).value == 2


def test_export_homogenized(tmp_path, capsys):
    path = tmp_path / "ghive.poly"
    code, out, _ = run(
        capsys,
        "export", "--lambda", "1,0", "--mu", "1,0", "--nu", "1,1",
        "--homogenized", "--out", str(path),
    )
    assert code == 0
    text = path.read_text()
    header = text.splitlines()[0].split()
    # rank-2 homogenized system: 10 equalities plus 9 sign rows over 9 columns
    assert header == ["19", "10"]
    assert "linearity 10" in text


def test_unknown_subcommand_raises_system_exit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Every subcommand's stdout, stderr and exit code, in text and --json, and every
# --help, recorded in _cli_golden.json.  "{tmp}" stands for the case's scratch
# directory and timings.total_s is masked.  After an intended change of output,
# record the file again with
#     PYTHONPATH=src python tests/test_cli.py
GOLDEN = Path(__file__).with_name("_cli_golden.json")
BATCH = "# corpus\n2,1 2,1 3,2,1\n4,0 1,1 3,3\n1,0 1,0 1,1\n"
T21 = ["--lambda", "2,1", "--mu", "2,1", "--nu", "3,2,1"]
SUBCOMMANDS = ["count", "nonzero", "kostka", "klimyk", "stretch", "triangulate", "export"]
CLI_CASES = {
    "count": ["count", *T21],
    "count-json": ["count", *T21, "--json"],
    "count-naive-json": ["count", *T21, "--method", "naive", "--json"],
    "count-batch": ["count", "--input-file", "{tmp}/batch.txt"],
    "count-batch-json": ["count", "--input-file", "{tmp}/batch.txt", "--json"],
    "nonzero": ["nonzero", "--lambda", "4,0", "--mu", "1,1", "--nu", "3,3"],
    "nonzero-json": ["nonzero", *T21, "--json"],
    "nonzero-batch": ["nonzero", "--input-file", "{tmp}/batch.txt"],
    "nonzero-batch-json": ["nonzero", "--input-file", "{tmp}/batch.txt", "--json"],
    "kostka": ["kostka", "--lambda", "2,1", "--mu", "1,1,1"],
    "kostka-json": ["kostka", "--lambda", "3,1", "--mu", "1,2,1", "--json"],
    "kostka-hive-json": ["kostka", "--lambda", "3,1", "--mu", "1,2,1", "--via", "hive",
                         "--json"],
    "klimyk": ["klimyk", "--lambda", "2,1", "--mu", "1,1"],
    "klimyk-json": ["klimyk", "--lambda", "2,1", "--mu", "1,1", "--json"],
    "stretch": ["stretch", *T21, "--n-max", "6"],
    "stretch-json": ["stretch", "--lambda", "1,0", "--mu", "1,0", "--nu", "1,1", "--json"],
    "triangulate": ["triangulate", "--rank", "3", "--out", "{tmp}/r3.txt"],
    "triangulate-default-out": ["triangulate", "--rank", "2"],
    "triangulate-witness": ["triangulate", "--rank", "4", "--order", "natural",
                            "--out", "{tmp}/r4.txt"],
    "triangulate-witness-json": ["triangulate", "--rank", "4", "--order", "natural",
                                 "--out", "{tmp}/r4.txt", "--json"],
    "triangulate-random-json": ["triangulate", "--rank", "3", "--order", "random",
                                "--seed", "2", "--out", "{tmp}/r3.txt", "--json"],
    "export": ["export", *T21],
    "export-json-stdout": ["export", *T21, "--json"],
    "export-out": ["export", *T21, "--out", "{tmp}/h.poly"],
    "export-out-json": ["export", *T21, "--out", "{tmp}/h.poly", "--json"],
    "export-homogenized-json": ["export", "--lambda", "1,0", "--mu", "1,0", "--nu", "1,1",
                                "--homogenized", "--out", "{tmp}/g.poly", "--json"],
    "error-bad-weight": ["count", "--lambda", "1,2", "--mu", "1,0", "--nu", "2,2"],
    "error-missing-weight": ["count", "--lambda", "2,1"],
    "error-missing-weight-json": ["nonzero", "--lambda", "2,1", "--json"],
    "error-missing-file": ["count", "--input-file", "{tmp}/none.txt"],
    "error-batch-line": ["nonzero", "--input-file", "{tmp}/bad.txt", "--json"],
    "error-kostka-missing": ["kostka", "--lambda", "2,1"],
    "error-klimyk-missing": ["klimyk", "--mu", "2,1", "--json"],
    "error-fit": ["stretch", *T21, "--n-max", "2"],
    "error-fit-json": ["stretch", *T21, "--n-max", "2", "--json"],
    "error-naive-cap": ["count", *T21, "--method", "naive", "--naive-cap", "0"],
    "error-kostka-cap": ["kostka", "--lambda", "2,1", "--mu", "1,1,1", "--cap", "2"],
    "error-klimyk-cap": ["klimyk", "--lambda", "2,1", "--mu", "1,1", "--cap", "2", "--json"],
    "error-argparse": ["count", *T21, "--method", "exact"],
    "help": ["--help"],
    **{f"help-{cmd}": [cmd, "--help"] for cmd in SUBCOMMANDS},
}


def run_case(argv, tmp):
    """Run one command line in tmp: {"code", "out", "err"}, with tmp written as {tmp}."""
    (tmp / "batch.txt").write_text(BATCH)
    (tmp / "bad.txt").write_text("2,1 2,1\n")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{tmp}", str(tmp)) for arg in argv])
            except SystemExit as exc:  # --help and argparse errors
                code = exc.code
    finally:
        os.chdir(cwd)

    def mask(text):
        text = re.sub(r'"total_s": [-+.e0-9]+', '"total_s": "<masked>"', text)
        return text.replace(str(tmp), "{tmp}")

    return {"code": code, "out": mask(out.getvalue()), "err": mask(err.getvalue())}


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_output_is_pinned(tmp_path, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(CLI_CASES[case], tmp_path) == golden[case]


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    record = {}
    for name, argv in sorted(CLI_CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            record[name] = run_case(argv, Path(tmp))
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
