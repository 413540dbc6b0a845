import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mladder.graph
from mladder import Graph, build_ladder, cli
from mladder.cli import main

from conftest import star_graph
from test_equivalence import edgelist_texts


def test_gen_edgelist(capsys):
    assert main(["gen", "--m", "4", "--n", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "p 6 9"
    assert len(lines) == 10
    assert out.endswith("\n")


def test_gen_json(capsys):
    assert main(["gen", "--m", "4", "--n", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex_count"] == 6
    assert data["edge_count"] == 9
    assert len(data["edges"]) == 9


def test_line_counts(capsys):
    assert main(["line", "--m", "5", "--n", "6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["vertex_count"] == 44
    assert data["edge_count"] == 120


def test_mpoly_text(capsys):
    assert main(["mpoly", "--m", "7", "--n", "3"]) == 0
    assert capsys.readouterr().out == "12*x^3*y^3+12*x^3*y^4+6*x^4*y^4\n"


def test_mpoly_latex(capsys):
    assert main(["mpoly", "--m", "7", "--n", "3", "--format", "latex"]) == 0
    assert capsys.readouterr().out == "12x^{3}y^{3}+12x^{3}y^{4}+6x^{4}y^{4}\n"


def test_mpoly_of_line_graph(capsys):
    assert main(["mpoly", "--m", "5", "--n", "6", "--line", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == [
        {"i": 4, "j": 4, "num": 8, "den": 1},
        {"i": 4, "j": 5, "num": 16, "den": 1},
        {"i": 5, "j": 6, "num": 24, "den": 1},
        {"i": 6, "j": 6, "num": 72, "den": 1},
    ]


def test_mpoly_from_file(tmp_path, capsys):
    target = tmp_path / "ladder.txt"
    target.write_text(build_ladder(6, 4).to_edgelist(), encoding="ascii")
    assert main(["mpoly", "--from-file", str(target)]) == 0
    from_file = capsys.readouterr().out
    assert main(["mpoly", "--m", "6", "--n", "4"]) == 0
    assert from_file == capsys.readouterr().out
    # The M-polynomial of the emitted line graph is the direct line tally's.
    assert main(["line", "--m", "9", "--n", "6", "--out", str(target)]) == 0
    assert main(["mpoly", "--from-file", str(target), "--format", "json"]) == 0
    from_file = capsys.readouterr().out
    assert main(["mpoly", "--m", "9", "--n", "6", "--line", "--format", "json"]) == 0
    assert from_file == capsys.readouterr().out


def test_from_file_excludes_size_flags(tmp_path):
    target = tmp_path / "ladder.txt"
    target.write_text(build_ladder(4, 2).to_edgelist(), encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["mpoly", "--from-file", str(target), "--m", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv,message", [
    (["gen", "--m", "5"], "gen: --m and --n are required"),
    (["line"], "line: --m and --n are required"),
    (["mpoly", "--n", "3"], "mpoly: --m and --n are required (or --from-file)"),
    (["indices", "--line"], "indices: --m and --n are required (or --from-file)"),
])
def test_missing_graph_source_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"mladder: error: {message}"


@pytest.mark.parametrize("command,flags", [
    ("gen", "--help --out --m --n --format"),
    ("line", "--help --out --m --n --format"),
    ("mpoly", "--help --out --m --n --line --from-file --format"),
    ("indices", "--help --out --m --n --line --from-file --alpha --format"),
    ("verify", "--help --out --subject --m-range --n-range --alpha --format"),
])
def test_help_lists_each_flag_family_in_order(capsys, command, flags):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    # Only the option names, so the terminal width cannot move them.
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    assert re.findall(r"(?<!\S)--[a-z-]+", options) == flags.split()
    assert command != "verify" or "--subject {thm31,thm32,props,all}" in options


def test_indices_json(capsys):
    assert main(["indices", "--m", "7", "--n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["from_edges"]["m1"] == {"num": 204, "den": 1}
    assert data["from_mpoly"]["mm2"] == {"num": 65, "den": 24}
    assert all(data["agreement"].values())


def test_indices_alpha_flags(capsys):
    # Randic keys follow the normalized alphas, each once, first occurrence first.
    assert main(["indices", "--m", "5", "--n", "4",
                 "--alpha", "2", "--alpha", "2.0", "--alpha", "0.5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["from_edges"]["r_alpha"]) == ["2", "0.5"]
    assert all(data["agreement"].values())


def test_indices_text_table(capsys):
    assert main(["indices", "--m", "7", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["quantity", "edges", "mpoly", "agree"]
    assert all(line.split()[-1] == "yes" for line in lines[1:])


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.txt"
    assert main(["gen", "--m", "4", "--n", "2", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["gen", "--m", "4", "--n", "2"]) == 0
    assert target.read_text(encoding="ascii") == capsys.readouterr().out


@pytest.mark.parametrize("target,reason", [
    ("", "Is a directory"),
    ("dir", "Is a directory"),
    ("missing/x", "No such file or directory"),
    ("missing/deep/x", "No such file or directory"),
    ("missing/", "Is a directory"),
    ("file/x", "Not a directory"),
    ("file/deep/x", "Not a directory"),
    ("file/", "Is a directory"),
])
def test_out_failure_exit_1(tmp_path, capsys, target, reason):
    # The check before the command reports the error open() gives the path.
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("keep", encoding="ascii")
    out = os.path.join(tmp_path, target)
    with pytest.raises(OSError) as opened:
        open(out, "wb")
    assert opened.value.strerror == reason
    assert main(["gen", "--m", "5", "--n", "3", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mladder gen: error: {out}: {reason}\n"
    assert (tmp_path / "file").read_text(encoding="ascii") == "keep"


@pytest.mark.parametrize("argv", [["gen", "--m", "3", "--n", "3"], ["gen", "--m", "5"]],
                         ids=["invalid-params", "missing-params"])
def test_bad_out_takes_precedence_over_bad_params(tmp_path, capsys, argv):
    # --out is checked before the command checks its parameters: exit 1, not 2.
    out = tmp_path / "missing" / "x"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mladder gen: error: {out}: No such file or directory\n"


@pytest.mark.parametrize("argv", [["gen", "--m", "4", "--n", "2"], ["gen", "--m", "3", "--n", "3"],
                                  ["gen", "--m", "5"]],
                         ids=["valid-params", "invalid-params", "missing-params"])
def test_empty_out_exit_1(capsys, argv):
    # An empty --out is a path that cannot be opened, not stdout, and is
    # refused before the command checks its parameters.
    assert main([*argv, "--out", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mladder gen: error: : No such file or directory\n"


def test_unwritable_out_fails_before_the_command(tmp_path, monkeypatch, capsys):
    def build_ladder(m, n):
        raise AssertionError("the command ran")

    monkeypatch.setattr("mladder.verify.build_ladder", build_ladder)
    out = tmp_path / "missing" / "x"
    assert main(["verify", "--m-range", "4:30", "--n-range", "2:30", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mladder verify: error: {out}: No such file or directory\n"


def test_long_out_name_fails_before_the_command(tmp_path, monkeypatch, capsys):
    def build_ladder(m, n):
        raise AssertionError("the command ran")

    monkeypatch.setattr("mladder.cli.build_ladder", build_ladder)
    out = tmp_path / ("x" * 300)
    assert main(["gen", "--m", "50", "--n", "50", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"mladder gen: error: {out}: File name too long\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_out_check_opens_nothing(tmp_path):
    # Opening a FIFO that has no reader for writing blocks, so a check that
    # opened --out would hang this failing command until the timeout.
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    proc = subprocess.run([sys.executable, "-m", "mladder.cli", "gen", "--m", "3", "--n", "3",
                           "--out", str(fifo)], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2 and "error:" in proc.stderr


def test_failed_command_leaves_out_untouched(tmp_path):
    # --out is opened only after the command has succeeded.
    target = tmp_path / "old.txt"
    target.write_text("keep", encoding="ascii")
    assert main(["gen", "--m", "3", "--n", "3", "--out", str(target)]) == 2
    assert target.read_text(encoding="ascii") == "keep"


def test_stdout_closed_early_exit_1():
    # The edge list of M_{100,100} (192,606 bytes) does not fit in a pipe buffer.
    proc = subprocess.Popen([sys.executable, "-m", "mladder.cli", "gen", "--m", "100", "--n", "100"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b"mladder gen: error: <stdout>: Broken pipe\n"


def test_stdout_closed_mid_write_unbuffered_exit_1():
    # Unbuffered, stdout is a raw stream, whose write may take only part of
    # the 6.6 MB edge list of M_{1000,300} before the reader leaves.
    proc = subprocess.Popen([sys.executable, "-m", "mladder.cli", "gen", "--m", "1000", "--n", "300"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONUNBUFFERED="1"))
    proc.stdout.read(1)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b"mladder gen: error: <stdout>: Broken pipe\n"


@pytest.mark.parametrize("header,argv,message", [
    ("p 100000000000 0\n", ["mpoly"], "vertex_count 100000000000 exceeds the limit of 10000000"),
    (None, ["gen", "--m", "100000", "--n", "100000"], "(m-1)*(2n-1) = 19999700001 edges"),
    ("p 10000001 0\n", ["mpoly"], "vertex_count 10000001 exceeds the limit of 10000000"),
])
def test_vertex_count_past_the_limit_exit_2(tmp_path, capsys, header, argv, message):
    # Refused before anything of that size is allocated: not a hang or a MemoryError.
    if header is not None:
        (tmp_path / "big.edgelist").write_text(header, encoding="ascii")
        argv = argv + ["--from-file", str(tmp_path / "big.edgelist")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err.splitlines()[0]
    assert captured.err.count("error:") == 1


@pytest.mark.parametrize("argv,message", [
    (["gen", "--m", "100001", "--n", "100"],
     "mladder gen: error: M_{m,n} has (m-1)*(2n-1) = 19900000 edges, more than the limit of "
     "10000000 (m=100001, n=100)"),
    (["indices", "--line", "--from-file", "star.edgelist"],
     "mladder indices: error: the line graph has 12497500 edges, more than the limit of 10000000"),
    (["mpoly", "--from-file", "many.edgelist"],
     "mladder mpoly: error: the header declares 10000001 edges, more than the limit of 10000000"),
], ids=["ladder", "line-of-star", "header"])
def test_edge_count_past_the_limit_exit_2(tmp_path, monkeypatch, capsys, argv, message):
    # Within the vertex limit, but refused before the edges are allocated.
    monkeypatch.chdir(tmp_path)
    Path("star.edgelist").write_text(star_graph(5000).to_edgelist(), encoding="ascii")
    Path("many.edgelist").write_text("p 10 10000001\n", encoding="ascii")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines()[0] == message
    assert captured.err.count("error:") == 1


def test_edge_list_past_the_edge_limit_exit_2(tmp_path, monkeypatch, capsys):
    # At a lowered limit of 9, K5's 10 edges are refused whether the file is
    # canonical or CRLF text with + ids.
    canonical = Graph(5, list(combinations(range(5), 2))).to_edgelist()
    header, *lines = canonical.splitlines()
    monkeypatch.setattr(mladder.graph, "MAX_SIZE", 9)
    for name, text in (("canonical", canonical),
                       ("messy", "\r\n".join([header] + ["+" + line for line in lines]))):
        path = tmp_path / f"{name}.edgelist"
        path.write_bytes(text.encode("ascii"))
        assert main(["mpoly", "--from-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "mladder mpoly: error: the header declares 10 edges, more than the limit of 9\n")


def test_invalid_params_exit_2(capsys):
    assert main(["gen", "--m", "3", "--n", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_input_file_exit_1(capsys):
    assert main(["mpoly", "--from-file", "/no/such/file"]) == 1
    assert "/no/such/file" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
@pytest.mark.parametrize("out", [[], ["--out", "never-written.txt"]])
def test_input_read_error_names_the_input(tmp_path, monkeypatch, capsys, out):
    # /proc/self/mem opens, but reading offset 0 fails, and the error carries no path.
    monkeypatch.chdir(tmp_path)
    assert main(["mpoly", "--from-file", "/proc/self/mem", *out]) == 1
    assert capsys.readouterr().err.startswith("mladder mpoly: error: /proc/self/mem: ")
    assert not (tmp_path / "never-written.txt").exists()


@pytest.mark.parametrize("out", [[], ["--out", "never-written.txt"]])
def test_empty_input_path_names_itself(tmp_path, monkeypatch, capsys, out):
    # The error names the empty input path, neither <stdout> nor the --out path.
    monkeypatch.chdir(tmp_path)
    assert main(["mpoly", "--from-file", "", *out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "mladder mpoly: error: : No such file or directory\n"
    assert not (tmp_path / "never-written.txt").exists()


def test_malformed_input_file_exit_2(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("not an edge list\n", encoding="ascii")
    assert main(["mpoly", "--from-file", str(target)]) == 2


def test_non_ascii_input_file_exit_2_names_the_file(tmp_path, capsys):
    target = tmp_path / "accent.edgelist"
    target.write_bytes(b"p 2 1\n0 1\xc3\xa9\n")
    assert main(["mpoly", "--from-file", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"mladder mpoly: error: {target}: 'ascii' codec can't decode byte 0xc3 "
                            "in position 9: ordinal not in range(128)\n")


def test_verify_theorem_mismatch_exit_3(capsys):
    assert main(["verify", "--subject", "thm31",
                 "--m-range", "4:4", "--n-range", "2:2"]) == 3
    assert "mismatch" in capsys.readouterr().out


def test_verify_props_mismatches_exit_0(capsys):
    assert main(["verify", "--subject", "props",
                 "--m-range", "7:7", "--n-range", "3:3"]) == 0
    assert "mismatch" in capsys.readouterr().out


def test_verify_clean_grid_exit_0(capsys):
    assert main(["verify", "--subject", "thm31",
                 "--m-range", "4:6", "--n-range", "3:5"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatch" in out


def test_verify_bad_range_syntax():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m-range", "4-6"])
    assert exc.value.code == 2


def test_verify_empty_range_exit_2(capsys):
    assert main(["verify", "--m-range", "6:4"]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert errors == ["mladder verify: error: empty range: m (6, 4), n (2, 10)"]


@pytest.mark.parametrize("argv", [["--m-range", "4:4", "--n-range", "2:3000000"],
                                  ["--m-range", "4:100000", "--n-range", "4:4"]])
def test_over_budget_grid_exit_2_before_any_build(monkeypatch, capsys, argv):
    def build_ladder(m, n):
        raise AssertionError("a grid point was built")

    monkeypatch.setattr("mladder.verify.build_ladder", build_ladder)
    assert main(["verify", *argv]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "edges in all, more than the limit of 10000000" in errors[0]


def test_verify_range_below_domain_exit_2(capsys):
    assert main(["verify", "--subject", "thm31",
                 "--m-range", "2:5", "--n-range", "3:5"]) == 2


def test_verify_output_is_deterministic(capsys):
    argv = ["verify", "--subject", "props", "--m-range", "4:6",
            "--n-range", "2:6", "--alpha", "0.5", "--format", "json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mladder.cli", "verify", "--subject", "thm32",
         "--m-range", "4:5", "--n-range", "4:5"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "thm32" in proc.stdout


# The last command makes no Randic rows, and still refuses the alpha.
@pytest.mark.parametrize("command", [["indices", "--m", "5", "--n", "3"], ["verify"],
                                     ["verify", "--subject", "thm31"]])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_non_finite_alpha_exit_2(capsys, command, alpha):
    assert main([*command, f"--alpha={alpha}"]) == 2
    err = capsys.readouterr().err
    assert "alpha must be finite" in err and err.count("error:") == 1


def test_negative_alpha_equals_form(capsys):
    # argparse takes "-1e-3" after a separate "--alpha" for an option; the
    # "--alpha=VALUE" form always reaches the alpha parser.
    assert main(["indices", "--m", "5", "--n", "3", "--alpha=-1e-3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["from_edges"]["r_alpha"]) == {"-0.001"}
    assert all(data["agreement"].values())


def test_non_numeric_alpha_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["indices", "--m", "5", "--n", "3", "--alpha", "x"])
    assert exc.value.code == 2
    assert "invalid float value" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["indices", "--m", "5", "--n", "3", "--alpha=400.5"],
    ["indices", "--m", "5", "--n", "3", "--alpha=-400.5"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=400.5"],
    # Each term is finite but their float sum is not.
    ["indices", "--m", "5", "--n", "3", "--alpha=255.9"],
    ["indices", "--m", "5", "--n", "3", "--alpha=255.9", "--format", "json"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=-255.9"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=-255.9",
     "--format", "json"],
])
def test_float_overflow_exit_2(argv):
    proc = subprocess.run([sys.executable, "-m", "mladder.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        f"mladder {argv[0]}: error: a Randic term overflows float arithmetic; "
        "use a smaller |alpha|"
    ]
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["indices", "--m", "5", "--n", "3", "--alpha", "1e4"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha", "1e4"],
    ["indices", "--m", "5", "--n", "3", "--alpha=1e9"],
    ["indices", "--m", "5", "--n", "4", "--line", "--alpha=-1e4"],
    # The line graph's products pass; the closed form's M2 = 81000 does not.
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "4:4", "--alpha", "1000"],
])
def test_huge_integral_alpha_exit_2(argv):
    # Refused before any exact power is computed, so even 1e9 returns at once.
    proc = subprocess.run([sys.executable, "-m", "mladder.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    alpha = int(float(argv[-1].removeprefix("--alpha=")))
    assert proc.stderr.startswith(f"mladder {argv[0]}: error: alpha {alpha} is too large")
    assert f"over the limit of {sys.get_int_max_str_digits() or 4300} digits" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["indices", "--m", "5", "--n", "3", "--alpha", "1e308"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=-1e308"],
])
def test_integral_alpha_past_float_range_names_the_limit(argv):
    # Its digit bound overflows float arithmetic; the message gives the limit, not "inf".
    proc = subprocess.run([sys.executable, "-m", "mladder.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.endswith(f"would have more than the limit of "
                                f"{sys.get_int_max_str_digits() or 4300} digits for printing an integer\n")
    assert "inf" not in proc.stderr and len(proc.stderr.splitlines()) == 1


def test_import_leaves_out_dataclasses_and_inspect():
    # The result types are NamedTuples, so a fresh CLI process imports neither.
    code = "import sys, mladder.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_largest_printable_integral_alpha_still_exact(capsys):
    # 1990 * log10(144) is about 4290 digits: just under the default limit.
    assert main(["indices", "--m", "5", "--n", "3", "--alpha", "1990", "--format", "json"]) == 0
    assert all(json.loads(capsys.readouterr().out)["agreement"].values())


def test_main_runs_without_automatic_collection():
    # A run's objects form no cycles, so the collector would only scan them.
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        assert main(["mpoly", "--m", "60", "--n", "60", "--line"]) == 0
    finally:
        gc.callbacks.remove(record)
    assert starts == []


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv,status", [
    (["gen", "--m", "5", "--n", "3"], 0),
    (["gen", "--m", "5", "--n", "3", "--out", "missing/x"], 1),
    (["gen", "--m", "3", "--n", "3"], 2),
    (["verify", "--subject", "thm31", "--m-range", "4:4", "--n-range", "2:2"], 3),
    (["gen", "--m", "5"], SystemExit),
    (["gen", "--no-such-flag"], SystemExit),
], ids=["status-0", "status-1", "status-2", "status-3", "usage-error", "argparse-error"])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, capsys, enabled, argv, status):
    # main neither leaves the collector switched nor freezes the heap.
    monkeypatch.chdir(tmp_path)
    restore = gc.enable if gc.isenabled() else gc.disable
    (gc.enable if enabled else gc.disable)()
    frozen = gc.get_freeze_count()
    try:
        if status is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == status
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        restore()


def test_run_freezes_the_heap_after_main_and_exits_with_its_status(monkeypatch):
    seen = []

    def fake_main():
        seen.append(gc.get_freeze_count())
        return 3

    monkeypatch.setattr(cli, "main", fake_main)
    frozen = gc.get_freeze_count()
    try:
        with pytest.raises(SystemExit) as exc:
            cli.run()
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()
    assert seen == [frozen]
    assert exc.value.code == 3


@given(edgelist_texts())
def test_edgelist_files_give_a_result_or_one_error_line(tmp_path_factory, text):
    # Any edge-list text: exit 0 with JSON, or exit 2 with one error line; never a traceback.
    path = tmp_path_factory.getbasetemp() / "property.edgelist"
    path.write_text(text, encoding="ascii")
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["mpoly", "--from-file", str(path), "--line", "--format", "json"])
    assert status in (0, 2)
    if status == 0:
        assert err.getvalue() == ""
        assert isinstance(json.loads(out.buffer.getvalue()), list)
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("mladder mpoly: error: "), lines
        assert out.buffer.getvalue() == b""


FIXTURE = Path(__file__).resolve().parent / "data" / "irregular.edgelist"
FORMATS = {"gen": ["edgelist", "json"], "line": ["edgelist", "json"], "mpoly": ["text", "json", "latex"],
           "indices": ["text", "json"], "verify": ["text", "json"]}


@st.composite
def argvs(draw, tmp):
    """Argv of a real subcommand and its real flags, every size small: a
    ladder of m, n <= 12, a grid inside 4:8 x 2:8, the fixture, a missing
    file or an empty path, and --out under ``tmp`` or empty."""
    command = draw(st.sampled_from(sorted(FORMATS)))
    argv = [command]

    def maybe(flag, values, chance=st.booleans()):
        if draw(chance):
            argv.extend([flag, draw(values)])

    often, seldom = st.integers(0, 5).map(bool), st.integers(0, 3).map(lambda k: k == 0)

    if command == "verify":
        maybe("--subject", st.sampled_from(["thm31", "thm32", "props", "all"]))
        for flag, lo in (("--m-range", 4), ("--n-range", 2)):
            argv += [flag, f"{draw(st.integers(lo, 8))}:{draw(st.integers(lo, 8))}"]
    else:
        maybe("--m", st.integers(-1, 12).map(str), often)
        maybe("--n", st.integers(-1, 12).map(str), often)
    if command in ("mpoly", "indices"):
        if draw(st.booleans()):
            argv.append("--line")
        maybe("--from-file", st.sampled_from([str(FIXTURE), str(tmp / "missing.edgelist"), ""]), seldom)
    if command in ("indices", "verify"):
        for alpha in draw(st.lists(st.sampled_from(["nan", "1e4", "-0.5", "0", "2", "0.5", "x"]),
                                   max_size=2)):
            argv += draw(st.sampled_from([[f"--alpha={alpha}"], ["--alpha", alpha]]))
    maybe("--format", st.sampled_from(FORMATS[command]))
    maybe("--out", st.sampled_from([str(tmp / "out.txt"), str(tmp / "missing" / "out.txt"), str(tmp), ""]),
          seldom)
    return argv


@settings(deadline=None)
@given(st.data())
def test_any_argv_gives_a_status_or_a_usage_error(tmp_path_factory, data):
    # A status 0-3 or argparse's exit 2, never another exception, and at most one error line.
    argv = data.draw(argvs(tmp_path_factory.getbasetemp()))
    out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
            assert status == 2
    assert status in (0, 1, 2, 3)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1, err.getvalue()
