import json
import subprocess
import sys

import pytest

from mladder import build_ladder
from mladder.cli import main


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


def test_from_file_excludes_size_flags(tmp_path):
    target = tmp_path / "ladder.txt"
    target.write_text(build_ladder(4, 2).to_edgelist(), encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["mpoly", "--from-file", str(target), "--m", "4"])
    assert exc.value.code == 2


def test_indices_json(capsys):
    assert main(["indices", "--m", "7", "--n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["from_edges"]["m1"] == {"num": 204, "den": 1}
    assert data["from_mpoly"]["mm2"] == {"num": 65, "den": 24}
    assert all(data["agreement"].values())


def test_indices_alpha_flags(capsys):
    assert main(["indices", "--m", "5", "--n", "4",
                 "--alpha", "0.5", "--alpha", "2", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data["from_edges"]["r_alpha"]) == {"0.5", "2"}
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


def test_invalid_params_exit_2(capsys):
    assert main(["gen", "--m", "3", "--n", "5"]) == 2
    assert "error" in capsys.readouterr().err


def test_missing_input_file_exit_1(capsys):
    assert main(["mpoly", "--from-file", "/no/such/file"]) == 1
    assert "/no/such/file" in capsys.readouterr().err


def test_malformed_input_file_exit_2(tmp_path, capsys):
    target = tmp_path / "bad.txt"
    target.write_text("not an edge list\n", encoding="ascii")
    assert main(["mpoly", "--from-file", str(target)]) == 2


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


@pytest.mark.parametrize("command", [["indices", "--m", "5", "--n", "3"], ["verify"]])
@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "NaN", "1e400"])
def test_non_finite_alpha_exit_2(capsys, command, alpha):
    with pytest.raises(SystemExit) as exc:
        main([*command, f"--alpha={alpha}"])
    assert exc.value.code == 2
    assert "alpha must be finite" in capsys.readouterr().err


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
    assert "expected a number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["indices", "--m", "5", "--n", "3", "--alpha=400.5"],
    ["indices", "--m", "5", "--n", "3", "--alpha=-400.5"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=400.5"],
    # Each term is finite but their float sum is not.
    ["indices", "--m", "5", "--n", "3", "--alpha=255.9"],
    ["indices", "--m", "5", "--n", "3", "--alpha=255.9", "--format", "json"],
    ["verify", "--subject", "props", "--m-range", "4:4", "--n-range", "3:3", "--alpha=-255.9"],
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
