"""Byte-identical CLI output over a fixed set of invocations.

Each case pins the exit status and the sha256 of everything ``main()``
writes to stdout, recorded before the edge-sum route, the verify grid
loop and the graph constructor were reworked for speed.  A refactor that
changes any byte of these outputs fails here.
"""

import hashlib

import pytest

from mladder.cli import main

GOLDENS = [
    (["verify"], 3,
     "e713268a1f13df781a7a7f0de73763007ed41fe6fff89d1068f5a9a94d10e40c"),
    (["verify", "--m-range", "4:14", "--n-range", "2:14",
      "--alpha", "1", "--alpha", "2", "--alpha", "0.5", "--format", "json"], 3,
     "3661adaba135072dbf15e21cb5fa872a48daa217a93cf3a59d8e710c6e5cafc8"),
    (["indices", "--m", "30", "--n", "7", "--line",
      "--alpha", "-1.5", "--alpha", "0.25", "--alpha", "3", "--format", "json"], 0,
     "4fd21d24ebbb4d89ee11278f62ae5a0d1e3f49609c1815b65191939bbbf06ba8"),
    (["mpoly", "--m", "9", "--n", "6", "--line", "--format", "latex"], 0,
     "d643dfa5fe164b22d96f655e26d3749f432b496aa835d31e489d18842c9e2b64"),
    (["line", "--m", "12", "--n", "5"], 0,
     "2b0e488cefd65e3f07beffdcc6a2deaae202ef4f3141b8236e26279420a5e97b"),
    (["gen", "--m", "7", "--n", "5", "--format", "json"], 0,
     "e8fa606a0c762a789d53c60227de943ba39f929b0a0719b84de4b2fc43b38af3"),
]


@pytest.mark.parametrize("argv,status,digest", GOLDENS, ids=[" ".join(g[0]) for g in GOLDENS])
def test_golden_output(capsys, argv, status, digest):
    assert main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
