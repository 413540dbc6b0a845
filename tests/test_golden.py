"""Byte-identical CLI output over a fixed set of invocations.

Each case pins the exit status and the sha256 of everything ``main()``
writes to stdout.  The first six were recorded before the edge-sum route,
the verify grid loop and the graph constructor were reworked for speed;
the next two, text tables of ``indices`` and ``verify``, before both
tables were rendered by one shared helper; the last three, ``--line`` on
the irregular graph in ``data/irregular.edgelist`` (a hub of degree 22,
pendant edges, isolated vertices, 18 degree pairs in its line graph),
before ``mpoly --line`` stopped building the line graph.  A refactor that
changes any byte of these outputs fails here.
"""

import hashlib
from pathlib import Path

import pytest

from mladder.cli import main

IRREGULAR = str(Path(__file__).parent / "data" / "irregular.edgelist")

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
    (["indices", "--m", "7", "--n", "3", "--alpha", "0.5", "--alpha", "2", "--alpha", "-1"], 0,
     "74d72f7e12a6c3e6f25fc5acee1c1a601fac5c66a0e0559d1d43ea51470bf6b8"),
    (["verify", "--subject", "props", "--m-range", "4:6", "--n-range", "2:5",
      "--alpha", "0.5"], 0,
     "357aa2c0748a112835ba2b84db18f5995ac10fb185fb5805396f0ffb87ebabcc"),
    (["mpoly", "--from-file", IRREGULAR, "--line", "--format", "json"], 0,
     "309a63754ddda040344bfb3b7c11d263ab30d463b0ca99829b128b0b18ddc78e"),
    (["mpoly", "--from-file", IRREGULAR, "--line", "--format", "text"], 0,
     "314df13a10aab8e6033a5a31565f502fb74a54bab960744a74526945538889a6"),
    (["indices", "--from-file", IRREGULAR, "--line", "--alpha", "0.5", "--alpha", "2",
      "--format", "json"], 0,
     "606e34d8777738906bdd6233f1427edc182b37803d6487e5c952ca32467646f6"),
]


@pytest.mark.parametrize("argv,status,digest", GOLDENS,
                         ids=[" ".join(g[0]).replace(IRREGULAR, "irregular.edgelist")
                              for g in GOLDENS])
def test_golden_output(capsys, argv, status, digest):
    assert main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
