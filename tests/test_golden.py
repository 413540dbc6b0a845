"""Byte-identical CLI output over a fixed set of invocations.

Each case pins the exit status and the sha256 of everything ``main()``
writes to stdout.  The first six were recorded before the edge-sum route,
the verify grid loop and the graph constructor were reworked for speed;
the next two, text tables of ``indices`` and ``verify``, before both
tables were rendered by one shared helper; the last three, ``--line`` on
the irregular graph in ``data/irregular.edgelist`` (a hub of degree 22,
pendant edges, isolated vertices, 18 degree pairs in its line graph),
before ``mpoly --line`` stopped building the line graph.  A refactor that
changes any byte of these outputs fails here.  The five with a
non-integer alpha were re-recorded once, when each index route came to
sum its float terms with ``math.fsum``: only the last digits of some
floats changed, each new value within 1.03 ulp of a 50-digit sum.  The
last, ``indices`` on the irregular graph at alphas 0, -2, -0.5 and 1.5, was
recorded before each index route came to read M2, MM2, R_alpha and
RR_alpha from one Randic rule.  Two more pin what a shell step of CI
checked before: the line graph of ``M_{400,300}``, whose digest is the
benchmark's ``LINE_SHA256`` (``bench/workloads.py``), and ``indices
--line`` on the irregular graph at alphas -2, 0, 3 and 0.5, recorded with
every row of its agreement true.
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
     "a8a6d2afa37de2002295166f1e0570a2db106ef008ada676c93de09be201bc6d"),
    (["indices", "--m", "30", "--n", "7", "--line",
      "--alpha", "-1.5", "--alpha", "0.25", "--alpha", "3", "--format", "json"], 0,
     "63f412e5e3f4460c7a9daba8e6401512ad436fc30fe429e5d77e91d93c55c63a"),
    (["mpoly", "--m", "9", "--n", "6", "--line", "--format", "latex"], 0,
     "d643dfa5fe164b22d96f655e26d3749f432b496aa835d31e489d18842c9e2b64"),
    (["line", "--m", "12", "--n", "5"], 0,
     "2b0e488cefd65e3f07beffdcc6a2deaae202ef4f3141b8236e26279420a5e97b"),
    (["gen", "--m", "7", "--n", "5", "--format", "json"], 0,
     "e8fa606a0c762a789d53c60227de943ba39f929b0a0719b84de4b2fc43b38af3"),
    (["indices", "--m", "7", "--n", "3", "--alpha", "0.5", "--alpha", "2", "--alpha", "-1"], 0,
     "60077dbf644193db9f1c24335737e68506d34bbccaeb3642953eb8e3ad53389e"),
    (["verify", "--subject", "props", "--m-range", "4:6", "--n-range", "2:5",
      "--alpha", "0.5"], 0,
     "c8e0483bc3bb7810f67fca5b25ffd051756668a4ff436c68cc4a36c199d566a7"),
    (["mpoly", "--from-file", IRREGULAR, "--line", "--format", "json"], 0,
     "309a63754ddda040344bfb3b7c11d263ab30d463b0ca99829b128b0b18ddc78e"),
    (["mpoly", "--from-file", IRREGULAR, "--line", "--format", "text"], 0,
     "314df13a10aab8e6033a5a31565f502fb74a54bab960744a74526945538889a6"),
    (["indices", "--from-file", IRREGULAR, "--line", "--alpha", "0.5", "--alpha", "2",
      "--format", "json"], 0,
     "f6119c1ca9e9a4e0194a1e5062b48c4120b0662f8eaeaaec2f3897b615d8a2b2"),
    (["indices", "--from-file", IRREGULAR, "--alpha", "0", "--alpha=-2", "--alpha=-0.5",
      "--alpha", "1.5", "--format", "json"], 0,
     "e33a1da2bfd94d8b4b829fcda36a65adf0205616ab0ad946e3ff3cbe73640eeb"),
    (["line", "--m", "400", "--n", "300"], 0,
     "0646bd9b1e5cf9a76967d114854053fd4a938d7690b60d79375ca6a40bc209c7"),
    (["indices", "--from-file", IRREGULAR, "--line", "--alpha=-2", "--alpha", "0", "--alpha", "3",
      "--alpha", "0.5", "--format", "json"], 0,
     "29ebfc6fe083e294dc5766560a4c48540f9ec56cf0f23d8b297784ab575822ba"),
]


@pytest.mark.parametrize("argv,status,digest", GOLDENS,
                         ids=[" ".join(g[0]).replace(IRREGULAR, "irregular.edgelist")
                              for g in GOLDENS])
def test_golden_output(capsys, argv, status, digest):
    assert main(argv) == status
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest
