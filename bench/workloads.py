"""The benchmark workloads: the command line each runs and how its output is checked.

Every check compares the program's output with values from :mod:`oracle`,
which does not import mladder, and returns a list of problems (empty when
the output is correct).  Checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

ALPHAS = (1, 2, 0.5)
ALPHA_FLAGS = [flag for a in ALPHAS for flag in ("--alpha", str(a))]

VERIFY_M, VERIFY_N = (4, 14), (2, 14)
LADDER_M, LADDER_N = 150, 150
LINE_M, LINE_N = 400, 300
# sha256 of `line --m 400 --n 300` at the commit that introduced this
# benchmark; the command line promises byte-identical output.
LINE_SHA256 = "0646bd9b1e5cf9a76967d114854053fd4a938d7690b60d79375ca6a40bc209c7"
HUB_PARAMS = {"vertices": 20000, "background_edges": 40000, "hubs": 16, "hub_degree": 300}

# Why each workload was chosen.  BENCHMARK.json lists verify-grid and
# hubs-mpoly only: on a shared 2-core machine a run needs about 60 s for its
# medians to repeat, and the benchmark's time budget fits two workloads at
# that length.  indices-ladder (the per-edge index sum alone) and line-emit
# (serialisation, the byte-identical output) stay runnable and checked.
WHY = {
    "verify-grid": "the paper's own cross-check on 143 grid points: many small graphs, "
                   "closed forms, edge sums and report rendering",
    "indices-ladder": "one large line graph (133,206 edges, 4 degree pairs): "
                      "the per-edge index sum dominates",
    "line-emit": "a large line graph written out: construction and serialisation, no index work",
    "hubs-mpoly": "a seeded hub graph read from a file: parsing, validation and a line graph "
                  "with hundreds of degree pairs",
}

Check = Callable[[int, bytes], list[str]]


@dataclass(frozen=True)
class Case:
    """One prepared workload: the CLI arguments, the output check, and its inputs."""

    name: str
    argv: list[str]
    check: Check
    params: dict = field(default_factory=dict)


def _rational(value):
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        return Fraction(value["num"], value["den"])
    return value


def _expect_status(status: int, want: int) -> list[str]:
    return [] if status == want else [f"exit code {status}, expected {want}"]


def _parse_json(stdout: bytes):
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]


def _verify_grid_expected() -> list[tuple]:
    """Expected ``(subject, m, n, quantity, computed, claim)`` records, in report order.

    ``claim`` is the stated closed form for theorem subjects and ``None``
    otherwise (proposition claims are checked only for a consistent verdict).
    """
    records = []
    for m in range(VERIFY_M[0], VERIFY_M[1] + 1):
        for n in range(VERIFY_N[0], VERIFY_N[1] + 1):
            base = oracle.ladder_mpoly(m, n)
            claim = oracle.thm31_claim(m, n)
            for i, j in sorted(set(base) | set(claim)):
                records.append(("thm31", m, n, f"x^{i}*y^{j}", Fraction(base.get((i, j), 0)),
                                Fraction(claim.get((i, j), 0))))
            for quantity, value in oracle.indices(base, ALPHAS).items():
                records.append(("prop41", m, n, quantity, value, None))
            if n < 4:
                records.append(("thm32", m, n, "all", None, None))
                records.append(("prop42", m, n, "all", None, None))
                continue
            line = oracle.line_mpoly(m, n)
            for i, j in sorted(line):
                records.append(("thm32", m, n, f"x^{i}*y^{j}", Fraction(line[(i, j)]),
                                Fraction(oracle.thm32_claim(m, n)[(i, j)])))
            for quantity, value in oracle.indices(line, ALPHAS).items():
                records.append(("prop42", m, n, quantity, value, None))
    return sorted(records, key=lambda r: r[:4])


def check_verify_grid(status: int, stdout: bytes) -> list[str]:
    problems = _expect_status(status, 3)
    report, bad = _parse_json(stdout)
    if bad:
        return problems + bad
    expected = _verify_grid_expected()
    if not isinstance(report, list) or len(report) != len(expected):
        return problems + [f"{len(report) if isinstance(report, list) else 'no'} case records, "
                           f"expected {len(expected)}"]
    thm31_mismatch_n = set()
    for rec, (subject, m, n, quantity, computed, claim) in zip(report, expected):
        where = f"{subject} m={m} n={n} {quantity}"
        if (rec.get("subject"), rec.get("m"), rec.get("n"), rec.get("quantity")) != \
                (subject, m, n, quantity):
            problems.append(f"record {rec.get('subject')} m={rec.get('m')} n={rec.get('n')} "
                            f"{rec.get('quantity')} where {where} was expected")
            continue
        got, paper = _rational(rec.get("computed")), _rational(rec.get("closed_form"))
        verdict = rec.get("verdict")
        if computed is None:
            if (got, paper, verdict) != (None, None, "out-of-domain"):
                problems.append(f"{where}: expected an out-of-domain record")
            continue
        if not oracle.same(got, computed):
            problems.append(f"{where}: computed {got!r}, expected {computed!r}")
        if claim is not None and paper != claim:
            problems.append(f"{where}: closed form {paper!r}, expected {claim!r}")
        if paper is None or verdict != ("match" if oracle.same(got, paper) else "mismatch"):
            problems.append(f"{where}: verdict {verdict!r} does not follow from its values")
        if subject == "thm31" and verdict == "mismatch":
            thm31_mismatch_n.add(n)
        if subject == "thm32" and verdict != "match":
            problems.append(f"{where}: in-domain thm32 case does not match")
    if thm31_mismatch_n != {2}:
        problems.append(f"thm31 mismatches at n in {sorted(thm31_mismatch_n)}, expected only n=2")
    return problems


def check_indices_ladder(status: int, stdout: bytes) -> list[str]:
    problems = _expect_status(status, 0)
    payload, bad = _parse_json(stdout)
    if bad:
        return problems + bad
    expected = oracle.indices(oracle.line_mpoly(LADDER_M, LADDER_N), ALPHAS)
    agreement = payload.get("agreement", {})
    if set(agreement) != set(expected) or not all(v is True for v in agreement.values()):
        problems.append(f"agreement is not true for every quantity: {agreement}")
    for route in ("from_edges", "from_mpoly"):
        values = payload.get(route, {})
        for quantity, want in expected.items():
            if quantity.endswith("]"):
                family, label = quantity[:-1].split("[")
                got = values.get(family, {}).get(label)
            else:
                got = values.get(quantity)
            if not oracle.same(_rational(got), want):
                problems.append(f"{route}.{quantity}: {got!r}, expected {want!r}")
    return problems


def check_line_emit(status: int, stdout: bytes) -> list[str]:
    problems = _expect_status(status, 0)
    vertices, edges = (LINE_M - 1) * (2 * LINE_N - 1), (LINE_M - 1) * (6 * LINE_N - 6)
    header = stdout[:stdout.find(b"\n")]
    if header != f"p {vertices} {edges}".encode():
        problems.append(f"header {header[:80]!r}, expected 'p {vertices} {edges}'")
    lines = stdout.count(b"\n")
    if lines != edges + 1 or not stdout.endswith(b"\n"):
        problems.append(f"{lines} lines, expected {edges + 1}")
    if hashlib.sha256(stdout).hexdigest() != LINE_SHA256:
        problems.append("output differs from the recorded byte-identical output")
    return problems


def check_mpoly(expected: dict, status: int, stdout: bytes) -> list[str]:
    problems = _expect_status(status, 0)
    terms, bad = _parse_json(stdout)
    if bad:
        return problems + bad
    want = [{"i": i, "j": j, "num": c, "den": 1} for (i, j), c in expected.items()]
    if terms != want:
        problems.append(f"polynomial differs from the {len(want)} expected terms")
    return problems


def problems(case: Case, status: int, stdout: bytes) -> list[str]:
    """Run ``case``'s check; output too malformed to inspect is itself a problem."""
    try:
        return case.check(status, stdout)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def prepare(name: str, seed: int, outdir: Path) -> Case:
    """Build the inputs of workload ``name`` for ``seed`` (files go into ``outdir``)."""
    if name == "verify-grid":
        return Case(name, ["verify", "--m-range", "%d:%d" % VERIFY_M, "--n-range", "%d:%d" % VERIFY_N,
                           *ALPHA_FLAGS, "--format", "json"], check_verify_grid)
    if name == "indices-ladder":
        return Case(name, ["indices", "--m", str(LADDER_M), "--n", str(LADDER_N), "--line",
                           *ALPHA_FLAGS, "--format", "json"], check_indices_ladder)
    if name == "line-emit":
        return Case(name, ["line", "--m", str(LINE_M), "--n", str(LINE_N)], check_line_emit)
    if name == "hubs-mpoly":
        edges = oracle.hub_graph(seed, **HUB_PARAMS)
        path = outdir / f"hubs-{seed}.edgelist"
        lines = [f"p {HUB_PARAMS['vertices']} {len(edges)}"] + [f"{u} {v}" for u, v in edges]
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        expected = oracle.line_mpoly_of(HUB_PARAMS["vertices"], edges)
        return Case(name, ["mpoly", "--from-file", str(path), "--line", "--format", "json"],
                    lambda status, stdout: check_mpoly(expected, status, stdout),
                    {"generator": "oracle.hub_graph", "seed": seed, **HUB_PARAMS})
    raise ValueError(f"unknown workload {name!r}; expected one of {sorted(WHY)}")
