"""The output checks accept each workload's real output and reject corrupted copies."""

import json

import pytest

import run
import workloads


@pytest.fixture(scope="module")
def real():
    """Each workload's prepared case and one real invocation of it."""
    run.OUT.mkdir(exist_ok=True)
    env = run.child_env()
    outputs = {}
    for name in workloads.WHY:
        case = workloads.prepare(name, 7, run.OUT)
        sample = run.spawn(["-m", "mladder.cli", *case.argv], env)
        outputs[name] = (case, sample.status, sample.stdout)
    return outputs


def edit_json(edit):
    def corrupt(status, stdout):
        data = json.loads(stdout)
        edit(data)
        return status, json.dumps(data, indent=2).encode() + b"\n"
    return corrupt


def first(records, **match):
    return next(r for r in records if all(r[k] == v for k, v in match.items()))


def lie_about_prop41_m1(records):
    # Internally consistent, but not the value the ladder has.
    rec = first(records, subject="prop41", quantity="m1")
    rec["computed"]["num"] += 1
    rec["closed_form"] = rec["computed"]
    rec["verdict"] = "match"


def scale(value):
    return value * (1 + 1e-9)


def perturb_float(records):
    rec = first(records, subject="prop42", quantity="r_alpha[0.5]")
    rec["computed"] = scale(rec["computed"])


def mismatch_thm31_at_n3(records):
    rec = first(records, subject="thm31", n=3)
    rec["closed_form"]["num"] += 1
    rec["verdict"] = "mismatch"


def fail_thm32(records):
    rec = first(records, subject="thm32", verdict="match")
    rec["closed_form"]["num"] += 1
    rec["verdict"] = "mismatch"


def change_edge_line(status, stdout):
    at = stdout.index(b"\n", len(stdout) // 2) + 1
    digit = stdout[at:at + 1]
    return status, stdout[:at] + (b"8" if digit == b"9" else b"9") + stdout[at + 1:]


def bump_term(terms):
    terms[len(terms) // 2]["num"] += 1


def swap_exponents(terms):
    term = next(t for t in terms if t["i"] < t["j"])
    term["i"], term["j"] = term["j"], term["i"]


CORRUPTIONS = {
    "verify-grid": {
        "exit code 0": lambda status, stdout: (0, stdout),
        "truncated": lambda status, stdout: (status, stdout[:len(stdout) // 2]),
        "record dropped": edit_json(lambda records: records.pop()),
        "wrong computed value": edit_json(lie_about_prop41_m1),
        "float off by 1e-9": edit_json(perturb_float),
        "thm31 mismatch at n=3": edit_json(mismatch_thm31_at_n3),
        "thm32 mismatch": edit_json(fail_thm32),
        "not a list": lambda status, stdout: (status, b"{}\n"),
    },
    "indices-ladder": {
        "exit code 1": lambda status, stdout: (1, stdout),
        "disagreement": edit_json(lambda p: p["agreement"].update(m2=False)),
        "wrong m1": edit_json(lambda p: p["from_mpoly"]["m1"].update(num=p["from_mpoly"]["m1"]["num"] + 1)),
        "float off by 1e-9": edit_json(
            lambda p: p["from_edges"]["r_alpha"].update({"0.5": scale(p["from_edges"]["r_alpha"]["0.5"])})),
        "missing alpha": edit_json(lambda p: p["from_edges"]["rr_alpha"].pop("2")),
        "not an object": lambda status, stdout: (status, b"[]\n"),
    },
    "line-emit": {
        "exit code 2": lambda status, stdout: (2, stdout),
        "edge changed": change_edge_line,
        "header changed": lambda status, stdout: (status, stdout.replace(b"715806", b"715805", 1)),
        "last line dropped": lambda status, stdout: (status, stdout[:stdout.rindex(b"\n", 0, -1) + 1]),
    },
    "hubs-mpoly": {
        "exit code 1": lambda status, stdout: (1, stdout),
        "coefficient changed": edit_json(bump_term),
        "term dropped": edit_json(lambda terms: terms.pop(0)),
        "exponents swapped": edit_json(swap_exponents),
        "empty": lambda status, stdout: (status, b""),
    },
}


@pytest.mark.parametrize("name", list(workloads.WHY))
def test_real_output_passes(real, name):
    case, status, stdout = real[name]
    assert workloads.problems(case, status, stdout) == []


@pytest.mark.parametrize("name,how", [(n, h) for n, c in CORRUPTIONS.items() for h in c])
def test_corrupted_output_fails(real, name, how):
    case, status, stdout = real[name]
    bad_status, bad_stdout = CORRUPTIONS[name][how](status, stdout)
    assert (bad_status, bad_stdout) != (status, stdout)
    assert workloads.problems(case, bad_status, bad_stdout)
