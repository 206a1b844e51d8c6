"""Every workload's checks pass on the program's outputs, and a corrupted
output is counted as a failure instead of stopping the benchmark."""

import contextlib
import dataclasses
import io
from pathlib import Path

import pytest

import cga.cli
import run
from cgabench.workloads import Generate, Readback, Sweep, count_failures, outcome_key


class SmallGenerate(Generate):
    H = 8


class SmallSweep(Sweep):
    H, HEIGHTS, H_STAR, TRIALS = 6, (1, 2), 3, 3


class SmallReadback(Readback):
    H = 7


RUN_CALL = run.make_runner(cga.cli)


def untimed(call):
    return RUN_CALL(call)[1]


def one_pass(wl, where: Path, monkeypatch):
    monkeypatch.chdir(where)
    for name, text in wl.setup_files().items():
        Path(name).write_text(text)
    for argv in wl.setup_calls():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cga.cli.main(list(argv)) == 0
    wl.prepare(untimed)
    return run.run_pass(RUN_CALL, wl.calls())[1]


def failures(wl, first, later=None):
    keys = [[outcome_key(o) for o in first]]
    keys.append([outcome_key(o) for o in (later or first)])
    return count_failures(wl, first, keys, untimed)


@pytest.mark.parametrize("cls", [SmallGenerate, SmallSweep, SmallReadback])
def test_program_outputs_pass_every_check(cls, tmp_path, monkeypatch):
    wl = cls(5, 2)
    first = one_pass(wl, tmp_path, monkeypatch)
    assert failures(wl, first) == (2 * len(first), 0)
    assert wl.work.calls == len(first) and wl.work.edges > 0


def test_same_seed_same_inputs(tmp_path):
    a, b, c = SmallSweep(5, 2), SmallSweep(5, 1), SmallSweep(6, 2)
    assert a.setup_files() == b.setup_files() != c.setup_files()
    assert Generate(5, 2).calls() == Generate(5, 1).calls() != Generate(6, 2).calls()


def test_corrupt_edge_list_fails_every_pass(tmp_path, monkeypatch):
    wl = SmallGenerate(5, 2)
    (o,) = one_pass(wl, tmp_path, monkeypatch)
    lines = o.output.split(b"\n")
    dropped = dataclasses.replace(o, output=b"\n".join(lines[:1] + lines[2:]))
    assert failures(wl, [dropped]) == (2, 2)
    garbage = dataclasses.replace(o, output=b"\xff\xfe")
    assert failures(wl, [garbage]) == (2, 2)
    # a later pass that differs from the first fails on its own
    assert failures(wl, [o], [dropped]) == (2, 1)


def test_wrong_sweep_counts_fail_the_recount(tmp_path, monkeypatch):
    wl = SmallSweep(5, 2)
    (o,) = one_pass(wl, tmp_path, monkeypatch)
    text = o.output.decode().splitlines()
    cols = text[next(i for i, line in enumerate(text) if line.startswith("trial,"))].split(",")
    for i, line in enumerate(text):
        row = line.split(",")
        if row[0] == str(wl.checked_trial) and len(row) == len(cols):
            row[cols.index("complete_clusters")] = str(int(row[cols.index("complete_clusters")]) + 1)
            text[i] = ",".join(row)
            break
    bad = dataclasses.replace(o, output=("\n".join(text) + "\n").encode())
    wl.reference = bad  # the same defect at both thread counts
    assert failures(wl, [bad]) == (2, 2)


def test_sweep_differing_from_the_single_thread_csv_fails(tmp_path, monkeypatch):
    wl = SmallSweep(5, 2)
    (o,) = one_pass(wl, tmp_path, monkeypatch)
    wl.reference = dataclasses.replace(o, output=o.output.replace(b"trial,", b"trial ,"))
    assert failures(wl, [o]) == (2, 2)


def test_readback_counts_each_wrong_call(tmp_path, monkeypatch):
    wl = SmallReadback(5, 2)
    first = one_pass(wl, tmp_path, monkeypatch)
    bad = list(first)
    bad[-1] = dataclasses.replace(first[-1], rc=1 - first[-1].rc)
    listing = first[0].stdout.splitlines()
    bad[0] = dataclasses.replace(first[0], stdout="\n".join(listing[:-1]) + "\n")
    assert failures(wl, bad) == (2 * len(first), 4)


def test_benchmark_json_lists_the_reported_metrics():
    import json

    from cgabench.metrics import END_TO_END, PER_LAYER

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)


def test_a_call_that_writes_nothing_fails(tmp_path, monkeypatch):
    wl = SmallGenerate(5, 2)
    (o,) = one_pass(wl, tmp_path, monkeypatch)
    missing = dataclasses.replace(o, rc=2, output=None)
    assert failures(wl, [missing]) == (2, 2)
    (call,) = wl.calls()
    bad = dataclasses.replace(call, argv=call.argv + ("--bogus",))
    outcome = untimed(bad)  # argparse exits 2 and leaves no file behind
    assert outcome.rc == 2 and outcome.output is None
