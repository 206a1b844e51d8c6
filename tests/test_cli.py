import ast
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga import cli, experiments
from cga.bounds import threshold_heights
from cga.cli import (
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NOT_CLUSTER,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    load_experiment_config,
    main,
)
from cga.clusters import ClusterSpec
from cga.experiments import (
    EventRow,
    ExperimentConfig,
    SweepRow,
    TrendRow,
    XsRow,
    parse_config_text,
)
from cga.generator import read_edge_list, sample_graph, write_edge_list
from cga.oracle import WorkBudgetError, enumerate_clusters
from cga.tree import TreeParams


def run(argv):
    return main(argv)


SINGLE_EDGE = "# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n"


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "g.el"
    path.write_text(SINGLE_EDGE)
    return str(path)


class TestGenerate:
    def test_writes_documented_header(self, tmp_path, capsys):
        out = tmp_path / "g.el"
        code = run(["generate", "--b", "2", "--height", "4", "--c", "2",
                    "--seed", "7", "--out", str(out)])
        assert code == EXIT_OK
        assert out.read_text().splitlines()[0] == "# cga b=2 H=4 c=2 seed=7 directed=0"
        echoed = capsys.readouterr().out
        assert "# command=generate" in echoed
        assert "# seed=7" in echoed

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.el", tmp_path / "b.el"
        for out in (a, b):
            assert run(["generate", "--b", "2", "--height", "5", "--c", "2",
                        "--seed", "3", "--out", str(out)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_c_exits_2(self, tmp_path, capsys):
        code = run(["generate", "--b", "2", "--height", "4", "--c", "0.5",
                    "--seed", "7", "--out", str(tmp_path / "g.el")])
        assert code == EXIT_USAGE

    def test_unwritable_path_exits_3(self, tmp_path):
        code = run(["generate", "--b", "2", "--height", "3", "--c", "2",
                    "--seed", "1", "--out", str(tmp_path / "missing" / "g.el")])
        assert code == EXIT_IO

    def test_round_trip_equals_in_memory(self, tmp_path):
        out = tmp_path / "g.el"
        run(["generate", "--b", "2", "--height", "5", "--c", "2",
             "--seed", "42", "--out", str(out)])
        loaded = read_edge_list(out)
        assert loaded == sample_graph(TreeParams(2, 5, 2.0), 42)

    @pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
    def test_thread_count_below_one_exits_2(self, tmp_path, capsys, threads):
        out = tmp_path / "g.el"
        with pytest.raises(SystemExit) as exc:
            run(["generate", "--b", "2", "--height", "3", "--c", "2",
                 "--seed", "1", "--out", str(out), "--threads", threads])
        assert exc.value.code == EXIT_USAGE
        message = ("invalid integer value: '1.5'" if threads == "1.5"
                   else f"must be >= 1, got {threads}")
        assert f"--threads: {message}" in capsys.readouterr().err
        assert not out.exists()


class TestVerify:
    def test_cluster_exits_0(self, edge_file, capsys):
        code = run(["verify", "--graph", edge_file, "--set", "0,1",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "cluster=true" in out
        assert "dense=true" in out and "sparse=true" in out

    def test_non_cluster_exits_1_with_witness(self, edge_file, capsys):
        code = run(["verify", "--graph", edge_file, "--set", "0,2",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_NOT_CLUSTER
        out = capsys.readouterr().out
        assert "cluster=false" in out
        assert "witness: event=D vertex=0 edges=0" in out

    def test_event_lines_with_hstar(self, edge_file, capsys):
        run(["verify", "--graph", edge_file, "--set", "0,1",
             "--alpha", "0.5", "--beta", "0.5", "--hstar", "2"])
        out = capsys.readouterr().out
        for key in ("e1=", "e2=", "e3="):
            assert key in out

    def test_vertex_out_of_range_exits_2(self, edge_file):
        code = run(["verify", "--graph", edge_file, "--set", "0,9",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_USAGE

    def test_vertex_beyond_int64_in_graph_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text("# cga b=2 H=2 c=2 seed=0 directed=0\n99999999999999999999 1\n")
        code = run(["verify", "--graph", str(path), "--set", "0,1",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_USAGE
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("raw,named", [
        (b"# cga b=2 H=2 c=2 seed=0 directed=0\r0 1\r2 3\r", "header: expected key=value, got '0'"),
        (b"# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\r2 3\n", "line 2: expected '<u> <v>'"),
        (b"# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n2 3\xc2\xa0\n", "'ascii' codec"),
    ])
    def test_lone_carriage_return_or_non_ascii_file_exits_2(self, tmp_path, capsys, raw, named):
        path = tmp_path / "g.el"
        path.write_bytes(raw)
        code = run(["verify", "--graph", str(path), "--set", "0,1",
                    "--alpha", "1/2", "--beta", "1/2"])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_malformed_set_exits_2(self, edge_file):
        code = run(["verify", "--graph", edge_file, "--set", "0;1",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_USAGE


@pytest.mark.parametrize("command", [
    ["verify", "--set", "0,1"], ["enumerate", "--height", "1"], ["oracle", "--max-size", "2"]])
def test_mode_must_match_the_graph(tmp_path, capsys, command):
    path = tmp_path / "g.el"
    path.write_text(SINGLE_EDGE.replace("directed=0", "directed=1"))
    argv = [*command, "--graph", str(path), "--alpha", "0.5", "--beta", "0.5"]
    assert run([*argv, "--mode", "undirected"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--mode undirected" in captured.err
    run(argv)
    assert "# mode=directed-out\n" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["verify", "--set", "0,1"], ["enumerate", "--height", "1"], ["oracle", "--max-size", "2"]])
@pytest.mark.parametrize("header,named", [
    ("# cga b=2 b=3 H=2 c=2 seed=0 directed=0", "header: duplicate field 'b'"),
    ("# cga b=2 H=2 c=2 seed=0 directed=0 color=red", "header: unknown field 'color'"),
    ("# cga b=2 H=2 c=2 seed=0 directed=0 junk", "header: expected key=value, got 'junk'"),
])
def test_bad_header_field_exits_2(tmp_path, capsys, command, header, named):
    path = tmp_path / "g.el"
    path.write_text(f"{header}\n0 1\n")
    assert run([*command, "--graph", str(path), "--alpha", "0.5", "--beta", "0.5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("value", ["1/0", "1e-9999999"])
def test_bad_alpha_or_beta_flag_exits_2(edge_file, capsys, value):
    # a zero denominator used to escape as ZeroDivisionError (exit 1), and
    # a huge exponent stalled while Fraction built 10**9999999
    graph_args = {
        "verify": ["--set", "0,1"],
        "enumerate": ["--height", "1"],
        "oracle": ["--max-size", "2"],
    }
    argvs = [["bounds", "--b", "2", "--c", "2", "--alpha", value]]
    for command, extra in graph_args.items():
        for flag, other in (("--alpha", "--beta"), ("--beta", "--alpha")):
            argvs.append([command, "--graph", edge_file, *extra, flag, value, other, "0.5"])
    for argv in argvs:
        assert run(argv) == EXIT_USAGE, argv
        assert f"= '{value}' has" in capsys.readouterr().err, argv


class TestEnumerateAndOracle:
    def test_enumerate_lists_complete_clusters(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text("# cga b=2 H=2 c=2 seed=0 directed=0\n0 1\n2 3\n")
        code = run(["enumerate", "--graph", str(path), "--alpha", "0.5",
                    "--beta", "0.5", "--height", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "0,1 height=1 complete" in out
        assert "2,3 height=1 complete" in out

    def test_oracle_matches_library(self, tmp_path, capsys):
        out_path = tmp_path / "g.el"
        run(["generate", "--b", "2", "--height", "4", "--c", "2",
             "--seed", "5", "--out", str(out_path)])
        capsys.readouterr()
        code = run(["oracle", "--graph", str(out_path), "--alpha", "0.5",
                    "--beta", "0.5", "--max-size", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# work_budget=1000000000\n" in out  # the default budget
        g = read_edge_list(out_path)
        expected = enumerate_clusters(g, ClusterSpec("0.5", "0.5"), 4)
        listed = [l.split()[0] for l in out.splitlines()
                  if l and not l.startswith("#") and "wrote" not in l]
        assert listed == [",".join(map(str, M.members)) for M in expected.clusters]

    def test_budget_flag_exits_4(self, tmp_path, capsys):
        path = tmp_path / "g.el"
        run(["generate", "--b", "2", "--height", "4", "--c", "2",
             "--seed", "5", "--out", str(path)])
        code = run(["oracle", "--graph", str(path), "--alpha", "0.5",
                    "--beta", "0.5", "--max-size", "5", "--budget", "10"])
        assert code == EXIT_BUDGET

    def test_negative_budget_flag_exits_2(self, edge_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["oracle", "--graph", edge_file, "--alpha", "0.5", "--beta", "0.5",
                 "--max-size", "2", "--budget", "-1"])
        assert exc.value.code == EXIT_USAGE
        assert "--budget: must be >= 0, got -1" in capsys.readouterr().err

    def test_zero_budget_is_a_budget(self, edge_file):
        assert run(["oracle", "--graph", edge_file, "--alpha", "0.5", "--beta", "0.5",
                    "--max-size", "2", "--budget", "0"]) == EXIT_BUDGET


class TestBounds:
    def test_prints_m_star(self, capsys):
        code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "m_star=2.0" in out

    def test_height_section(self, capsys):
        code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5",
                    "--height", "4", "--m", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for key in ("h_star=", "h_epsilon=", "tall_height=",
                    "exact_clique_probability=", "cluster_count_guarantee="):
            assert key in out

    @pytest.mark.parametrize("flags,named", [
        (["--m", "4"], "--m needs --height"),
        (["--height", "4", "--family-size", "9"], "--family-size needs --m"),
    ])
    def test_incomplete_flag_group_exits_2(self, capsys, flags, named):
        code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5", *flags])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5"])
    def test_bad_epsilon_exits_2(self, capsys, epsilon):
        for height in ([], ["--height", "5"]):
            code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5",
                        "--epsilon", epsilon, *height])
            assert code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and "epsilon must be finite and >= 0" in captured.err

    def test_given_epsilon_is_echoed_and_used(self, capsys):
        code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5",
                    "--epsilon", "0.25", "--height", "4"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        hs = threshold_heights(TreeParams(2, 4, 2.0), 0.25)
        assert "# epsilon=0.25\n" in out
        assert f"h_star={hs.h_star!r}\n" in out and f"h_epsilon={hs.h_epsilon!r}\n" in out

    def test_default_epsilon_is_the_experiments(self, capsys):
        # trend_below.cfg's b and c, whose experiment echo reads this epsilon
        code = run(["bounds", "--b", "2", "--c", "1.5", "--alpha", "0.9", "--height", "8"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# epsilon=0.07312031259014452\n" in out
        assert ExperimentConfig(b=2, c=1.5, h_from=8, h_to=8).resolved_epsilon == 0.07312031259014452


BOUNDS = ["bounds", "--b", "2", "--c", "2", "--alpha", "0.5"]
ON_GRAPH = ["--graph", "{graph}", "--alpha", "0.5", "--beta", "0.5"]

# Each refused argv, its exit code and a fragment of its error message;
# "{graph}" stands for an H=4 edge list, "{missing}" for a path in a
# directory that does not exist.
REFUSALS = {
    "bounds-m-at-m-star": ([*BOUNDS, "--height", "4", "--m", "2"],
                           EXIT_USAGE, "guarantee requires m > m_star"),
    "bounds-family-size-zero": ([*BOUNDS, "--height", "4", "--m", "4", "--family-size", "0"],
                                EXIT_USAGE, "--family-size: must be >= 1, got 0"),
    "verify-hstar-above-H": (["verify", *ON_GRAPH, "--set", "0,1", "--hstar", "9"],
                             EXIT_USAGE, "h_star must lie in [1, 4], got 9"),
    "verify-hstar-below-set": (["verify", *ON_GRAPH, "--set", "0,1", "--hstar", "0"],
                               EXIT_USAGE, "h_star must lie in [1, 4], got 0"),
    "enumerate-height-above-H": (["enumerate", *ON_GRAPH, "--height", "9"],
                                 EXIT_USAGE, "height must lie in [0, 4], got 9"),
    "enumerate-negative-height": (["enumerate", *ON_GRAPH, "--height", "-1"],
                                  EXIT_USAGE, "height must lie in [0, 4], got -1"),
    "oracle-max-size-zero": (["oracle", *ON_GRAPH, "--max-size", "0"],
                             EXIT_USAGE, "max_size must be >= 1, got 0"),
    "oracle-over-budget": (["oracle", *ON_GRAPH, "--max-size", "9", "--budget", "5"],
                           EXIT_BUDGET, "exceeds the budget of 5"),
    "generate-missing-directory": (["generate", "--b", "2", "--height", "3", "--c", "2",
                                    "--seed", "1", "--out", "{missing}"],
                                   EXIT_IO, "No such file or directory"),
    # the binomial tail and Janson calculator flags `bounds` no longer has
    **{f"bounds-removed{flag}": ([*BOUNDS, flag, "1"], EXIT_USAGE,
                                 f"unrecognized arguments: {flag} 1")
       for flag in ("--tail-n", "--tail-p", "--tail-t", "--tail-s", "--mu", "--t")},
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusal_prints_nothing_to_stdout(tmp_path, capsys, case):
    argv, code, named = REFUSALS[case]
    graph = tmp_path / "g.el"
    graph.write_text("# cga b=2 H=4 c=2 seed=0 directed=0\n0 1\n2 3\n")
    paths = {"{graph}": str(graph), "{missing}": str(tmp_path / "missing" / "g.el")}
    try:
        exit_code = run([paths.get(arg, arg) for arg in argv])
    except SystemExit as exc:  # argparse refuses a flag or its value itself
        exit_code = exc.code
    assert exit_code == code
    captured = capsys.readouterr()
    assert captured.out == "" and named in captured.err


@pytest.mark.parametrize("error,code", [
    (WorkBudgetError(5, 4, "a search"), EXIT_BUDGET),
    (ValueError("a value"), EXIT_USAGE),
    (KeyError("a key"), EXIT_USAGE),
    (io.UnsupportedOperation("a stream"), EXIT_USAGE),  # a ValueError before an OSError
    (FileNotFoundError("a file"), EXIT_IO),
])
def test_exit_code_of_each_error(capsys, monkeypatch, error, code):
    def fail(args):
        raise error

    monkeypatch.setattr(cli, "cmd_bounds", fail)
    assert run(BOUNDS) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


HALF = ["--alpha", "1/2", "--beta", "1/2"]
QUARTER = ["--alpha", "1/4", "--beta", "1/2"]

# Pinned SHA-256 digests of the stdout of the graph commands, with their
# exit codes.  The first word of a case names its graph: b=2 H=4 c=2, the
# undirected one on seed 2 and the directed one on seed 1, read from
# "<graph>.el" in the working directory so the echoed path is fixed.
GRAPH_COMMAND_PINS = {
    "undirected-verify-cluster": (
        ["verify", "--set", "4,5,6,7", *HALF], EXIT_OK,
        "66f34827f1dfa6cee9f4c2f075eb64251c6206479943871d2a9ffe4567412534"),
    "undirected-verify-d-witness": (
        ["verify", "--set", "0,1,2,3", *HALF], EXIT_NOT_CLUSTER,
        "7389835e90405e44cc4d3ec8e79fd5e527a05ccad3adb4726ac005ae15ecff57"),
    "undirected-verify-hstar": (
        ["verify", "--set", "4,5,6,7", *HALF, "--hstar", "3"], EXIT_OK,
        "6c0053b503a43fef41c78ff5d7795a466a1de8160b193801c0be921b97af740b"),
    # the E1 witness (vertex 5) prints before the smaller E3 witness (vertex 0)
    "undirected-verify-e1-e3-witnesses": (
        ["verify", "--set", "4,6", *QUARTER, "--hstar", "2"], EXIT_NOT_CLUSTER,
        "257e9dfa77ba14b2cabbd287240b6f79707fa443dd462804261eedaeb5815a54"),
    "undirected-enumerate-h1": (
        ["enumerate", *HALF, "--height", "1"], EXIT_OK,
        "f5299bac4e4836c92882155a9de8ef1c0e842f5c59e61f711d9ffc56aa05a8c0"),
    "undirected-enumerate-h2": (
        ["enumerate", *HALF, "--height", "2"], EXIT_OK,
        "01d590f66ff3a90e9079b642f8b9fc4b60571044ecde635ae81e299908c86d58"),
    "undirected-oracle": (
        ["oracle", *HALF, "--max-size", "2"], EXIT_OK,
        "6807904480785713930897cead3b07f8f8e24ee76dc37e5c0c8ef81527c4c2df"),
    "directed-verify-cluster-mode": (
        ["verify", "--set", "4,5", *HALF, "--mode", "directed-out"], EXIT_OK,
        "78534cb3ad091906df78bc309c538a36477baac94719051f93ff388aadf0f7a8"),
    "directed-verify-d-e1-e3-witnesses": (
        ["verify", "--set", "0,3", *HALF, "--hstar", "2"], EXIT_NOT_CLUSTER,
        "349df3f6d2ab1fdea995b1de9e5bbd89a26b6ab3163e6176511d8406b37403f3"),
    "directed-verify-d-e1-e2-witnesses": (
        ["verify", "--set", "8,12", *QUARTER, "--hstar", "4"], EXIT_NOT_CLUSTER,
        "3f38ad24ac00bc8ffec965fff3055bd502479d578f2a11fd44c8fb3f63caa59b"),
    "directed-enumerate-h1": (
        ["enumerate", *HALF, "--height", "1"], EXIT_OK,
        "0cb4fe6f318c4cc24e26517cb02359f3196bd1615225c9b4bf9587bb5217cca7"),
    "directed-enumerate-h2": (
        ["enumerate", *HALF, "--height", "2"], EXIT_OK,
        "c2d4b222ba23e8637adacdcae33a1315dafb1710b9c6691d452fa0b51226a360"),
    "directed-oracle": (
        ["oracle", *HALF, "--max-size", "2"], EXIT_OK,
        "f5e84e49009623754a9014d53c976018eee8ef8caab8f2cab58edd72cb12a1b5"),
}


@pytest.mark.parametrize("case", list(GRAPH_COMMAND_PINS))
def test_graph_command_digest(tmp_path, capsys, monkeypatch, case):
    argv, code, digest = GRAPH_COMMAND_PINS[case]
    graph = case.split("-")[0]
    seed, directed = {"undirected": (2, False), "directed": (1, True)}[graph]
    monkeypatch.chdir(tmp_path)
    write_edge_list(sample_graph(TreeParams(2, 4, 2.0), seed, directed=directed), f"{graph}.el")
    assert run([argv[0], "--graph", f"{graph}.el", *argv[1:]]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


SWEEP_CONFIG = """\
# sample experiment
b = 2
c = 2
h_from = 4
h_to = 4
alpha = 0.5
beta = 0.5
trials = 4
seed = 11
heights = 0,1,2
"""


# Pinned SHA-256 digests of the CSV each experiment kind prints.  They fix
# the output bytes (config echo, header, number formatting, row order), so
# any change to them must be deliberate.
GOLDEN_RUNS = [
    ("sweep", "b=2\nc=2\nh_from=4\nh_to=5\ntrials=4\nseed=11\nheights=0,1,2\n"
     "measures=cliques,dense,clusters,events,xs,edges\n",
     "2381c281c2ee2b17c4906f7e6fb8dffdc7dd655c6d1fc068c70f71b5466bbcb5"),
    ("events", "b=2\nc=2\nh_from=5\nh_to=6\ntrials=6\nseed=501\nset_height=1\n"
     "set_size=2\nh_star=3\n",
     "8aa2b12bfbba0d9371b2e99df253be5a87c5124a4eeffa6de414ec8de536954c"),
    ("trend", "b=2\nc=1.5\nh_from=3\nh_to=5\nalpha=0.3\ntrials=4\nseed=606\n"
     "candidates=20\n",
     "72cd48a3d346622fd629dcadeeaf3fcb8fe2cfe04144ef2331722c4995ca1d38"),
    ("xs", "b=2\nc=2\nh_from=4\nh_to=6\ntrials=5\nseed=13\nset_height=2\n",
     "c57bf2bec0b0da26e5c67decd2a253a6942b81c1adba30ecc24e091c9269c680"),
    ("sweep", "b=2\nc=2\nh_from=4\nh_to=5\ntrials=3\nseed=11\nheights=1\ndirected=1\n",
     "2378d72f0a89bb012e79f4eeba3e32962b09804dec9c5a1d37137c4245f8c10d"),
]
GOLDEN_IDS = ["sweep", "events", "trend", "xs", "sweep-directed"]

# Each case edits one line of SWEEP_CONFIG into a bad config, and gives a
# fragment the error message must contain.
BAD_CONFIGS = {
    "duplicate-key": ("seed = 11", "seed = 11\nseed = 12", "config line 10: duplicate key 'seed'"),
    "negative-seed": ("seed = 11", "seed = -1", "seed"),
    "negative-candidates": ("seed = 11", "seed = 11\ncandidates = -1", "candidates"),
    "negative-work-budget": ("seed = 11", "seed = 11\nwork_budget = -1", "work_budget"),
    "unknown-placement": ("seed = 11", "seed = 11\nplacement = middle", "placement"),
    "zero-denominator": ("alpha = 0.5", "alpha = 1/0", "alpha"),
    "alpha-above-one": ("alpha = 0.5", "alpha = 3/2", "alpha must lie in (0, 1], got 3/2"),
    "huge-exponent": ("beta = 0.5", "beta = 1e-9999999", "beta = '1e-9999999' has an exponent"),
    "h-star-below-scanned-height": ("seed = 11", "seed = 11\nh_star = 1", "h_star 1 outside [2, 4]"),
    "missing-key": ("b = 2\n", "", "missing config keys: ['b']"),
    "non-integer-trials": ("trials = 4", "trials = x", "config line 8: trials = 'x': invalid literal"),
    "repeated-height": ("heights = 0,1,2", "heights = 1,2,1", "heights must be distinct, got 1,2,1"),
}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"
ROW_TYPES = {"sweep": SweepRow, "events": EventRow, "trend": TrendRow, "xs": XsRow}


class TestExperimentCommand:
    def test_sweep_csv_contract(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG)
        out = tmp_path / "out.csv"
        code = run(["experiment", "sweep", "--config", str(cfg_path),
                    "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        config_lines = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# b=2") for l in config_lines)
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == ",".join(SweepRow._fields)

    def test_threads_do_not_change_bytes(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG)
        outputs = set()
        for t in (1, 2, 8):
            out = tmp_path / f"out{t}.csv"
            assert run(["experiment", "sweep", "--config", str(cfg_path),
                        "--out", str(out), "--threads", str(t)]) == EXIT_OK
            outputs.add(out.read_bytes())
        assert len(outputs) == 1

    @pytest.mark.parametrize("kind", ["sweep", "events", "trend", "xs"])
    @pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
    def test_thread_count_refused_before_sampling(self, tmp_path, capsys, monkeypatch,
                                                  threads, kind):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "sample_graph", no_sampling)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + "set_height = 1\nset_size = 2\n")
        with pytest.raises(SystemExit) as exc:
            run(["experiment", kind, "--config", str(cfg_path), "--threads", threads])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        message = ("invalid integer value: '1.5'" if threads == "1.5"
                   else f"must be >= 1, got {threads}")
        assert f"--threads: {message}" in captured.err
        assert captured.out == ""

    def test_trend_and_xs_kinds(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        base = SWEEP_CONFIG.replace("trials = 4", "trials = 2")
        cfg_path.write_text(base + "set_height = 1\n")
        for kind in ("trend", "xs", "events"):
            if kind == "events":
                cfg_path.write_text(base + "set_height = 1\nset_size = 2\n")
            code = run(["experiment", kind, "--config", str(cfg_path)])
            assert code == EXIT_OK, kind
            assert capsys.readouterr().out.startswith("# ")

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + "bogus = 1\n")
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
    def test_bad_config_exits_2(self, tmp_path, capsys, case):
        old, new, named = BAD_CONFIGS[case]
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG.replace(old, new))
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text,named", [
        ("h_from = -3\nh_to = 3", "tree height"),
        ("h_from = 0\nh_to = 3", "tree height"),
        ("h_from = 2\nh_to = 3\nh_star = 99", "h_star 99 outside [0, 2]"),
        ("h_from = 4\nh_to = 5", "sweep experiments need heights in the config"),
    ])
    def test_bad_heights_exit_2_before_the_sweep_starts(self, tmp_path, capsys,
                                                        monkeypatch, text, named):
        def started(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(experiments, "_run_trials", started)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"b = 2\nc = 2\ntrials = 1\n{text}\n")
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    def test_unresolvable_splitting_height_exits_2_before_sampling(self, tmp_path, capsys,
                                                                  monkeypatch):
        # no h_star, and the threshold height of n = 2 leaves is undefined
        sampled = []
        monkeypatch.setattr(experiments, "sample_graph", lambda *args, **kw: sampled.append(args))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("b=2\nc=2\nh_from=1\nh_to=1\ntrials=2\nheights=0,1\n")
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert "threshold heights require n >= 3" in captured.err and captured.out == ""
        assert sampled == []

    @pytest.mark.parametrize("line,named", [
        ("epsilon = inf", "epsilon must be finite and >= 0, got inf"),
        ("epsilon = nan", "epsilon must be finite and >= 0, got nan"),
        ("epsilon = -0.5", "epsilon must be finite and >= 0, got -0.5"),
        ("directed = 7", "directed must be 0 or 1, got '7'"),
        ("allow_large = 2", "allow_large must be 0 or 1, got '2'"),
    ])
    def test_bad_value_exits_2_before_sampling(self, tmp_path, capsys, monkeypatch,
                                               line, named):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "sample_graph", no_sampling)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{SWEEP_CONFIG}{line}\n")
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize("text,named", [
        ("set_height = 7\nset_size = 2", "set_height 7 outside [0, 6]"),
        ("set_height = -1\nset_size = 1", "set_height -1 outside [0, 6]"),
        ("set_height = 1\nset_size = 3", "set_size 3 exceeds the 2 leaves of a height-1 subtree"),
        ("set_height = 1\nset_size = 0", "set_size must be >= 1, got 0"),
    ])
    def test_probe_set_outside_its_subtree_exits_2_before_sampling(
            self, tmp_path, capsys, monkeypatch, text, named):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a graph")

        monkeypatch.setattr(experiments, "sample_graph", no_sampling)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"b = 2\nc = 2\nh_from = 6\nh_to = 8\n{text}\n")
        assert run(["experiment", "events", "--config", str(cfg_path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and named in captured.err

    @pytest.mark.parametrize("kind,text,named", [
        ("events", "set_height = 1", "events experiments need set_height and set_size"),
        ("events", "set_size = 1", "events experiments need set_height and set_size"),
        ("xs", "set_size = 1", "xs experiments need set_height"),
    ])
    def test_missing_probe_set_exits_2(self, tmp_path, capsys, kind, text, named):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"{SWEEP_CONFIG}{text}\n")
        assert run(["experiment", kind, "--config", str(cfg_path)]) == EXIT_USAGE
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("kind,extra", [
        ("events", "set_height = 1\nset_size = 2\n"), ("xs", "set_height = 1\n")])
    def test_events_and_xs_over_budget_exit_4(self, tmp_path, capsys, kind, extra):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + extra + "work_budget = 10\n")
        assert run(["experiment", kind, "--config", str(cfg_path)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert f"{kind} at H=4" in captured.err and captured.out == ""

    def test_trend_over_budget_exits_4(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + "work_budget = 10\n")
        assert run(["experiment", "trend", "--config", str(cfg_path)]) == EXIT_BUDGET
        captured = capsys.readouterr()
        assert "trend at H=4" in captured.err and captured.out == ""

    def test_xs_at_the_top_height_fits_the_default_budget(self, tmp_path):
        # one scan of a 2**16-leaf graph reads about 2**19 arcs
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("b = 2\nc = 2\nh_from = 16\nh_to = 16\ntrials = 1\n"
                            "set_height = 16\n")
        out = tmp_path / "xs.csv"
        assert run(["experiment", "xs", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert out.read_text().splitlines()[-1].startswith("16,65536,16,1,1,")

    def test_trend_size_above_n_exits_2(self, tmp_path, capsys):
        # m_star = 5.8 here, so size 5 is tested, but n = 2 at H = 1
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("b=2\nc=1.5\nalpha=0.3\nh_from=1\nh_to=2\ntrials=1\n")
        assert run(["experiment", "trend", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "m = 5" in err and "H = 1" in err

    def test_parse_config_text(self):
        parsed = parse_config_text("a = 1\n# comment\nb=2  # trailing\n\n")
        assert parsed == {"a": (1, "1"), "b": (3, "2")}
        with pytest.raises(ValueError):
            parse_config_text("just words\n")

    @pytest.mark.parametrize("threads", [1, 3])
    @pytest.mark.parametrize("kind,config,digest", GOLDEN_RUNS, ids=GOLDEN_IDS)
    def test_golden_csv_digest(self, tmp_path, capsys, kind, config, digest, threads):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config)
        code = run(["experiment", kind, "--config", str(cfg_path),
                    "--threads", str(threads)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("kind,config,digest", GOLDEN_RUNS, ids=GOLDEN_IDS)
    def test_header_is_the_row_type_fields(self, tmp_path, capsys, kind, config, digest):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config)
        assert run(["experiment", kind, "--config", str(cfg_path)]) == EXIT_OK
        header, *rows = [line for line in capsys.readouterr().out.splitlines()
                         if not line.startswith("#")]
        columns = ROW_TYPES[kind]._fields
        assert header == ",".join(columns)
        assert rows and all(len(row.split(",")) == len(columns) for row in rows)

    def test_benchmark_sweep_header_is_the_row_type_fields(self):
        # the benchmark recounts sweep rows by its own copy of the header
        tree = ast.parse((BENCH_DIR / "cgabench" / "workloads.py").read_text())
        copy = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "SWEEP_HEADER" for t in node.targets))
        assert ast.literal_eval(copy) == ",".join(SweepRow._fields)

    @pytest.mark.parametrize("kind,config,digest", GOLDEN_RUNS, ids=GOLDEN_IDS)
    def test_a_run_on_its_own_echo_prints_the_same_bytes(self, tmp_path, capsys, kind,
                                                          config, digest):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(config)
        assert run(["experiment", kind, "--config", str(cfg_path)]) == EXIT_OK
        first = capsys.readouterr().out
        echo = [line[2:] for line in first.splitlines() if line.startswith("# ")]
        keys = {f.name for f in fields(ExperimentConfig)}
        config_lines = [line for line in echo if line.split("=", 1)[0] in keys]
        # events also echoes its probe set as template_*, a copy of the set_* keys
        assert {line.split("=", 1)[0] for line in echo} - keys == (
            {"template_height", "template_size", "template_placement"} if kind == "events"
            else set())
        echo_path = tmp_path / "echo.cfg"
        echo_path.write_text("\n".join(config_lines) + "\n")
        assert run(["experiment", kind, "--config", str(echo_path)]) == EXIT_OK
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "text",
        [config for _, config, _ in GOLDEN_RUNS]
        + [path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))],
        ids=GOLDEN_IDS + [path.stem for path in sorted(CONFIG_DIR.glob("*.cfg"))])
    def test_echo_reads_back_to_the_same_config(self, text):
        cfg = ExperimentConfig.from_text(text)
        echo = "".join(f"{key}={val}\n" for key, val in cfg.items())
        assert ExperimentConfig.from_text(echo).items() == cfg.items()

    def test_load_experiment_config_types(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + "measures = cliques,xs\ndirected = 1\n")
        cfg = load_experiment_config(str(cfg_path))
        assert cfg.b == 2 and cfg.trials == 4
        assert cfg.heights == (0, 1, 2)
        assert cfg.measures == frozenset({"cliques", "xs"})
        assert cfg.directed is True


SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def _modules_loaded_by(code: str) -> set[str]:
    """The modules loaded after running `code` in a fresh interpreter that
    imports cga from this checkout."""
    script = f"import sys\n{code}\nimport cga\nprint(cga.__file__)\nprint(*sys.modules, sep='\\n')"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC_DIR), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    where, *modules = done.stdout.splitlines()
    assert Path(where).resolve().is_relative_to(SRC_DIR)
    return set(modules)


class TestImportHygiene:
    """numpy.random and numpy.ma cost start-up time and resident memory, so
    the CLI loads neither before it needs them, and sampling, writing an
    edge list and an events run never load numpy.ma.  No run starts a thread
    pool or loads concurrent.futures."""

    def test_importing_the_cli_loads_neither(self):
        loaded = _modules_loaded_by("import cga.cli")
        assert "numpy" in loaded
        assert not {"numpy.random", "numpy.ma"} & loaded

    def test_sampling_does_not_load_numpy_ma(self):
        loaded = _modules_loaded_by(
            "from cga.generator import sample_graph\nfrom cga.tree import TreeParams\n"
            "assert sample_graph(TreeParams(2, 16, 2.0), 1).edge_count > 0")
        assert "numpy.random" in loaded
        assert "numpy.ma" not in loaded

    def test_writing_an_edge_list_does_not_load_numpy_ma(self):
        loaded = _modules_loaded_by(
            "import os\nfrom cga.generator import Graph, write_edge_list\n"
            "from cga.tree import TreeParams\n"
            # both line orders: one key up to 8 digits, a lexsort beyond
            "write_edge_list(Graph.from_edges(TreeParams(2, 4, 2.0), [(0, 5)]), os.devnull)\n"
            "write_edge_list(Graph.from_edges(TreeParams(2, 63, 2.0), [(0, 10**9)]), os.devnull)")
        assert "numpy.ma" not in loaded

    def test_threads_start_no_pool(self):
        # trials and sampler chunks run on the calling thread
        loaded = _modules_loaded_by(
            "import threading\nimport cga.cli\n"
            "from cga.experiments import ExperimentConfig, run_threshold_sweep\n"
            "from cga.generator import sample_graph\nfrom cga.tree import TreeParams\n"
            "cfg = ExperimentConfig(b=2, c=2, h_from=4, h_to=5, trials=3, heights=(1, 2))\n"
            # one row per trial and scanned height, on each of the two tree heights
            "assert len(run_threshold_sweep(cfg)) == 2 * 3 * 2\n"
            # two chunks of blocks at height class 1
            "assert sample_graph(TreeParams(2, 15, 2.0), 1).edge_count > 0\n"
            "assert threading.active_count() == 1")
        assert "concurrent.futures" not in loaded

    def test_an_events_run_does_not_load_numpy_ma(self):
        loaded = _modules_loaded_by(
            "from cga.experiments import ExperimentConfig, estimate_event_probs\n"
            "cfg = ExperimentConfig(b=2, c=2, h_from=5, h_to=5, trials=2, h_star=3,\n"
            "                       set_height=1, set_size=2)\n"
            "assert estimate_event_probs(cfg)[0].observations == 8")
        assert "numpy.ma" not in loaded


def test_shipped_configs_load_and_name_a_kind():
    # configs/<kind>[_<variant>].cfg: the file-name prefix is the experiment kind
    paths = sorted(CONFIG_DIR.glob("*.cfg"))
    assert len(paths) >= 4
    for path in paths:
        load_experiment_config(str(path))
        kind = path.stem.split("_")[0]
        args = build_parser().parse_args(["experiment", kind, "--config", str(path)])
        assert args.kind == kind


CONFIG_VALUES = st.one_of(
    st.integers().map(str),
    st.fractions().map(str),
    st.floats().map(repr),
    st.sampled_from(["0,1,2", "cliques,xs", "spread", "left", "1/0", ""]),
    st.text(max_size=12),
)
VALID_BASE = {"b": "2", "c": "2", "h_from": "1", "h_to": "2"}


@settings(max_examples=300, deadline=None)
@given(
    overrides=st.dictionaries(st.sampled_from(sorted(f.name for f in fields(ExperimentConfig))),
                              CONFIG_VALUES),
    extra=st.lists(st.tuples(st.text(max_size=8), CONFIG_VALUES), max_size=3),
)
def test_config_loading_raises_only_value_error(overrides, extra):
    # Any config text, loaded from a file, either loads or raises ValueError.
    lines = [f"{k}={v}" for k, v in {**VALID_BASE, **overrides}.items()]
    lines += [f"{k}={v}" for k, v in extra]
    text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        try:
            parse_config_text(text)
            load_experiment_config(path)
        except ValueError:
            pass
