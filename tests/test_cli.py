import hashlib
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cga import experiments
from cga.cli import (
    _CONFIG_KEYS,
    EXIT_BUDGET,
    EXIT_IO,
    EXIT_NOT_CLUSTER,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    load_experiment_config,
    main,
    parse_config_text,
)
from cga.clusters import ClusterSpec
from cga.experiments import SWEEP_HEADER
from cga.generator import read_edge_list, sample_graph
from cga.oracle import enumerate_clusters
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

    def test_malformed_set_exits_2(self, edge_file):
        code = run(["verify", "--graph", edge_file, "--set", "0;1",
                    "--alpha", "0.5", "--beta", "0.5"])
        assert code == EXIT_USAGE


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
        g = read_edge_list(out_path)
        expected = enumerate_clusters(g, ClusterSpec("0.5", "0.5"), 4)
        listed = [l.split()[0] for l in out.splitlines()
                  if l and not l.startswith("#") and "wrote" not in l]
        assert listed == [",".join(map(str, M.members)) for M in expected.clusters]

    def test_budget_env_override_exits_4(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "g.el"
        run(["generate", "--b", "2", "--height", "4", "--c", "2",
             "--seed", "5", "--out", str(path)])
        monkeypatch.setenv("CGA_WORK_BUDGET", "10")
        code = run(["oracle", "--graph", str(path), "--alpha", "0.5",
                    "--beta", "0.5", "--max-size", "5"])
        assert code == EXIT_BUDGET


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

    def test_tail_and_janson(self, capsys):
        code = run(["bounds", "--b", "2", "--c", "2", "--alpha", "0.5",
                    "--tail-n", "10", "--tail-p", "0.1", "--tail-t", "2",
                    "--tail-s", "4", "--mu", "10", "--t", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        for key in ("binom_tail_bound=", "binom_tail_simple=", "binom_tail_exact=",
                    "janson_upper=", "janson_lower="):
            assert key in out


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
     "be54b4335e41db92105a23550b99ba7941ec1801739a834887cadbc0c96ec362"),
    ("events", "b=2\nc=2\nh_from=5\nh_to=6\ntrials=6\nseed=501\nset_height=1\n"
     "set_size=2\nh_star=3\n",
     "92705ce0af081297533b83f74719e974426f839c32bcd3712df257e00a45d794"),
    ("trend", "b=2\nc=1.5\nh_from=3\nh_to=5\nalpha=0.3\ntrials=4\nseed=606\n"
     "candidates=20\n",
     "d64760745afd8580bbcf5065782cc49f048d210d6477404cdd0452e71c784d90"),
    ("xs", "b=2\nc=2\nh_from=4\nh_to=6\ntrials=5\nseed=13\nset_height=2\n",
     "74a144f08c0c5fff49d5f25741e9f3c5f9669ca2bfd589104fbf2dfe2332ebc7"),
    ("sweep", "b=2\nc=2\nh_from=4\nh_to=5\ntrials=3\nseed=11\nheights=1\ndirected=1\n",
     "0c0c6893c135434f3e37e05147f9ca8433d7c8e6e393f46d0f39dfe3b8402fca"),
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
    "huge-exponent": ("beta = 0.5", "beta = 1e-9999999", "beta = '1e-9999999' has an exponent"),
    "h-star-below-scanned-height": ("seed = 11", "seed = 11\nh_star = 1", "h_star 1 outside [2, 4]"),
    "missing-key": ("b = 2\n", "", "missing config keys: ['b']"),
}

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
        assert header == SWEEP_HEADER

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
    ])
    def test_bad_heights_exit_2_before_the_sweep_starts(self, tmp_path, capsys,
                                                        monkeypatch, text, named):
        def started(cfg):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(experiments, "_check_sweep_budget", started)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f"b = 2\nc = 2\ntrials = 1\n{text}\n")
        assert run(["experiment", "sweep", "--config", str(cfg_path)]) == EXIT_USAGE
        assert named in capsys.readouterr().err

    def test_trend_size_above_n_exits_2(self, tmp_path, capsys):
        # m_star = 5.8 here, so size 5 is tested, but n = 2 at H = 1
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("b=2\nc=1.5\nalpha=0.3\nh_from=1\nh_to=2\ntrials=1\n")
        assert run(["experiment", "trend", "--config", str(cfg_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "m = 5" in err and "H = 1" in err

    def test_parse_config_text(self):
        parsed = parse_config_text("a = 1\n# comment\nb=2  # trailing\n\n")
        assert parsed == {"a": "1", "b": "2"}
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

    def test_load_experiment_config_types(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(SWEEP_CONFIG + "measures = cliques,xs\ndirected = 1\n")
        cfg = load_experiment_config(str(cfg_path))
        assert cfg.b == 2 and cfg.trials == 4
        assert cfg.heights == (0, 1, 2)
        assert cfg.measures == frozenset({"cliques", "xs"})
        assert cfg.directed is True


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
    overrides=st.dictionaries(st.sampled_from(sorted(_CONFIG_KEYS)), CONFIG_VALUES),
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
