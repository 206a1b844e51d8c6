"""The benchmark's three workloads: the three things users of `cga` do.

* `generate` samples one large undirected graph and writes its edge list
  (the write path, single-threaded: the plain baseline for the sampler).
* `sweep` runs the paper's threshold experiment at two threads (the only
  workload that runs the thread pool and the complete-set scan).
* `readback` loads a saved directed graph into `enumerate` and `verify`
  (the read path: no sampling, and every call re-parses the file).

Every call goes through `cga.cli.main` with the argv a user would type.
Each workload derives all of its seeds and probe sets from the benchmark
seed, and checks the outputs of one pass against a recount that does not
use `cga.clusters` (see `recount`).
"""

from __future__ import annotations

import hashlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import recount

ALPHA = BETA = Fraction(1, 2)
SWEEP_HEADER = (
    "trial,seed,b,H,c,alpha,beta,epsilon,h,n,cliques,dense_complete,"
    "complete_clusters,e1_rate,e2_rate,e3_rate,d_rate,edges,xs_mean,wall_ms"
)


@dataclass(frozen=True)
class Call:
    """One `cga` invocation; `output` names the file it writes, if any."""

    argv: tuple[str, ...]
    output: str | None = None


@dataclass(frozen=True)
class Outcome:
    """What one call produced: exit code, stdout and the output file."""

    rc: int
    stdout: str
    output: bytes | None


@dataclass
class PassWork:
    """Work done in one pass, read from the outputs.  A trial is one graph
    built: one per sweep trial, one per generate or readback call."""

    edges: int = 0
    graphs: int = 0
    calls: int = 0
    csv_bytes: int = 0
    sets_scanned: int = 0
    sets_checked: int = 0


RunCall = Callable[[Call], Outcome]


class Workload:
    """Inputs, calls and checks of one workload for one benchmark seed."""

    name = ""
    reference_wall = 0.0  # seconds of the threads=1 reference run, if any

    def __init__(self, seed: int, threads: int) -> None:
        self.seed = seed
        self.threads = threads
        self.rng = random.Random(f"cga-bench:{self.name}:{seed}")
        self.work = PassWork()
        self.sizes: dict[str, object] = {}

    def setup_files(self) -> dict[str, str]:
        """Input files written at set-up, by relative path."""
        return {}

    def setup_calls(self) -> list[tuple[str, ...]]:
        """`cga` calls that build inputs at set-up."""
        return []

    def prepare(self, run: RunCall) -> None:
        """Untimed work after set-up: references the checks compare to."""

    def calls(self) -> list[Call]:
        """The calls of one timed pass."""
        raise NotImplementedError

    def check(self, outcomes: list[Outcome], run: RunCall) -> list[list[str]]:
        """The problems found in each call's outcome of one pass; also
        fills `work` and `sizes`.  `run` makes untimed calls."""
        raise NotImplementedError


def _exit_problems(o: Outcome, want: int = 0) -> list[str]:
    return [] if o.rc == want else [f"exit code {o.rc}, expected {want}"]


class Generate(Workload):
    name = "generate"
    B, H, C = 2, 16, "2"

    def __init__(self, seed: int, threads: int) -> None:
        super().__init__(seed, threads)
        self.graph_seed = self.rng.getrandbits(63)

    def calls(self) -> list[Call]:
        argv = ("generate", "--b", str(self.B), "--height", str(self.H), "--c", self.C,
                "--seed", str(self.graph_seed), "--threads", "1", "--out", "graph.el")
        return [Call(argv, "graph.el")]

    def check(self, outcomes: list[Outcome], run: RunCall) -> list[list[str]]:
        (o,) = outcomes
        problems = _exit_problems(o)
        bad, edges = recount.edge_list_problems(
            o.output.decode(), self.B, self.H, self.C, self.graph_seed, False
        )
        problems += bad
        expected, sd = recount.edge_count_band(self.B, self.H, float(self.C), False)
        if abs(len(edges) - expected) > 6 * sd:
            problems.append(f"{len(edges)} edges, outside {expected:.0f} +- 6*{sd:.1f}")
        if not o.stdout.endswith(f"wrote {len(edges)} edges to graph.el\n"):
            problems.append("stdout does not report the edge count")
        self.work = PassWork(edges=len(edges), graphs=1, calls=1)
        self.sizes = {"n": self.B**self.H, "edges": len(edges), "file_bytes": len(o.output)}
        return [problems]


class Sweep(Workload):
    name = "sweep"
    B, H, C = 2, 12, "2"
    HEIGHTS = (1, 2, 3, 4)
    # one splitting height admissible at every scanned height, so that the
    # recount needs no threshold formula
    H_STAR = 4
    TRIALS = 6

    def __init__(self, seed: int, threads: int) -> None:
        super().__init__(seed, threads)
        self.master_seed = self.rng.getrandbits(63)
        self.checked_trial = self.rng.randrange(self.TRIALS)
        self.reference: Outcome | None = None

    def setup_files(self) -> dict[str, str]:
        heights = ",".join(map(str, self.HEIGHTS))
        return {
            "sweep.cfg": f"b={self.B}\nc={self.C}\nh_from={self.H}\nh_to={self.H}\n"
            f"heights={heights}\ntrials={self.TRIALS}\nseed={self.master_seed}\n"
            f"alpha={ALPHA}\nbeta={BETA}\nh_star={self.H_STAR}\n"
        }

    def _call(self, threads: int, out: str) -> Call:
        argv = ("experiment", "sweep", "--config", "sweep.cfg", "--out", out,
                "--threads", str(threads))
        return Call(argv, out)

    def prepare(self, run: RunCall) -> None:
        t0 = perf_counter()
        self.reference = run(self._call(1, "reference.csv"))
        self.reference_wall = perf_counter() - t0

    def calls(self) -> list[Call]:
        return [self._call(self.threads, "sweep.csv")]

    def check(self, outcomes: list[Outcome], run: RunCall) -> list[list[str]]:
        (o,) = outcomes
        problems = _exit_problems(o)
        if o.stdout != "wrote sweep.csv\n":
            problems.append(f"unexpected stdout {o.stdout!r}")
        if self.reference.rc != 0 or o.output != self.reference.output:
            problems.append(f"CSV at threads={self.threads} differs from the threads=1 CSV")
        problems += self.recount_trial(o.output.decode(), run)
        return [problems]

    def recount_trial(self, text: str, run: RunCall) -> list[str]:
        """Check the CSV layout and recount every row of one trial, on the
        trial's graph drawn again by `cga generate` with the trial's seed."""
        body = [line for line in text.splitlines() if not line.startswith("#")]
        if not body or body[0] != SWEEP_HEADER:
            return ["missing sweep CSV header"]
        cols = SWEEP_HEADER.split(",")
        rows = [dict(zip(cols, line.split(","))) for line in body[1:]]
        keys = sorted((int(r["trial"]), int(r["h"])) for r in rows)
        if keys != [(t, h) for t in range(self.TRIALS) for h in self.HEIGHTS]:
            return ["sweep CSV does not hold one row per trial and height"]
        n = self.B**self.H
        self.work = PassWork(
            edges=sum(int(r["edges"]) for r in rows if r["h"] == str(self.HEIGHTS[0])),
            graphs=self.TRIALS,
            calls=1,
            csv_bytes=len(text.encode()),
            sets_scanned=sum(n // self.B ** int(r["h"]) for r in rows),
        )
        self.sizes = {"n": n, "trials": self.TRIALS, "sets": self.work.sets_scanned,
                      "csv_bytes": self.work.csv_bytes}

        mine = [r for r in rows if r["trial"] == str(self.checked_trial)]
        seed = int(mine[0]["seed"])
        g = run(Call(("generate", "--b", str(self.B), "--height", str(self.H), "--c", self.C,
                      "--seed", str(seed), "--out", "trial.el"), "trial.el"))
        bad, edges = recount.edge_list_problems(
            g.output.decode(), self.B, self.H, self.C, seed, False
        )
        if g.rc != 0 or bad:
            return [f"cannot draw trial {self.checked_trial} again: {bad[:1]}"]
        adj = recount.Adjacency.from_edges(self.B, n, False, edges)
        problems = []
        for row in mine:
            h = int(row["h"])
            vs = [recount.evaluate(adj, M, ALPHA, BETA, self.H_STAR)
                  for M in recount.complete_sets(adj, h)]
            blocks, m = len(vs), self.B**h
            want = {
                "n": str(n),
                "cliques": str(sum(v.internal == m * (m - 1) // 2 for v in vs)),
                "dense_complete": str(sum(v.dense for v in vs)),
                "complete_clusters": str(sum(v.cluster for v in vs)),
                "e1_rate": repr(sum(v.e1 for v in vs) / blocks),
                "e2_rate": repr(sum(v.e2 for v in vs) / blocks),
                "e3_rate": repr(sum(v.e3 for v in vs) / blocks),
                "d_rate": repr(sum(v.dense for v in vs) / blocks),
                "edges": str(len(edges)),
                "xs_mean": repr(sum(v.internal for v in vs) / blocks),
                "wall_ms": "",
            }
            for key, val in want.items():
                if row[key] != val:
                    problems.append(f"trial {self.checked_trial} h={h}: {key}={row[key]!r}, recount {val!r}")
        return problems


class Readback(Workload):
    name = "readback"
    B, H, C = 2, 14, "2"
    HEIGHTS = (1, 2, 3, 4)
    FIXTURE = "fixture.el"

    def __init__(self, seed: int, threads: int) -> None:
        super().__init__(seed, threads)
        self.fixture_seed = self.rng.getrandbits(63)
        self.probes: list[tuple[list[int], int]] = []

    def setup_calls(self) -> list[tuple[str, ...]]:
        return [("generate", "--b", str(self.B), "--height", str(self.H), "--c", self.C,
                 "--seed", str(self.fixture_seed), "--directed", "--out", self.FIXTURE)]

    def _adjacency(self) -> recount.Adjacency:
        text = Path(self.FIXTURE).read_text()
        problems, arcs = recount.edge_list_problems(
            text, self.B, self.H, self.C, self.fixture_seed, True
        )
        if problems:
            raise RuntimeError(f"the readback fixture is malformed: {problems[:3]}")
        return recount.Adjacency.from_edges(self.B, self.B**self.H, True, arcs)

    def prepare(self, run: RunCall) -> None:
        # One probe the recount finds to be a cluster (verify exits 0) and
        # one random 4-set inside a height-4 subtree (almost never one).
        # The neighbour lists are dropped again so that they do not count
        # toward the timed passes' peak RSS.
        adj = self._adjacency()
        arcs = sum(map(len, adj.out))
        sets = sum(adj.n // self.B**h for h in self.HEIGHTS)
        calls = len(self.HEIGHTS) + 2
        self.work = PassWork(edges=arcs * calls, graphs=calls, calls=calls, sets_checked=sets)
        pairs = [list(M) for M in recount.complete_sets(adj, 1)
                 if recount.evaluate(adj, M, ALPHA, BETA, self.H).cluster]
        first = self.rng.choice(pairs) if pairs else [0, 1]
        root = self.rng.randrange(0, adj.n, self.B**4)
        second = sorted(self.rng.sample(range(root, root + self.B**4), 4))
        self.probes = [
            (first, self.rng.randint(1, self.H)),
            (second, self.rng.randint(recount.set_height(second[0], second[-1], self.B), self.H)),
        ]
        self.sizes = {"n": adj.n, "arcs": arcs, "file_bytes": Path(self.FIXTURE).stat().st_size,
                      "sets": sets, "probes": [",".join(map(str, s)) for s, _ in self.probes]}

    def calls(self) -> list[Call]:
        common = ("--graph", self.FIXTURE, "--alpha", str(ALPHA), "--beta", str(BETA),
                  "--mode", "directed-out")
        out = [Call(("enumerate", *common, "--height", str(h))) for h in self.HEIGHTS]
        for members, h_star in self.probes:
            out.append(Call(("verify", *common, "--set", ",".join(map(str, members)),
                             "--hstar", str(h_star))))
        return out

    def check(self, outcomes: list[Outcome], run: RunCall) -> list[list[str]]:
        adj = self._adjacency()
        verdicts = []
        for h, o in zip(self.HEIGHTS, outcomes):
            problems = _exit_problems(o)
            want = [
                f"{','.join(map(str, M))} height={h} complete"
                for M in recount.complete_sets(adj, h)
                if recount.evaluate(adj, M, ALPHA, BETA, self.H).cluster
            ]
            got = [line for line in o.stdout.splitlines() if not line.startswith("#")]
            if got != want or f"# clusters={len(want)}" not in o.stdout.splitlines():
                problems.append(f"enumerate h={h}: {len(got)} clusters listed, recount {len(want)}")
            verdicts.append(problems)
        for (members, h_star), o in zip(self.probes, outcomes[len(self.HEIGHTS):]):
            v = recount.evaluate(adj, members, ALPHA, BETA, h_star)
            problems = _exit_problems(o, 0 if v.cluster else 1)
            flags = {"dense": v.dense, "sparse": v.sparse, "e1": v.e1, "e2": v.e2,
                     "e3": v.e3, "cluster": v.cluster}
            lines = set(o.stdout.splitlines())
            for key, val in flags.items():
                if f"{key}={str(val).lower()}" not in lines:
                    problems.append(f"verify {members}: {key} differs from recount {val}")
            verdicts.append(problems)
        return verdicts


def outcome_key(o: Outcome) -> tuple:
    """What two passes must agree on: exit code, stdout, output digest."""
    return o.rc, o.stdout, None if o.output is None else hashlib.sha256(o.output).hexdigest()


def count_failures(
    wl: Workload, first: list[Outcome], keys: list[list[tuple]], run: RunCall
) -> tuple[int, int]:
    """Check the first pass's outcomes against the recount; every pass,
    with `keys` from `outcome_key`, must reproduce the first byte for
    byte.  Returns (attempted, failed)."""
    try:
        verdicts = wl.check(first, run)
    except (ValueError, KeyError, IndexError, AttributeError, UnicodeDecodeError) as exc:
        verdicts = [[f"check raised {exc!r}"]] * len(first)
    for call, problems in zip(wl.calls(), verdicts):
        for problem in problems:
            print(f"# FAIL {' '.join(call.argv)}: {problem}", file=sys.stderr)
    attempted = failed = 0
    for index, pass_keys in enumerate(keys):
        for want, problems, key in zip(keys[0], verdicts, pass_keys):
            attempted += 1
            if problems or key != want:
                failed += 1
                if not problems:
                    print(f"# FAIL pass {index} differs from pass 0", file=sys.stderr)
    return attempted, failed


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Generate, Sweep, Readback)}
