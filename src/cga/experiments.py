"""Deterministic Monte Carlo harness.

Trials derive their graph seeds from the experiment master seed through
SplitMix64: the trial at position i of the sweep (position = tree-height
index * trials + trial index) uses splitmix64(master_seed, i).  Every
estimator here is a pure function of its config, so reruns reproduce
identical output bytes.  Trials run in order on the calling thread.

`ExperimentConfig` alone knows the config format and the probe set: its
`from_text` reads back what its `items()` echoes.

Each experiment kind returns its CSV rows, one `NamedTuple` type per kind
(`SweepRow`, `EventRow`, `TrendRow`, `XsRow`) whose fields are the CSV
columns.  `rows_csv` prints them after `# key=value` comment lines echoing
the full resolved config.  The sweep has one row per trial and scanned
height.

Measurements that were not collected are emitted as empty fields, never as
zeros.  Wall-clock timing is a measurement like any other ("wall") and is
off by default, which keeps default CSV output byte-reproducible.
"""

from __future__ import annotations

import math
import time
from dataclasses import MISSING, dataclass, fields
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .bounds import expected_internal_edges, m_star, threshold_heights
from .clusters import (
    ClusterSpec,
    complete_set_scan,
    event_report,
    unit_fraction,
)
from .generator import Graph, expected_edge_count, format_real, sample_graph
from .oracle import DEFAULT_WORK_BUDGET, WorkBudgetError
from .rng import check_seed, splitmix64, substream
from .tree import TreeParams, VertexSet

ALL_MEASURES = frozenset({"cliques", "dense", "clusters", "events", "xs", "edges", "wall"})
DEFAULT_MEASURES = frozenset({"cliques", "dense", "clusters", "events", "xs", "edges"})

DEFAULT_MAX_N = 2**22


def parse_config_text(text: str) -> dict[str, tuple[int, str]]:
    """The `key=value` pairs of a config text, as key -> (line number,
    value); `#` starts a comment, and a key may appear once."""
    values: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        values[key] = lineno, val
    return values


def _split(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _flag(text: str):
    # 0 or 1, or the echo's False or True; ExperimentConfig refuses other text
    return {"0": 0, "1": 1, "False": 0, "True": 1}.get(text, text)


# How each config key reads from text and prints in the echo.  A key whose
# default is None reads an empty value as None, and None prints empty.
_CONFIG_TEXT: dict[str, tuple[Callable[[str], object], Callable]] = {
    "b": (int, str),
    "c": (float, format_real),
    "h_from": (int, str),
    "h_to": (int, str),
    "alpha": (str, str),
    "beta": (str, str),
    "epsilon": (float, repr),
    "trials": (int, str),
    "seed": (int, str),
    "heights": (lambda text: tuple(int(tok) for tok in _split(text)),
                lambda val: ",".join(map(str, val))),
    "measures": (lambda text: frozenset(_split(text)), lambda val: ",".join(sorted(val))),
    "h_star": (int, str),
    "directed": (_flag, str),
    "set_height": (int, str),
    "set_size": (int, str),
    "placement": (str, str),
    "candidates": (int, str),
    "allow_large": (_flag, str),
    "work_budget": (int, str),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; immutable and fully echoed into output.

    An events run places `set_size` leaves of a height-`set_height` subtree
    in each splitting block, by `placement` ("spread" deals them round-robin
    over the subtree's children, so a set of size >= 2 attains the height
    exactly; "left" takes the leftmost leaves); xs scans height `set_height`."""

    b: int
    c: float
    h_from: int
    h_to: int
    alpha: Fraction = Fraction(1, 2)
    beta: Fraction = Fraction(1, 2)
    epsilon: float | None = None
    trials: int = 100
    seed: int = 0
    heights: tuple[int, ...] = ()
    measures: frozenset[str] = DEFAULT_MEASURES
    h_star: int | None = None
    directed: bool = False
    set_height: int | None = None
    set_size: int | None = None
    placement: str = "spread"
    candidates: int = 200
    allow_large: bool = False
    work_budget: int = DEFAULT_WORK_BUDGET

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", unit_fraction(self.alpha, "alpha"))
        object.__setattr__(self, "beta", unit_fraction(self.beta, "beta"))
        object.__setattr__(self, "heights", tuple(self.heights))
        object.__setattr__(self, "measures", frozenset(self.measures))
        check_seed(self.seed)
        if self.placement not in ("spread", "left"):
            raise ValueError(f"unknown placement rule {self.placement!r}")
        if self.epsilon is not None and not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon!r}")
        for name in ("directed", "allow_large"):
            if getattr(self, name) not in (0, 1):  # False and True compare equal to 0 and 1
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        for name in ("candidates", "work_budget"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.h_from > self.h_to:
            raise ValueError(f"empty height range [{self.h_from}, {self.h_to}]")
        unknown = self.measures - ALL_MEASURES
        if unknown:
            raise ValueError(f"unknown measures: {sorted(unknown)}")
        if len(set(self.heights)) < len(self.heights):
            raise ValueError(f"heights must be distinct, got {','.join(map(str, self.heights))}")
        for h in self.heights:
            if not 0 <= h <= self.h_from:
                raise ValueError(
                    f"scanned height {h} outside [0, {self.h_from}] (the smallest tree height)"
                )
        if self.h_star is not None:
            lo = max(0, *self.heights, self.set_height or 0)
            if not lo <= self.h_star <= self.h_from:
                raise ValueError(
                    f"h_star {self.h_star} outside [{lo}, {self.h_from}]: it must reach "
                    "every scanned height and set_height, and stay within h_from"
                )
        # the smallest and the largest parameter sets validate b, c and size
        TreeParams(self.b, self.h_from, self.c)
        if self.set_height is not None and not 0 <= self.set_height <= self.h_from:
            raise ValueError(f"set_height {self.set_height} outside [0, {self.h_from}] "
                             "(the smallest tree height)")
        if self.set_size is not None and self.set_size < 1:
            raise ValueError(f"set_size must be >= 1, got {self.set_size}")
        if self.set_height is not None and (self.set_size or 0) > self.b**self.set_height:
            raise ValueError(f"set_size {self.set_size} exceeds the {self.b**self.set_height} "
                             f"leaves of a height-{self.set_height} subtree")
        params = TreeParams(self.b, self.h_to, self.c)
        if params.n > DEFAULT_MAX_N and not self.allow_large:
            raise ValueError(
                f"n = {params.n} exceeds the desk-scale cap {DEFAULT_MAX_N}; "
                "set allow_large to override"
            )

    @property
    def tree_heights(self) -> range:
        return range(self.h_from, self.h_to + 1)

    def params_for(self, tree_height: int) -> TreeParams:
        return TreeParams(self.b, tree_height, self.c)

    @property
    def resolved_epsilon(self) -> float:
        if self.epsilon is not None:
            return float(self.epsilon)
        return min(0.1, math.log(self.c) / (8 * math.log(self.b)))

    @property
    def cluster_spec(self) -> ClusterSpec:
        return ClusterSpec(self.alpha, self.beta)

    def trial_seed(self, tree_height: int, trial: int) -> int:
        idx = list(self.tree_heights).index(tree_height) * self.trials + trial
        return splitmix64(self.seed, idx)

    def resolve_h_star(self, tree_height: int, h: int) -> int:
        """Integer splitting height: the configured value, else the
        smallest admissible integer at or above the real threshold
        height, clamped to [h, H]."""
        if self.h_star is not None:
            if not h <= self.h_star <= tree_height:
                raise ValueError(
                    f"configured h_star {self.h_star} outside [{h}, {tree_height}]"
                )
            return self.h_star
        params = self.params_for(tree_height)
        real = threshold_heights(params, self.resolved_epsilon).h_star
        return min(tree_height, max(h, math.ceil(real)))

    @classmethod
    def from_text(cls, text: str) -> ExperimentConfig:
        """The config of a `key=value` text, such as a config file or the
        `# key=value` lines of an output with their `# ` taken off.  Each
        key may appear once, and b, c, h_from and h_to are required."""
        raw = parse_config_text(text)
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(raw) - set(defaults)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {key for key, default in defaults.items() if default is MISSING} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        values = {}
        for key, (lineno, val) in raw.items():
            try:
                values[key] = (None if val == "" and defaults[key] is None
                               else _CONFIG_TEXT[key][0](val))
            except ValueError as exc:
                raise ValueError(f"config line {lineno}: {key} = {val!r}: {exc}") from exc
        return cls(**values)

    def items(self) -> list[tuple[str, str]]:
        """Resolved settings as printable (key, value) pairs, for echo;
        `from_text` reads them back."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values["epsilon"] = self.resolved_epsilon
        return [(key, "" if val is None else _CONFIG_TEXT[key][1](val))
                for key, val in values.items()]


def _run_trials(cfg: ExperimentConfig, work: Callable, measure: Callable) -> list[list]:
    """Sample the graph of every (tree height, trial) once, on its trial
    seed, and return `measure(g, trial, seed, started)` for each, where
    `started` is the perf_counter reading taken before sampling.  Results
    are grouped by tree height, in trial order.

    Before any sampling, a run is refused if on some tree height H the
    expected arcs of a graph plus the reads `work(H)` counts would exceed
    the work budget.  `work(H)` is the pair (reads, context named by the
    refusal), or None when graphs of H are not scanned.  The arcs are
    twice `expected_edge_count`, as the CSR stores an undirected edge both
    ways and a directed pair flips two coins."""
    for tree_height in cfg.tree_heights:
        scan = work(tree_height)
        if scan is not None:
            reads, context = scan
            est = math.ceil(2 * expected_edge_count(cfg.params_for(tree_height))) + reads
            if est > cfg.work_budget:
                raise WorkBudgetError(est, cfg.work_budget, context)

    def run(tree_height: int, trial: int):
        started = time.perf_counter()
        seed = cfg.trial_seed(tree_height, trial)
        g = sample_graph(cfg.params_for(tree_height), seed, directed=cfg.directed)
        return measure(g, trial, seed, started)

    return [[run(tree_height, trial) for trial in range(cfg.trials)]
            for tree_height in cfg.tree_heights]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_csv(cfg: ExperimentConfig, row_type: type, rows: Iterable[Sequence], echo=()) -> str:
    """Render `rows` under the header `row_type._fields`, prefixed by the
    resolved configuration and any extra `echo` pairs as `# key=value`
    lines.  Floats print in shortest round-trip form and None as an empty
    field."""
    lines = [f"# {key}={val}" for key, val in (*cfg.items(), *echo)]
    lines.append(",".join(row_type._fields))
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


class SweepRow(NamedTuple):
    """One trial's scan of one height h, as a row of the sweep CSV.  None
    marks a measurement that was not collected, wall time included."""

    trial: int
    seed: int
    b: int
    H: int
    c: str
    alpha: Fraction
    beta: Fraction
    epsilon: float
    h: int
    n: int
    cliques: int | None
    dense_complete: int | None
    complete_clusters: int | None
    e1_rate: float | None
    e2_rate: float | None
    e3_rate: float | None
    d_rate: float | None
    edges: int | None
    xs_mean: float | None
    wall_ms: float | None


def _scan_height(
    g: Graph, spec: ClusterSpec, h: int, h_star: int, measures: frozenset[str]
) -> dict:
    """The `SweepRow` columns that one scan at height h fills."""
    scan = complete_set_scan(g, spec, h, h_star)
    blocks = len(scan.internal)
    full = g.params.b**h * (g.params.b**h - 1) // 2
    want_events = "events" in measures
    want_dense = "dense" in measures or want_events
    want_clusters = "clusters" in measures or want_events
    dense = int(scan.dense.sum())

    return dict(
        cliques=int((scan.internal == full).sum()) if "cliques" in measures else None,
        dense_complete=dense if want_dense else None,
        complete_clusters=int(scan.cluster.sum()) if want_clusters else None,
        e1_rate=1.0 if want_events else None,
        e2_rate=int(scan.e2.sum()) / blocks if want_events else None,
        e3_rate=int(scan.e3.sum()) / blocks if want_events else None,
        d_rate=dense / blocks if want_events else None,
        xs_mean=int(scan.internal.sum()) / blocks if "xs" in measures else None,
    )


def run_threshold_sweep(cfg: ExperimentConfig) -> list[SweepRow]:
    """Sample trials across the configured tree heights and scan every
    requested height for cliques, dense complete sets, complete clusters,
    event rates and internal-edge statistics, one row per trial and height."""
    h_stars = {(H, h): cfg.resolve_h_star(H, h) for H in cfg.tree_heights for h in cfg.heights}
    spec, c, eps = cfg.cluster_spec, format_real(cfg.c), cfg.resolved_epsilon

    def work(tree_height: int):
        if not cfg.heights:
            return None  # the trials only sample and count edges
        return cfg.b**tree_height, f"sweep at H={tree_height}, height={cfg.heights[0]}"

    def measure(g: Graph, trial: int, seed: int, started: float) -> list[SweepRow]:
        H = g.params.H
        scans = [_scan_height(g, spec, h, h_stars[H, h], cfg.measures) for h in cfg.heights]
        edges = g.edge_count if "edges" in cfg.measures else None
        wall = (time.perf_counter() - started) * 1e3 if "wall" in cfg.measures else None
        return [SweepRow(trial, seed, cfg.b, H, c, cfg.alpha, cfg.beta, eps, h, g.params.n,
                         edges=edges, wall_ms=wall, **scan)
                for h, scan in zip(cfg.heights, scans)]

    return [row for group in _run_trials(cfg, work, measure) for rows in group for row in rows]


def sweep_csv(cfg: ExperimentConfig, rows: Iterable[SweepRow]) -> str:
    """The sweep CSV; the benchmark times it by this name."""
    return rows_csv(cfg, SweepRow, rows)


# --- event probability estimation ------------------------------------------


def place_set(cfg: ExperimentConfig, block_root: int, params: TreeParams) -> VertexSet:
    """The probe set of the config's events run inside the complete
    height-`set_height` subtree whose first leaf is `block_root`."""
    b, h, m = params.b, cfg.set_height, cfg.set_size
    if cfg.placement == "left" or h == 0:
        members = range(block_root, block_root + m)
    else:
        child = b ** (h - 1)
        members = (block_root + (t % b) * child + (t // b) for t in range(m))
    return VertexSet.from_leaves(members, params)


class EventRow(NamedTuple):
    """The frequency of one event over the probe sets of one tree height,
    with its standard error, as a row of the events CSV.  Event "all" is
    the joint D, E1, E2, E3 event."""

    H: int
    n: int
    h_star: int
    event: str
    frequency: float
    se: float
    count: int
    observations: int


EVENT_KEYS = ("D", "E1", "E2", "E3", "all")


def estimate_event_probs(cfg: ExperimentConfig) -> list[EventRow]:
    """Place one probe set per splitting block per trial and measure the
    frequency of each density/sparseness event, from one scan per trial."""
    if cfg.set_height is None or cfg.set_size is None:
        raise ValueError("events experiments need set_height and set_size in the config")
    spec = cfg.cluster_spec
    h_stars = {H: cfg.resolve_h_star(H, cfg.set_height) for H in cfg.tree_heights}
    # the probe set of block 0; the block at root r holds r + offsets
    offsets = place_set(cfg, 0, cfg.params_for(cfg.h_to)).members

    def work(tree_height: int):
        return cfg.b**tree_height, f"events at H={tree_height}, height={h_stars[tree_height]}"

    def measure(g: Graph, trial: int, seed: int, started: float) -> list[int]:
        h_star = h_stars[g.params.H]
        scan = complete_set_scan(g, spec, h_star, h_star, offsets)
        return [int(a.sum()) for a in (scan.dense, scan.e1, scan.e2, scan.e3, scan.cluster)]

    rows = []
    for tree_height, tallies in zip(cfg.tree_heights, _run_trials(cfg, work, measure)):
        n, h_star = cfg.b**tree_height, h_stars[tree_height]
        obs = n // cfg.b**h_star * cfg.trials
        for key, count in zip(EVENT_KEYS, map(sum, zip(*tallies))):
            freq = count / obs
            se = math.sqrt(freq * (1 - freq) / obs)
            rows.append(EventRow(tree_height, n, h_star, key, freq, se, count, obs))
    return rows


def events_csv(cfg: ExperimentConfig, rows: Iterable[EventRow]) -> str:
    """The events CSV, whose echo repeats the probe set as `template_*`."""
    echo = (
        ("template_height", cfg.set_height),
        ("template_size", cfg.set_size),
        ("template_placement", cfg.placement),
    )
    return rows_csv(cfg, EventRow, rows, echo)


# --- externally sparse sets below the size threshold ------------------------


class TrendRow(NamedTuple):
    """Empirical occurrence of externally sparse sets of size m at one
    tree height, next to a per-set bound and its union over all C(n, m)
    sets, as a row of the trend CSV.

    A non-member breaks sparseness of an m-set once it has
    k = floor(alpha*m) + 1 edges into it.  Every pair (every arc, when
    directed) is present with probability at least c**-H, and the edges
    from different non-members into the set are independent, so a fixed
    m-set is externally sparse with probability at most
    (1 - c**(-k*H))**(n - m) <= exp(-(n - m) * c**(-k*H)).  The bound is
    1.0 when k > m, where no vertex can break sparseness.  `exhaustive` is
    1 when every m-set is a candidate (n <= 20), else 0."""

    H: int
    n: int
    m: int
    trials: int
    exist_freq: float
    exist_se: float
    candidate_freq: float
    candidate_se: float
    per_set_bound: float
    union_bound: float
    exhaustive: int
    candidates_per_trial: int


def _local_block(b: int, m: int) -> int:
    """The leaf count of the smallest complete sets that hold m leaves."""
    block = 1
    while block < m:
        block *= b
    return block


def _candidate_count(cfg: ExperimentConfig, n: int, m: int) -> int:
    """An upper bound on the number of sets `_candidate_sets` returns."""
    if n <= 20:
        return math.comb(n, m)
    block = _local_block(cfg.b, m)
    return n // block * math.comb(block, m) + cfg.candidates


def _candidate_sets(
    cfg: ExperimentConfig, params: TreeParams, m: int, seed: int
) -> list[tuple[int, ...]]:
    """Candidate m-subsets: exhaustive for n <= 20, otherwise every
    m-subset local to one minimal-height complete set plus random
    subsets from the trial's auxiliary stream."""
    n = params.n
    if n <= 20:
        return list(combinations(range(n), m))
    block = _local_block(params.b, m)
    local: list[tuple[int, ...]] = []
    for root in range(0, n, block):
        for combo in combinations(range(root, root + block), m):
            local.append(combo)
    gen = substream(seed, 0, 1)
    extra = {
        tuple(sorted(int(x) for x in gen.choice(n, size=m, replace=False)))
        for _ in range(cfg.candidates)
    }
    seen = set(local)
    for combo in sorted(extra):
        if combo not in seen:
            local.append(combo)
    return local


def trend_sparse_below_mstar(cfg: ExperimentConfig) -> list[TrendRow]:
    """For every integer size m below the threshold size, measure how often
    externally sparse sets of that size occur, per tree height."""
    ms = m_star(cfg.alpha, cfg.b, cfg.c)
    sizes = [m for m in range(1, math.ceil(ms)) if m < ms]
    if not sizes:
        raise ValueError(
            f"m_star = {ms} leaves no integer sizes below it; nothing to test"
        )
    if sizes[-1] > cfg.b**cfg.h_from:
        raise ValueError(
            f"size m = {sizes[-1]} below m_star exceeds n = {cfg.b**cfg.h_from} "
            f"at H = {cfg.h_from}, so it has no candidate sets"
        )
    spec = cfg.cluster_spec
    singleton_max = spec.cutoffs(1)[1]

    def work(tree_height: int):
        # the singletons read the CSR; each candidate set of m >= 2 checks its m members
        n = cfg.b**tree_height
        members = sum(m * _candidate_count(cfg, n, m) for m in sizes if m >= 2)
        return members, f"trend at H={tree_height}"

    def measure(g: Graph, trial: int, seed: int, started: float) -> list[tuple[int, int]]:
        tally = []
        for m in sizes:
            if m == 1:
                # every leaf is a candidate, and each in-neighbor of v sends
                # {v} one edge: {v} is sparse unless it has an in-neighbor
                # and 1 > sparse_max
                tally.append((g.n - (g.count_with_in_neighbors() if singleton_max < 1 else 0), g.n))
                continue
            candidates = _candidate_sets(cfg, g.params, m, seed)
            found = sum(
                event_report(combo, g, spec, g.params.H).externally_sparse
                for combo in candidates
            )
            tally.append((found, len(candidates)))
        return tally

    rows = []
    for tree_height, tallies in zip(cfg.tree_heights, _run_trials(cfg, work, measure)):
        n = cfg.b**tree_height
        for m, outcomes in zip(sizes, zip(*tallies)):
            total_found = sum(o[0] for o in outcomes)
            total_checked = sum(o[1] for o in outcomes)
            exist_freq = sum(o[0] > 0 for o in outcomes) / cfg.trials
            cand_freq = total_found / total_checked
            k = spec.cutoffs(m)[1] + 1
            per_set = 1.0 if k > m else math.exp(-(n - m) * cfg.c ** (-k * tree_height))
            rows.append(TrendRow(
                tree_height, n, m, cfg.trials,
                exist_freq, math.sqrt(exist_freq * (1 - exist_freq) / cfg.trials),
                cand_freq, math.sqrt(cand_freq * (1 - cand_freq) / total_checked),
                per_set, math.comb(n, m) * per_set,
                int(n <= 20), total_checked // cfg.trials,
            ))
    return rows


# --- internal-edge statistics ------------------------------------------------


class XsRow(NamedTuple):
    """Empirical internal-edge statistics of the complete height-h sets of
    every trial at one tree height, next to the analytic expectation, as a
    row of the xs CSV."""

    H: int
    n: int
    h: int
    trials: int
    observations: int
    emp_mean: float
    emp_var: float
    analytic_mean: float


def xs_statistics(cfg: ExperimentConfig) -> list[XsRow]:
    """Internal edge counts over all complete height-`set_height` sets of
    every trial, per tree height."""
    h = cfg.set_height
    if h is None:
        raise ValueError("xs experiments need set_height in the config")

    def work(tree_height: int):
        return cfg.b**tree_height, f"xs at H={tree_height}, height={h}"

    def measure(g: Graph, trial: int, seed: int, started: float) -> list[int]:
        return complete_set_scan(g, cfg.cluster_spec, h, g.params.H).internal.tolist()

    rows = []
    for tree_height, per_trial in zip(cfg.tree_heights, _run_trials(cfg, work, measure)):
        params = cfg.params_for(tree_height)
        xs = [x for counts in per_trial for x in counts]
        count = len(xs)
        mean = sum(xs) / count
        var = sum(x * x for x in xs) / count - mean * mean
        analytic = expected_internal_edges(h, params) if h >= 1 else 0.0
        rows.append(XsRow(tree_height, params.n, h, cfg.trials, count, mean, var, analytic))
    return rows
