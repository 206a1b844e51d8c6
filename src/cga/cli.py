"""Command-line front end.

Subcommands: generate | verify | enumerate | oracle | bounds | experiment.

Every run echoes its full resolved configuration as `# key=value` lines so
any output can be reproduced from the output alone: an experiment's echo
lines of config keys, with the `# ` taken off, are a config file for the
same run.  All randomness flows from the --seed flag.  Exit codes: 0
success (and "is a cluster" for verify), 1 verify found a non-cluster, 2
usage or parameter error, 3 I/O failure, 4 work-budget refusal.  A refused
run prints nothing to stdout: each command computes its result, or writes
its file, before it echoes.  `oracle --budget` sets the subset search's work
budget, by default `oracle.DEFAULT_WORK_BUDGET` checks.
"""

from __future__ import annotations

import argparse
import sys

from . import bounds as bounds_mod
from .clusters import ClusterSpec, as_fraction, event_report
from .experiments import (
    ExperimentConfig,
    TrendRow,
    XsRow,
    estimate_event_probs,
    events_csv,
    rows_csv,
    run_threshold_sweep,
    sweep_csv,
    trend_sparse_below_mstar,
    xs_statistics,
)
from .generator import (
    Graph,
    format_real,
    read_edge_list,
    sample_graph,
    write_edge_list,
)
from .oracle import (
    DEFAULT_WORK_BUDGET,
    WorkBudgetError,
    enumerate_clusters,
    enumerate_complete_clusters,
)
from .tree import TreeParams, VertexSet

EXIT_OK = 0
EXIT_NOT_CLUSTER = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4

# the exit code of an error is that of the first kind it is an instance of:
# io.UnsupportedOperation is both a ValueError and an OSError
_EXIT_CODES = {
    WorkBudgetError: EXIT_BUDGET,
    ValueError: EXIT_USAGE,
    KeyError: EXIT_USAGE,
    OSError: EXIT_IO,
}

THREADS_HELP = "checked (must be >= 1) and kept for compatibility; all work runs on one thread"
MODE_HELP = ("checked and kept for compatibility: edges are counted by the graph's direction, "
             "and undirected is refused on a directed graph")


def _echo_config(out, pairs) -> None:
    for key, val in pairs:
        print(f"# {key}={val}", file=out)


def _at_least(least: int):
    """An argparse type: an integer of at least `least`."""

    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return integer


def _parse_set(text: str, params: TreeParams) -> VertexSet:
    try:
        members = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"--set must be a comma-separated vertex list, got {text!r}") from exc
    if not members:
        raise ValueError("--set must name at least one vertex")
    return VertexSet.from_leaves(members, params)


def cmd_generate(args) -> int:
    params = TreeParams(args.b, args.height, args.c)
    g = sample_graph(params, args.seed, directed=args.directed)
    write_edge_list(g, args.out)
    _echo_config(
        sys.stdout,
        [
            ("command", "generate"),
            ("b", params.b),
            ("H", params.H),
            ("c", format_real(params.c)),
            ("seed", args.seed),
            ("directed", int(args.directed)),
            ("threads", args.threads),
            ("out", args.out),
        ],
    )
    print(f"wrote {g.edge_count} {'arcs' if g.directed else 'edges'} to {args.out}")
    return EXIT_OK


def _load(args) -> tuple[Graph, ClusterSpec, str]:
    """The graph of --graph, the flags' thresholds, and the mode to echo
    (by default the graph's direction)."""
    g = read_edge_list(args.graph)
    if args.mode == "undirected" and g.directed:
        raise ValueError("--mode undirected needs an undirected graph")
    mode = args.mode or ("directed-out" if g.directed else "undirected")
    return g, ClusterSpec(args.alpha, args.beta), mode


def cmd_verify(args) -> int:
    g, spec, mode = _load(args)
    M = _parse_set(args.set, g.params)
    rep = event_report(M, g, spec, args.hstar if args.hstar is not None else g.params.H)
    _echo_config(
        sys.stdout,
        [
            ("command", "verify"),
            ("graph", args.graph),
            ("set", ",".join(str(v) for v in M.members)),
            ("alpha", spec.alpha),
            ("beta", spec.beta),
            ("mode", mode),
            ("hstar", args.hstar if args.hstar is not None else ""),
        ],
    )
    print(f"set_height={M.height}")
    print(f"dense={str(rep.dense).lower()}")
    print(f"sparse={str(rep.externally_sparse).lower()}")
    if args.hstar is not None:
        print(f"e1={str(rep.e1).lower()}")
        print(f"e2={str(rep.e2).lower()}")
        print(f"e3={str(rep.e3).lower()}")
    for w in rep.witnesses:
        limit = spec.beta * len(M) if w.event == "D" else spec.alpha * len(M)
        relation = ">=" if w.event == "D" else "<="
        print(
            f"witness: event={w.event} vertex={w.vertex} edges={w.edges} "
            f"required{relation}{limit}"
        )
    verdict = rep.is_cluster
    print(f"cluster={str(verdict).lower()}")
    return EXIT_OK if verdict else EXIT_NOT_CLUSTER


def _print_cluster_list(args, spec: ClusterSpec, mode: str, result, settings) -> None:
    """The echo and the cluster list of `enumerate` or `oracle`; `settings`
    are the command's own echo pairs."""
    _echo_config(
        sys.stdout,
        [
            ("command", args.subcommand),
            ("graph", args.graph),
            ("alpha", spec.alpha),
            ("beta", spec.beta),
            ("mode", mode),
            *settings,
        ],
    )
    print(f"# search_space={result.search_space}")
    print(f"# clusters={len(result.clusters)}")
    for M, complete in zip(result.clusters, result.complete):
        tag = "complete" if complete else "partial"
        print(f"{','.join(str(v) for v in M.members)} height={M.height} {tag}")


def cmd_enumerate(args) -> int:
    g, spec, mode = _load(args)
    result = enumerate_complete_clusters(g, spec, args.height)
    _print_cluster_list(args, spec, mode, result, [("height", args.height)])
    return EXIT_OK


def cmd_oracle(args) -> int:
    g, spec, mode = _load(args)
    result = enumerate_clusters(g, spec, args.max_size, work_budget=args.budget)
    _print_cluster_list(args, spec, mode, result,
                        [("max_size", args.max_size), ("work_budget", args.budget)])
    return EXIT_OK


def cmd_bounds(args) -> int:
    if args.m is not None and args.height is None:
        raise ValueError("--m needs --height")
    if args.family_size is not None and args.m is None:
        raise ValueError("--family-size needs --m")
    epsilon = bounds_mod.resolve_epsilon(args.epsilon, args.b, args.c)
    alpha = float(as_fraction(args.alpha, "alpha"))
    # every value is computed before anything prints, so a refusal leaves stdout empty
    lines = [
        f"m_star={repr(bounds_mod.m_star(alpha, args.b, args.c))}",
        f"gamma={repr(bounds_mod.gamma_constant(alpha, args.b, args.c))}",
    ]
    if args.height is not None:
        params = TreeParams(args.b, args.height, args.c)
        hs = bounds_mod.threshold_heights(params, epsilon)
        lines += [
            f"h_star={repr(hs.h_star)}",
            f"h_epsilon={repr(hs.h_epsilon)}",
            f"tall_height={repr(hs.tall_height)}",
        ]
        for h in range(0, args.height + 1):
            lv = bounds_mod.clique_count_lower_bound(h, params)
            parts = [
                f"h={h}",
                f"clique_count_lower_bound={repr(lv.value)}",
                f"log={repr(lv.log)}",
            ]
            if h >= 1:
                parts.append(
                    f"exact_clique_probability={repr(bounds_mod.exact_clique_probability(h, params))}"
                )
                parts.append(
                    f"expected_internal_edges={repr(bounds_mod.expected_internal_edges(h, params))}"
                )
            lines.append(" ".join(parts))
        if args.m is not None:
            family = args.family_size if args.family_size is not None else params.n
            lines.append(
                f"cluster_count_guarantee="
                f"{repr(bounds_mod.cluster_count_guarantee(args.m, params, alpha, family))}"
            )
    _echo_config(
        sys.stdout,
        [
            ("command", "bounds"),
            ("b", args.b),
            ("c", format_real(args.c)),
            ("alpha", args.alpha),
            ("epsilon", epsilon),
            ("height", args.height if args.height is not None else ""),
            ("m", args.m if args.m is not None else ""),
            ("family_size", args.family_size if args.family_size is not None else ""),
        ],
    )
    print("\n".join(lines))
    return EXIT_OK


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r") as fh:
        return ExperimentConfig.from_text(fh.read())


# the CSV of each experiment kind; the names are looked up at call time, so
# a caller that rebinds them in this module (a tracer) sees the calls
EXPERIMENTS = {
    "sweep": lambda cfg: sweep_csv(cfg, run_threshold_sweep(cfg)),
    "events": lambda cfg: events_csv(cfg, estimate_event_probs(cfg)),
    "trend": lambda cfg: rows_csv(cfg, TrendRow, trend_sparse_below_mstar(cfg)),
    "xs": lambda cfg: rows_csv(cfg, XsRow, xs_statistics(cfg)),
}


def cmd_experiment(args) -> int:
    text = EXPERIMENTS[args.kind](load_experiment_config(args.config))
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cga",
        description="Hierarchical community-guided random graphs and cluster analysis",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("generate", help="sample a graph and write its edge list")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--height", type=int, required=True, help="tree height H")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--directed", action="store_true")
    p.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    on_graph = argparse.ArgumentParser(add_help=False)  # the options `_load` reads
    on_graph.add_argument("--graph", required=True)
    on_graph.add_argument("--alpha", required=True)
    on_graph.add_argument("--beta", required=True)
    on_graph.add_argument("--mode", choices=["undirected", "directed-out"], help=MODE_HELP)

    p = sub.add_parser("verify", parents=[on_graph],
                       help="check one vertex set against the cluster definition")
    p.add_argument("--set", required=True, help="comma-separated vertex list")
    p.add_argument("--hstar", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", parents=[on_graph], help="list complete clusters at one height")
    p.add_argument("--height", type=int, required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("oracle", parents=[on_graph],
                       help="list every cluster up to a size cap (exhaustive)")
    p.add_argument("--max-size", type=int, required=True, dest="max_size")
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_WORK_BUDGET,
                   help="work budget in elementary checks")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate the closed-form constants and bounds")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--alpha", required=True)
    p.add_argument("--epsilon", type=float, default=None,
                   help="default min(0.1, ln c / (8 ln b)), as in experiment configs")
    p.add_argument("--height", type=int, default=None, help="tree height H")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--family-size", type=_at_least(1), default=None, dest="family_size")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment from a config file")
    p.add_argument("kind", choices=list(EXPERIMENTS))
    p.add_argument("--config", required=True, help="plain-text key=value config file")
    p.add_argument("--out", default=None, help="output CSV path (stdout when omitted)")
    p.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
