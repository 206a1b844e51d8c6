"""The benchmark's metrics, and the probe that gives the per-layer ones.

`END_TO_END` and `PER_LAYER` map each metric the benchmark reports to its
unit; BENCHMARK.json lists the same names.  `LayerProbe` traces the public functions each layer of `cga` calls in
another layer (the module names are the layer names) and counts, at the
same boundaries, the graphs built and the edges they hold.  `metrics`
turns the spans of one pass into the per-layer figures.
"""

from __future__ import annotations

from .recount import nonempty_blocks
from .spans import Tracer, summarize

TRACED = (
    ("cga.rng", "SubstreamSampler.reset", "rng.reset"),
    ("cga.generator", "Graph.from_edges", "generator.from_edges"),
    ("cga.generator", "sample_graph", "generator.sample_graph"),
    ("cga.generator", "edge_list_text", "generator.edge_list_text"),
    ("cga.generator", "parse_edge_list", "generator.parse_edge_list"),
    ("cga.clusters", "event_report", "clusters.event_report"),
    ("cga.clusters", "internal_edge_count", "clusters.internal_edge_count"),
    ("cga.clusters", "is_cluster", "clusters.is_cluster"),
    ("cga.oracle", "enumerate_complete_clusters", "oracle.enumerate_complete_clusters"),
    ("cga.experiments", "run_threshold_sweep", "experiments.run_threshold_sweep"),
    ("cga.experiments", "sweep_csv", "experiments.sweep_csv"),
    ("cga.cli", "main", "cli.main"),
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "edges_per_s": "1/s",
    "trials_per_s": "1/s",
    "calls_per_s": "1/s",
}

# read from the spans of a traced pass, except three counts read from the
# workload's outputs and the two run-level ratios at the end
PER_LAYER = {
    "rng.reset_s": "s",
    "rng.resets": "count",
    "rng.nonempty_ratio": "ratio",
    "generator.sample_graph.self_s": "s",
    "generator.from_edges_s": "s",
    "generator.edge_list_text_s": "s",
    "generator.parse_edge_list.self_s": "s",
    "generator.edges": "count",
    "generator.graphs": "count",
    "clusters.event_report_s": "s",
    "clusters.event_report.calls": "count",
    "clusters.internal_edge_count_s": "s",
    "clusters.internal_edge_count.calls": "count",
    "clusters.is_cluster_s": "s",
    "clusters.is_cluster.calls": "count",
    "oracle.enumerate_complete_clusters.self_s": "s",
    "oracle.sets_checked": "count",
    "experiments.run_threshold_sweep.self_s": "s",
    "experiments.sweep_csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.sets_scanned": "count",
    "experiments.thread_speedup": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class LayerProbe:
    """Traces the layer boundaries while open; keeps the sampled graphs
    and the edge count of every graph built.  A boundary the program no
    longer has is listed in `missing`, and its metrics read 0."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.sampled: list = []
        self.built_edges: list[int] = []
        self.missing: list[str] = []

    def __enter__(self) -> "LayerProbe":
        hooks = {
            "generator.sample_graph": self.sampled.append,
            "generator.from_edges": lambda g: self.built_edges.append(g.edge_count),
        }
        try:
            for module, qualname, name in TRACED:
                try:
                    self.tracer.patch(module, qualname, name, hooks.get(name))
                except (KeyError, AttributeError):
                    self.missing.append(f"{module}.{qualname}")
        except BaseException:
            self.tracer.close()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.close()

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of the pass just traced, except those read
        from the workload's outputs.  A layer the workload never calls
        reads 0."""
        s = summarize(self.tracer.spans)
        never = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def total(name: str) -> float:
            return s.get(name, never)["total_s"]

        def own(name: str) -> float:
            return s.get(name, never)["self_s"]

        def calls(name: str) -> int:
            return s.get(name, never)["calls"]

        resets = calls("rng.reset")
        nonempty = sum(nonempty_blocks(g.edges(), g.params.b) for g in self.sampled)
        return {
            "rng.reset_s": total("rng.reset"),
            "rng.resets": resets,
            "rng.nonempty_ratio": nonempty / resets if resets else 0.0,
            "generator.sample_graph.self_s": own("generator.sample_graph"),
            "generator.from_edges_s": total("generator.from_edges"),
            "generator.edge_list_text_s": total("generator.edge_list_text"),
            "generator.parse_edge_list.self_s": own("generator.parse_edge_list"),
            "generator.edges": sum(self.built_edges),
            "generator.graphs": len(self.built_edges),
            "clusters.event_report_s": total("clusters.event_report"),
            "clusters.event_report.calls": calls("clusters.event_report"),
            "clusters.internal_edge_count_s": total("clusters.internal_edge_count"),
            "clusters.internal_edge_count.calls": calls("clusters.internal_edge_count"),
            "clusters.is_cluster_s": total("clusters.is_cluster"),
            "clusters.is_cluster.calls": calls("clusters.is_cluster"),
            "oracle.enumerate_complete_clusters.self_s": own("oracle.enumerate_complete_clusters"),
            "experiments.run_threshold_sweep.self_s": own("experiments.run_threshold_sweep"),
            "experiments.sweep_csv_s": total("experiments.sweep_csv"),
            "cli.main.self_s": own("cli.main"),
        }
