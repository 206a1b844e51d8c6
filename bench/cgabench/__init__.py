"""The cga benchmark: workloads, recount, spans and metrics (see bench/README.md)."""
