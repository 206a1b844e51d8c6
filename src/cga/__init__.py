"""Hierarchical community-guided random graphs: sampling, exact cluster
verification, brute-force enumeration oracles, closed-form bounds, and a
deterministic Monte Carlo experiment harness.

The package exports no names of its own; import them from its modules."""
