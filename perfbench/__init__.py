"""chrono-rdf's benchmark: seeded workloads, a ledger gate and a traced split.

`run.py` is the entry point; README.md describes the workloads and metrics.
"""
