"""Repository benchmark: four seeded workloads over the public API.

Run ``python bench/run.py`` from the repository root; see
``bench/README.md`` for the workloads, metrics and comparison rules.
"""
