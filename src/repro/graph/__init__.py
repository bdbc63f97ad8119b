"""Heterogeneous academic network substrate (Sec. IV-A)."""

from repro.graph.builder import attach_paper_to_network, build_academic_network
from repro.graph.hetero import (
    ENTITY_TYPES,
    ONE_WAY_RELATIONS,
    RELATION_TYPES,
    EntityKey,
    HeterogeneousGraph,
)
from repro.graph.sampling import neighbour_table, receptive_fields

__all__ = [
    "HeterogeneousGraph", "EntityKey",
    "ENTITY_TYPES", "RELATION_TYPES", "ONE_WAY_RELATIONS",
    "build_academic_network", "attach_paper_to_network",
    "neighbour_table", "receptive_fields",
]
