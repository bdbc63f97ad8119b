"""Record types for scholarly corpora: papers, authors, venues, patents.

The three real datasets in the paper (ACM DL, Scopus, PubMedRCT) share the
metadata schema "title, abstract, citation, field label" plus authors,
venues, keywords, and references; the patent dataset (PT) has only
ownership and references. One :class:`Paper` dataclass covers all of them —
low-resource records simply leave the optional fields empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Author:
    """A researcher (or patent owner)."""

    id: str
    name: str
    affiliation: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Author.id must be non-empty")


@dataclass(frozen=True)
class Venue:
    """A publication venue (conference or journal)."""

    id: str
    name: str
    field: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Venue.id must be non-empty")


@dataclass(frozen=True)
class Paper:
    """A paper or patent record.

    Attributes
    ----------
    id:
        Unique identifier within its corpus.
    title, abstract:
        Text content. The abstract is a sequence of sentences.
    year:
        Publication year.
    month:
        Publication month 1..12 when known (patent corpora use it for the
        Jan-Oct / Nov-Dec split of Fig. 6); ``None`` otherwise.
    field:
        Discipline label (e.g. ``"computer_science"``).
    category_path:
        Path of tags from the classification-tree root to the paper's leaf
        category (excluding the root itself), used by expert rule f_c.
    keywords:
        Author-chosen keywords, used by expert rule f_w.
    references:
        Ids of cited papers, used by expert rule f_r and the citation graph.
    authors:
        Author ids.
    venue:
        Venue id (``None`` for low-resource records such as patents).
    citation_count:
        Citations received within the evaluation horizon — the ground-truth
        influence signal for the correlation studies.
    sentence_labels:
        Gold per-sentence function tags (0=background, 1=method, 2=result),
        available on PubMedRCT-style records and on all synthetic corpora.
    novelty:
        *Generator-planted* ground-truth novelty per subspace name. Hidden
        from models (they never read it); used by data generation to drive
        citations and by tests to validate recovered correlations.
    """

    id: str
    title: str
    abstract: str
    year: int
    field: str
    month: int | None = None
    category_path: tuple[str, ...] = ()
    keywords: tuple[str, ...] = ()
    references: tuple[str, ...] = ()
    authors: tuple[str, ...] = ()
    venue: str | None = None
    citation_count: int = 0
    sentence_labels: tuple[int, ...] = ()
    novelty: dict[str, float] = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Paper.id must be non-empty")
        if self.citation_count < 0:
            raise ValueError(f"citation_count must be >= 0, got {self.citation_count}")
        if self.month is not None and not 1 <= self.month <= 12:
            raise ValueError(f"month must be in 1..12 or None, got {self.month}")
        if self.id in self.references:
            raise ValueError(f"paper {self.id!r} cannot reference itself")
