"""The :class:`Corpus` container: papers + authors + venues + taxonomy.

A corpus owns the id indexes every other subsystem needs — reference
resolution, reverse citation lookup, per-author publication lists, and the
train/test year splits used throughout Sec. IV.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

from repro.data.schema import Author, Paper, Venue
from repro.data.taxonomy import ClassificationTree
from repro.errors import DataError


class Corpus:
    """An immutable-after-construction collection of scholarly records.

    Parameters
    ----------
    name:
        Corpus label (e.g. ``"acm"``, ``"scopus"``, ``"pt"``).
    papers, authors, venues:
        The records. Papers may reference ids outside the corpus only if
        ``strict=False`` (real bibliographies always have dangling refs).
    taxonomy:
        The classification tree papers' ``category_path`` entries live in.
    strict:
        When True, every reference/author/venue id must resolve.
    """

    def __init__(self, name: str, papers: Iterable[Paper],
                 authors: Iterable[Author] = (), venues: Iterable[Venue] = (),
                 taxonomy: ClassificationTree | None = None,
                 strict: bool = True) -> None:
        self.name = name
        self.taxonomy = taxonomy
        self._papers: dict[str, Paper] = {}
        for paper in papers:
            if paper.id in self._papers:
                raise DataError(f"duplicate paper id {paper.id!r}")
            self._papers[paper.id] = paper
        self._authors = {a.id: a for a in authors}
        self._venues = {v.id: v for v in venues}
        self._by_author: dict[str, list[str]] = defaultdict(list)
        self._cited_by: dict[str, list[str]] = defaultdict(list)
        for paper in self._papers.values():
            for author_id in paper.authors:
                self._by_author[author_id].append(paper.id)
            for ref in paper.references:
                self._cited_by[ref].append(paper.id)
        if strict:
            self.validate()

    # ------------------------------------------------------------------
    # Basic access
    # ------------------------------------------------------------------
    @property
    def papers(self) -> list[Paper]:
        """All papers, in insertion order."""
        return list(self._papers.values())

    @property
    def paper_ids(self) -> list[str]:
        """All paper ids, in insertion order."""
        return list(self._papers)

    @property
    def authors(self) -> list[Author]:
        """All authors."""
        return list(self._authors.values())

    @property
    def venues(self) -> list[Venue]:
        """All venues."""
        return list(self._venues.values())

    def __len__(self) -> int:
        return len(self._papers)

    def __iter__(self) -> Iterator[Paper]:
        return iter(self._papers.values())

    def __contains__(self, paper_id: str) -> bool:
        return paper_id in self._papers

    def get_paper(self, paper_id: str) -> Paper:
        """Paper by id, raising :class:`DataError` when absent."""
        paper = self._papers.get(paper_id)
        if paper is None:
            raise DataError(f"unknown paper id {paper_id!r} in corpus {self.name!r}")
        return paper

    def get_author(self, author_id: str) -> Author:
        """Author by id, raising :class:`DataError` when absent."""
        author = self._authors.get(author_id)
        if author is None:
            raise DataError(f"unknown author id {author_id!r} in corpus {self.name!r}")
        return author

    # ------------------------------------------------------------------
    # Derived indexes
    # ------------------------------------------------------------------
    def papers_of_author(self, author_id: str) -> list[Paper]:
        """Publications of *author_id*, corpus order."""
        return [self._papers[pid] for pid in self._by_author.get(author_id, [])]

    def citers_of(self, paper_id: str) -> list[Paper]:
        """Papers in the corpus that cite *paper_id* (in-edges)."""
        return [self._papers[pid] for pid in self._cited_by.get(paper_id, [])]

    def in_degree(self, paper_id: str) -> int:
        """Number of in-corpus citations received by *paper_id*."""
        return len(self._cited_by.get(paper_id, []))

    def by_field(self, field: str) -> list[Paper]:
        """Papers whose discipline label equals *field*."""
        return [p for p in self._papers.values() if p.field == field]

    def fields(self) -> list[str]:
        """Distinct discipline labels, sorted."""
        return sorted({p.field for p in self._papers.values()})

    def split_by_year(self, year: int) -> tuple[list[Paper], list[Paper]]:
        """(papers published before *year*, papers published in/after *year*).

        This is the paper's Sec. IV-E protocol: train on pre-Y, test on the
        "new" papers from Y onward.
        """
        before = [p for p in self._papers.values() if p.year < year]
        after = [p for p in self._papers.values() if p.year >= year]
        return before, after

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check referential integrity; raise :class:`DataError` on failure."""
        for paper in self._papers.values():
            for ref in paper.references:
                if ref not in self._papers:
                    raise DataError(f"paper {paper.id!r} references unknown id {ref!r}")
                cited = self._papers[ref]
                if cited.year > paper.year:
                    raise DataError(
                        f"paper {paper.id!r} ({paper.year}) cites {ref!r} "
                        f"from the future ({cited.year})"
                    )
            for author_id in paper.authors:
                if self._authors and author_id not in self._authors:
                    raise DataError(f"paper {paper.id!r} lists unknown author {author_id!r}")
            if paper.venue is not None and self._venues and paper.venue not in self._venues:
                raise DataError(f"paper {paper.id!r} lists unknown venue {paper.venue!r}")
