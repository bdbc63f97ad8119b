"""Tests for the Corpus container and its integrity checks."""

import pytest

from repro.data import Author, Corpus, Paper, Venue
from repro.errors import DataError


def paper(pid, year=2015, refs=(), authors=(), venue=None):
    return Paper(id=pid, title=pid, abstract="One sentence.", year=year,
                 field="cs", references=tuple(refs), authors=tuple(authors),
                 venue=venue)


class TestCorpusBasics:
    def test_duplicate_paper_rejected(self):
        with pytest.raises(DataError):
            Corpus("c", [paper("p1"), paper("p1")])

    def test_len_iter_contains(self):
        corpus = Corpus("c", [paper("p1"), paper("p2")])
        assert len(corpus) == 2
        assert "p1" in corpus
        assert {p.id for p in corpus} == {"p1", "p2"}

    def test_get_paper_unknown(self):
        corpus = Corpus("c", [paper("p1")])
        with pytest.raises(DataError):
            corpus.get_paper("nope")

    def test_get_author_venue(self):
        corpus = Corpus("c", [paper("p1", authors=("a1",), venue="v1")],
                        authors=[Author("a1", "A")], venues=[Venue("v1", "V")])
        assert corpus.get_author("a1").name == "A"
        assert [v.name for v in corpus.venues] == ["V"]
        with pytest.raises(DataError):
            corpus.get_author("zz")


class TestIndexes:
    def test_citers_and_in_degree(self):
        corpus = Corpus("c", [paper("p1", 2010), paper("p2", 2012, refs=("p1",)),
                              paper("p3", 2013, refs=("p1",))])
        assert corpus.in_degree("p1") == 2
        assert {p.id for p in corpus.citers_of("p1")} == {"p2", "p3"}
        assert corpus.in_degree("p3") == 0

    def test_papers_of_author(self):
        corpus = Corpus("c", [paper("p1", authors=("a1",)), paper("p2", authors=("a1", "a2"))],
                        authors=[Author("a1", "A"), Author("a2", "B")])
        assert {p.id for p in corpus.papers_of_author("a1")} == {"p1", "p2"}
        assert corpus.papers_of_author("ghost") == []

    def test_split_by_year(self):
        corpus = Corpus("c", [paper("p1", 2010), paper("p2", 2014), paper("p3", 2016)])
        before, after = corpus.split_by_year(2014)
        assert [p.id for p in before] == ["p1"]
        assert {p.id for p in after} == {"p2", "p3"}


class TestValidation:
    def test_dangling_reference(self):
        with pytest.raises(DataError):
            Corpus("c", [paper("p1", refs=("ghost",))])

    def test_future_citation(self):
        with pytest.raises(DataError):
            Corpus("c", [paper("p1", 2020), paper("p2", 2010, refs=("p1",))])

    def test_unknown_author(self):
        with pytest.raises(DataError):
            Corpus("c", [paper("p1", authors=("ghost",))], authors=[Author("a1", "A")])

    def test_unknown_venue(self):
        with pytest.raises(DataError):
            Corpus("c", [paper("p1", venue="ghost")], venues=[Venue("v1", "V")])

    def test_non_strict_allows_dangling(self):
        corpus = Corpus("c", [paper("p1", refs=("ghost",))], strict=False)
        assert len(corpus) == 1
