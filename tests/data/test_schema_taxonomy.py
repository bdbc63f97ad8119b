"""Tests for record schema and the classification tree."""

import pytest

from repro.data import (
    ACM_CCS_TOP_LEVEL,
    Author,
    ClassificationTree,
    Paper,
    Venue,
    acm_ccs_like,
    discipline_tree,
)
from repro.errors import DataError


def make_paper(**overrides):
    base = dict(id="p1", title="T", abstract="A sentence.", year=2015,
                field="computer_science")
    base.update(overrides)
    return Paper(**base)


class TestSchema:
    def test_paper_defaults(self):
        paper = make_paper()
        assert paper.citation_count == 0
        assert paper.references == ()
        assert paper.venue is None
        assert paper.keywords == ()

    def test_rejects_self_citation(self):
        with pytest.raises(ValueError):
            make_paper(references=("p1",))

    def test_rejects_negative_citations(self):
        with pytest.raises(ValueError):
            make_paper(citation_count=-1)

    def test_rejects_bad_month(self):
        with pytest.raises(ValueError):
            make_paper(month=13)
        assert make_paper(month=12).month == 12

    def test_rejects_empty_ids(self):
        with pytest.raises(ValueError):
            Author(id="", name="X")
        with pytest.raises(ValueError):
            Venue(id="", name="X")
        with pytest.raises(ValueError):
            make_paper(id="")


class TestClassificationTree:
    def test_add_and_path(self):
        tree = ClassificationTree()
        tree.add("cs")
        tree.add("ml", parent="cs")
        tree.add("gnn", parent="ml")
        assert tree.path_to_root("gnn") == ("cs", "ml", "gnn")
        assert tree.level("gnn") == 3
        assert tree.depth() == 3

    def test_duplicate_rejected(self):
        tree = ClassificationTree()
        tree.add("cs")
        with pytest.raises(DataError):
            tree.add("cs")

    def test_unknown_parent_rejected(self):
        tree = ClassificationTree()
        with pytest.raises(DataError):
            tree.add("x", parent="nope")

    def test_unknown_query_rejected(self):
        tree = ClassificationTree()
        with pytest.raises(DataError):
            tree.path_to_root("ghost")

    def test_leaves(self):
        tree = ClassificationTree()
        tree.add("a")
        tree.add("b", parent="a")
        assert tree.leaves() == ("b",)

    def test_invalid_names(self):
        tree = ClassificationTree()
        with pytest.raises(ValueError):
            tree.add("")
        with pytest.raises(ValueError):
            tree.add("root")


class TestFactories:
    def test_acm_ccs_like_structure(self):
        tree = acm_ccs_like(areas_per_top=2, topics_per_area=3, seed=0)
        for top in ACM_CCS_TOP_LEVEL:
            assert top in tree
            assert len(tree.children(top)) == 2
        assert tree.depth() == 3
        assert len(tree.leaves()) == len(ACM_CCS_TOP_LEVEL) * 2 * 3

    def test_acm_ccs_deterministic(self):
        a = acm_ccs_like(seed=5)
        b = acm_ccs_like(seed=5)
        assert a.leaves() == b.leaves()

    def test_discipline_tree(self):
        tree = discipline_tree(("cs", "med"), topics_per_discipline=3)
        assert len(tree.leaves()) == 6
        assert tree.path_to_root(tree.leaves()[0])[0] == "cs"

    def test_invalid_factory_args(self):
        with pytest.raises(ValueError):
            acm_ccs_like(areas_per_top=0)
        with pytest.raises(ValueError):
            discipline_tree(("cs",), topics_per_discipline=0)
