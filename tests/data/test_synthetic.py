"""Tests for the synthetic corpus generators — the planted-signal contract."""

import numpy as np
import pytest

from repro.analysis import spearman_correlation
from repro.data import (
    DISCIPLINE_PROFILES,
    SyntheticCorpusConfig,
    corpus_statistics,
    generate_corpus,
    load_acm,
    load_patents,
    load_pubmed_rct,
    load_scopus,
)
from repro.text import SUBSPACE_NAMES, split_sentences


@pytest.fixture(scope="module")
def scopus():
    return load_scopus(scale=0.5, seed=1)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(n_papers=0)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(year_min=2020, year_max=2010)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(taxonomy_kind="weird")
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(disciplines=())
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(keywords_min=9, keywords_max=2)
        with pytest.raises(ValueError):
            SyntheticCorpusConfig(avg_sentences=1)

    def test_scaled(self):
        config = SyntheticCorpusConfig(n_papers=100, n_authors=50)
        bigger = config.scaled(2.0)
        assert bigger.n_papers == 200
        assert bigger.n_authors == 100
        with pytest.raises(ValueError):
            config.scaled(0)


class TestGeneration:
    def test_determinism(self):
        config = SyntheticCorpusConfig(n_papers=40, n_authors=20, seed=7)
        a = generate_corpus(config)
        b = generate_corpus(config)
        assert [p.id for p in a] == [p.id for p in b]
        assert [p.abstract for p in a] == [p.abstract for p in b]
        assert [p.citation_count for p in a] == [p.citation_count for p in b]

    def test_seed_changes_output(self):
        a = generate_corpus(SyntheticCorpusConfig(n_papers=40, n_authors=20, seed=1))
        b = generate_corpus(SyntheticCorpusConfig(n_papers=40, n_authors=20, seed=2))
        assert [p.abstract for p in a] != [p.abstract for p in b]

    def test_referential_integrity(self, scopus):
        scopus.validate()  # raises on violation

    def test_sentence_labels_align(self, scopus):
        for paper in scopus.papers[:50]:
            assert len(split_sentences(paper.abstract)) == len(paper.sentence_labels)
            assert set(paper.sentence_labels) <= {0, 1, 2}

    def test_labels_cover_all_roles(self, scopus):
        for paper in scopus.papers[:50]:
            assert set(paper.sentence_labels) == {0, 1, 2}

    def test_novelty_in_unit_interval(self, scopus):
        for paper in scopus.papers:
            assert set(paper.novelty) == set(SUBSPACE_NAMES)
            for value in paper.novelty.values():
                assert 0.0 <= value <= 1.0

    def test_references_topic_locality(self, scopus):
        # most references should stay within the citing paper's field
        same_field = 0
        total = 0
        for paper in scopus.papers:
            for ref in paper.references:
                total += 1
                same_field += int(scopus.get_paper(ref).field == paper.field)
        assert total > 0
        assert same_field / total > 0.7

    def test_planted_profile_recovered(self, scopus):
        """Citations must correlate most with the discipline's top subspace."""
        for field, profile in DISCIPLINE_PROFILES.items():
            papers = scopus.by_field(field)
            rhos = {
                role: spearman_correlation(
                    [p.novelty[role] for p in papers],
                    [p.citation_count for p in papers],
                )
                for role in SUBSPACE_NAMES
            }
            top_role = max(profile, key=profile.get)
            low_role = min(profile, key=profile.get)
            # The profile's dominant subspace must carry strong signal and
            # clearly dominate the weakest one (exact ordering of close
            # middle weights is sampling noise at test scale).
            assert rhos[top_role] > 0.35, (field, rhos)
            assert rhos[top_role] > rhos[low_role] + 0.15, (field, rhos)
            assert min(rhos, key=rhos.get) == low_role, (field, rhos)

    def test_citation_heavy_tail(self):
        corpus = load_acm(scale=0.5, seed=4)
        cites = np.array([p.citation_count for p in corpus])
        assert cites.max() > 300  # Table II needs a high-cited stratum
        assert (cites < 5).sum() > 10  # and a low-cited stratum


class TestLoaders:
    def test_acm_is_acm_shaped(self):
        corpus = load_acm(scale=0.3, seed=0)
        stats = corpus_statistics(corpus)
        assert stats["corpus"] == "acm"
        assert stats["affiliations"] != "-"
        assert corpus.papers[0].category_path  # ACM CCS path present
        assert len(corpus.papers[0].category_path) == 3

    def test_scopus_lacks_affiliations(self):
        stats = corpus_statistics(load_scopus(scale=0.2, seed=0))
        assert stats["affiliations"] == "-"
        assert stats["classes"] == 3

    def test_pubmed_long_abstracts(self):
        corpus = load_pubmed_rct(scale=0.2, seed=0)
        lengths = [len(split_sentences(p.abstract)) for p in corpus]
        assert np.mean(lengths) > 8

    def test_patents_low_resource(self):
        corpus = load_patents(scale=0.3, seed=0)
        for paper in corpus.papers[:20]:
            assert paper.venue is None and not paper.keywords
            assert paper.month is not None
            assert paper.year == 2017

    def test_statistics_table_fields(self):
        stats = corpus_statistics(load_patents(scale=0.2, seed=0))
        assert stats["keywords"] == "-"
        assert stats["venues"] == "-"
