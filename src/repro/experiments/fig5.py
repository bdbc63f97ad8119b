"""Fig. 5 — author and paper embedding analyses (ACM).

The paper plots t-SNE maps of author/paper embeddings in three semantic
views — content, interest, influence — and reads off qualitative
structure: co-authors cluster in content space, prolific highly-cited
authors cluster in influence space, and a paper's content-space
neighbourhood differs from its interest/influence neighbourhoods.

This reproduction computes the same embeddings and reports the
statistics those plots support; :mod:`repro.experiments.figures` draws
the t-SNE maps. All statistics are cosine-based so the views are
comparable.
"""

from __future__ import annotations

import numpy as np

from repro.core.nprec import NPRecConfig, NPRecRecommender
from repro.data import load_acm
from repro.experiments.common import ResultTable, register
from repro.nn import no_grad
from repro.utils.rng import as_generator


def _cosine_matrix(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = matrix / norms
    return unit @ unit.T


@register("fig5")
def run(scale: float = 1.0, seed: int = 0, split_year: int = 2014,
        min_papers: int = 3, top_cited: int = 10) -> ResultTable:
    """Reproduce the Fig. 5 statistics."""
    corpus = load_acm(scale=scale, seed=seed if seed else None)
    train, new = corpus.split_by_year(split_year)
    recommender = NPRecRecommender(NPRecConfig(seed=seed))
    recommender.fit(corpus, train, new)
    model = recommender.model
    sem = recommender.sem
    assert model is not None and sem is not None

    # ------------------------------------------------------------------
    # Author embeddings in the three views
    # ------------------------------------------------------------------
    authors = [a.id for a in corpus.authors
               if len([p for p in corpus.papers_of_author(a.id)
                       if p.year < split_year]) >= min_papers]
    papers_of = {a: [p for p in corpus.papers_of_author(a)
                     if p.year < split_year] for a in authors}
    content = np.stack([
        sem.fused_embeddings(papers_of[a]).mean(axis=0) for a in authors])
    with no_grad():
        interest = np.stack([
            model.interest_vectors([p.id for p in papers_of[a]]).data.mean(axis=0)
            for a in authors])
        influence = np.stack([
            model.influence_vectors([p.id for p in papers_of[a]]).data.mean(axis=0)
            for a in authors])
    views = {"content": content, "interest": interest, "influence": influence}

    index = {a: i for i, a in enumerate(authors)}
    coauthor_pairs: set[tuple[int, int]] = set()
    for paper in train:
        team = [index[a] for a in paper.authors if a in index]
        for i in team:
            for j in team:
                if i < j:
                    coauthor_pairs.add((i, j))
    rng = as_generator(seed)
    n = len(authors)
    random_pairs = {tuple(sorted(rng.choice(n, 2, replace=False)))
                    for _ in range(min(400, n * 2))}
    random_pairs -= coauthor_pairs

    cited_total = {a: sum(corpus.in_degree(p.id) for p in papers_of[a])
                   for a in authors}
    top = sorted(authors, key=cited_total.get, reverse=True)[:top_cited]
    top_idx = [index[a] for a in top]

    table = ResultTable(
        title="Figure 5: author/paper embedding cohesion statistics (ACM)",
        columns=["View", "co-author cos", "random cos", "top-cited cos",
                 "neighbourhood shift"],
        notes=("'cos' cells are mean pairwise cosine similarities. "
               "Co-authors > random supports Fig. 5a; top-cited cohesion is "
               "highest in the influence view (Fig. 5e). 'neighbourhood "
               "shift' = 1 - overlap of a paper's top-10 neighbours between "
               "the content view and this view (Fig. 5b/d/f)."),
    )

    # Paper-level neighbourhood comparison for the shift column.
    sample = train[: min(len(train), 120)]
    with no_grad():
        paper_views = {
            "content": sem.fused_embeddings(sample),
            "interest": model.interest_vectors([p.id for p in sample]).data,
            "influence": model.influence_vectors([p.id for p in sample]).data,
        }
    content_neighbours = _top_neighbours(paper_views["content"], 10)

    for view_name, matrix in views.items():
        sims = _cosine_matrix(matrix)
        co = float(np.mean([sims[i, j] for i, j in coauthor_pairs])) \
            if coauthor_pairs else 0.0
        rand = float(np.mean([sims[i, j] for i, j in random_pairs])) \
            if random_pairs else 0.0
        top_cos = float(np.mean([sims[i, j] for i in top_idx for j in top_idx
                                 if i < j])) if len(top_idx) > 1 else 0.0
        neighbours = _top_neighbours(paper_views[view_name], 10)
        overlaps = [len(set(a) & set(b)) / 10.0
                    for a, b in zip(content_neighbours, neighbours)]
        table.add_row(view_name, co, rand, top_cos, 1.0 - float(np.mean(overlaps)))
    return table


def _top_neighbours(matrix: np.ndarray, k: int) -> list[list[int]]:
    sims = _cosine_matrix(matrix)
    np.fill_diagonal(sims, -np.inf)
    return [list(np.argsort(-sims[i])[:k]) for i in range(matrix.shape[0])]
