"""Render the paper's figure artefacts as actual SVG panels.

The ``fig*`` experiment drivers report their headline statistics as
tables (what the benchmark suite asserts on); this module regenerates the
*plots themselves*:

* Fig. 2 — grouped bars of outlier-citation correlation per method.
* Fig. 3 — 9 scatter panels (discipline × subspace) with trend lines,
  plus 3 t-SNE cluster panels on one ACM field.
* Fig. 5 — t-SNE maps of the author content/interest/influence views.
* Fig. 6 — bar chart of patent-recommendation nDCG.

Usage::

    python -m repro.experiments.figures --out figures/ [--scale 0.5]
"""

from __future__ import annotations

import argparse
import pathlib

import numpy as np

from repro.analysis import outlier_citation_study
from repro.cluster import select_components_bic, tsne
from repro.core.nprec import NPRecConfig, NPRecRecommender
from repro.core.sem import SEMConfig, SubspaceEmbeddingMethod
from repro.data import load_acm, load_scopus
from repro.experiments import run_experiment
from repro.experiments.table1 import DISCIPLINE_COLUMNS
from repro.text.sequence_labeler import SUBSPACE_NAMES
from repro.viz import grouped_bars_svg, save_svg, scatter_svg


def render_fig2(out: pathlib.Path, scale: float, seed: int) -> list[str]:
    """Fig. 2 as one grouped bar chart."""
    table = run_experiment("fig2", scale=scale, seed=seed)
    disciplines = table.columns[1:]
    series = {row[0]: row[1:] for row in table.rows}
    svg = grouped_bars_svg(disciplines, series,
                           title="Fig. 2: outlier-citation correlation",
                           y_label="Spearman rho")
    path = out / "fig2.svg"
    save_svg(svg, path)
    return [str(path)]


def render_fig3(out: pathlib.Path, scale: float, seed: int,
                n_papers: int = 80) -> list[str]:
    """Fig. 3: 9 scatter panels + 3 cluster panels."""
    written: list[str] = []
    corpus = load_scopus(scale=scale, seed=seed if seed else None)
    for field in sorted(DISCIPLINE_COLUMNS):
        papers = corpus.by_field(field)
        sample = sorted(papers, key=lambda p: p.citation_count)[-n_papers:]
        sem = SubspaceEmbeddingMethod(SEMConfig(seed=seed)).fit(papers)
        citations = np.array([p.citation_count for p in sample], dtype=float)
        for k, role in enumerate(SUBSPACE_NAMES):
            study = outlier_citation_study(sem.subspace_matrix(sample, k),
                                           citations, seed=seed)
            svg = scatter_svg(
                np.log1p(citations), study.outlier_scores,
                title=f"{DISCIPLINE_COLUMNS[field]} - {role}",
                x_label="log(1 + citations)", y_label="normalized LOF",
                trend=(study.trend.slope, study.trend.intercept))
            path = out / f"fig3_{field}_{role}.svg"
            save_svg(svg, path)
            written.append(str(path))

    acm = load_acm(scale=scale, seed=seed if seed else None)
    field = "Information Systems"
    papers = acm.by_field(field)[:n_papers]
    sem = SubspaceEmbeddingMethod(SEMConfig(seed=seed)).fit(papers)
    for k, role in enumerate(SUBSPACE_NAMES):
        matrix = sem.subspace_matrix(papers, k)
        mixture = select_components_bic(matrix, max_components=5, seed=seed)
        labels = mixture.predict(matrix)
        coords = tsne(matrix, n_iter=200, seed=seed)
        svg = scatter_svg(coords[:, 0], coords[:, 1], labels=labels,
                          title=f"ACM {field}: {role} clusters (t-SNE)")
        path = out / f"fig3_clusters_{role}.svg"
        save_svg(svg, path)
        written.append(str(path))
    return written


def render_fig5(out: pathlib.Path, scale: float, seed: int,
                min_papers: int = 3) -> list[str]:
    """Fig. 5: author-embedding t-SNE maps per view."""
    corpus = load_acm(scale=scale, seed=seed if seed else None)
    train, new = corpus.split_by_year(2014)
    recommender = NPRecRecommender(NPRecConfig(seed=seed))
    recommender.fit(corpus, train, new)
    model, sem = recommender.model, recommender.sem
    authors = [a.id for a in corpus.authors
               if len([p for p in corpus.papers_of_author(a.id)
                       if p.year < 2014]) >= min_papers]
    papers_of = {a: [p for p in corpus.papers_of_author(a) if p.year < 2014]
                 for a in authors}
    cited = np.array([sum(corpus.in_degree(p.id) for p in papers_of[a])
                      for a in authors], dtype=float)
    # colour authors by citedness quartile (the paper marks the top bin)
    quartiles = np.digitize(cited, np.quantile(cited, [0.25, 0.5, 0.75]))
    views = {
        "content": np.stack([sem.fused_embeddings(papers_of[a]).mean(axis=0)
                             for a in authors]),
        "interest": np.stack([
            model.interest_vectors([p.id for p in papers_of[a]]).data.mean(axis=0)
            for a in authors]),
        "influence": np.stack([
            model.influence_vectors([p.id for p in papers_of[a]]).data.mean(axis=0)
            for a in authors]),
    }
    written = []
    for name, matrix in views.items():
        coords = tsne(matrix, n_iter=200, seed=seed)
        svg = scatter_svg(coords[:, 0], coords[:, 1], labels=quartiles,
                          title=f"Fig. 5: author {name} embeddings "
                                f"(colour = citation quartile)")
        path = out / f"fig5_{name}.svg"
        save_svg(svg, path)
        written.append(str(path))
    return written


def render_fig6(out: pathlib.Path, scale: float, seed: int) -> list[str]:
    """Fig. 6 as a bar chart."""
    table = run_experiment("fig6", scale=max(scale, 1.0), seed=seed, n_users=20)
    series = {"nDCG@20": [row[1] for row in table.rows]}
    svg = grouped_bars_svg([row[0] for row in table.rows], series,
                           title="Fig. 6: patent recommendation",
                           y_label="nDCG@20")
    path = out / "fig6.svg"
    save_svg(svg, path)
    return [str(path)]


RENDERERS = {
    "fig2": render_fig2,
    "fig3": render_fig3,
    "fig5": render_fig5,
    "fig6": render_fig6,
}


def main(argv: list[str] | None = None) -> int:
    """CLI: render one or all figures into an output directory."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.figures",
        description="Render the paper's figures as SVG files.")
    parser.add_argument("figure", nargs="?", default="all",
                        choices=[*RENDERERS, "all"])
    parser.add_argument("--out", default="figures")
    parser.add_argument("--scale", type=float, default=0.5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    targets = list(RENDERERS) if args.figure == "all" else [args.figure]
    for name in targets:
        for path in RENDERERS[name](out, args.scale, args.seed):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
