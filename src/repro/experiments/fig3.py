"""Fig. 3 — subspace outlier scatter + regression (Scopus) and the ACM
Information Systems clustering study.

Left 9 panels: per (discipline x subspace), scatter normalised LOF vs
citations with a regression line; the table reports the regression slope
on log1p(citations) and the Spearman rho. The paper's reading: every
panel trends positive, and the steepest subspace per discipline matches
that discipline's innovation focus.

Right 3 panels: GMM clustering of one ACM field's papers per subspace;
papers cluster differently across subspaces (reported here as the
fraction of paper pairs whose co-clustering status differs between
subspaces; :mod:`repro.experiments.figures` draws the t-SNE panels).
"""

from __future__ import annotations

from repro.analysis import outlier_citation_study
from repro.cluster import select_components_bic
from repro.core.sem import SEMConfig, SubspaceEmbeddingMethod
from repro.data import load_acm, load_scopus
from repro.experiments.common import ResultTable, register
from repro.experiments.table1 import DISCIPLINE_COLUMNS
from repro.text.sequence_labeler import SUBSPACE_NAMES


@register("fig3")
def run(scale: float = 1.0, seed: int = 0,
        n_papers: int = 80) -> list[ResultTable]:
    """Reproduce both halves of Fig. 3."""
    scatter = _scatter_study(scale, seed, n_papers)
    clustering = _clustering_study(scale, seed, n_papers)
    return [scatter, clustering]


def _scatter_study(scale: float, seed: int, n_papers: int) -> ResultTable:
    corpus = load_scopus(scale=scale, seed=seed if seed else None)
    table = ResultTable(
        title="Figure 3 (left): subspace outlier vs citations, slope and rho",
        columns=["Discipline", "Subspace", "slope", "spearman"],
        notes=("Slopes are of normalised LOF on log1p(citations); positive "
               "everywhere, steepest on each discipline's focus subspace."),
    )
    for field in sorted(DISCIPLINE_COLUMNS):
        papers = corpus.by_field(field)
        sample = sorted(papers, key=lambda p: p.citation_count)[-n_papers:]
        sem = SubspaceEmbeddingMethod(SEMConfig(seed=seed)).fit(papers)
        for k, role in enumerate(SUBSPACE_NAMES):
            study = outlier_citation_study(
                sem.subspace_matrix(sample, k),
                [p.citation_count for p in sample], seed=seed)
            table.add_row(DISCIPLINE_COLUMNS[field], role,
                          study.trend.slope, study.spearman)
    return table


def _clustering_study(scale: float, seed: int,
                      n_papers: int) -> ResultTable:
    corpus = load_acm(scale=scale, seed=seed if seed else None)
    field = "Information Systems"
    papers = corpus.by_field(field)[:n_papers]
    if len(papers) < 10:  # tiny-scale fallback: densest available field
        field = max(corpus.fields(), key=lambda f: len(corpus.by_field(f)))
        papers = corpus.by_field(field)[:n_papers]
    sem = SubspaceEmbeddingMethod(SEMConfig(seed=seed)).fit(papers)

    labels = []
    for k in range(3):
        matrix = sem.subspace_matrix(papers, k)
        mixture = select_components_bic(matrix, max_components=5, seed=seed)
        labels.append(mixture.predict(matrix))

    table = ResultTable(
        title=f"Figure 3 (right): GMM clustering disagreement on ACM '{field}'",
        columns=["Subspace pair", "clusters A", "clusters B", "pair disagreement"],
        notes=("Disagreement = fraction of paper pairs co-clustered in one "
               "subspace but separated in the other; > 0 shows the subspaces "
               "learned genuinely different structure."),
    )
    n = len(papers)
    for a in range(3):
        for b in range(a + 1, 3):
            disagree = 0
            total = 0
            for i in range(n):
                for j in range(i + 1, n):
                    same_a = labels[a][i] == labels[a][j]
                    same_b = labels[b][i] == labels[b][j]
                    disagree += int(same_a != same_b)
                    total += 1
            table.add_row(
                f"{SUBSPACE_NAMES[a]} vs {SUBSPACE_NAMES[b]}",
                int(labels[a].max() + 1), int(labels[b].max() + 1),
                disagree / total if total else 0.0,
            )
    return table
