"""Bench: batch pair-scoring engine vs the historical per-pair loops.

Times the two pipeline stages the batch engine rewired — de-fuzzed
negative sampling and triplet annotation — against verbatim copies of
the pre-batch per-pair implementations, on the same corpus and with warm
sentence-encoder caches for both paths (the comparison is about pair
scoring, not text encoding). Both paths are timed on one BLAS thread
(:func:`single_threaded_blas`): with the default pool, OpenBLAS workers
that wake for the batch path's small products and then spin made the
batch de-fuzz about 1.5x slower on a 2-vCPU machine (speedups of
3.4-4.2x instead of 5.2-8.8x), while the per-pair path barely calls
BLAS. Writes the measured timings to
``BENCH_pairscore.json`` at the repo root and asserts the engine keeps
its >= 5x contract at benchmark scale.
"""

import json
import pathlib
import time

import numpy as np

from repro.core.annotation import Triplet, annotate_triplets
from repro.core.nprec.sampling import TrainingPair, defuzzed_negatives
from repro.core.rules import ExpertRuleSet
from repro.data import load_scopus
from repro.utils.blas import blas_threads, single_threaded_blas
from repro.text import SentenceEncoder
from repro.utils.rng import as_generator

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = 2.0
N_NEGATIVES = 1500
N_TRIPLETS = 800
MIN_SPEEDUP = 5.0


# ----------------------------------------------------------------------
# Verbatim historical (pre-batch-engine) implementations
# ----------------------------------------------------------------------
def legacy_defuzzed_negatives(papers, rules, n_negatives,
                              threshold_quantile=0.55, seed=0):
    papers = list(papers)
    rng = as_generator(seed)
    calibration = []
    for _ in range(80):
        i, j = rng.choice(len(papers), size=2, replace=False)
        calibration.append(rules.fused_scores(papers[i], papers[j]))
    thresholds = np.quantile(np.asarray(calibration), threshold_quantile,
                             axis=0)
    cited_by = {p.id: set(p.references) for p in papers}
    negatives = []
    attempts = 0
    max_attempts = n_negatives * 40 + 200
    while len(negatives) < n_negatives and attempts < max_attempts:
        attempts += 1
        i, j = rng.choice(len(papers), size=2, replace=False)
        citing, cited = papers[i], papers[j]
        if cited.id in cited_by[citing.id]:
            continue
        scores = rules.fused_scores(citing, cited)
        if np.all(scores > thresholds):
            negatives.append(TrainingPair(citing.id, cited.id, 0.0))
    return negatives


def legacy_annotate_triplets(papers, rules, n_triplets=300, min_gap=0.05,
                             seed=0):
    papers = list(papers)
    rng = as_generator(seed)
    triplets = []
    budget = n_triplets * rules.num_subspaces
    attempts = 0
    max_attempts = budget * 20
    while len(triplets) < budget and attempts < max_attempts:
        attempts += 1
        anchor, cand_q, cand_q2 = (
            papers[i] for i in rng.choice(len(papers), size=3, replace=False))
        scores_q = rules.fused_scores(anchor, cand_q)
        scores_q2 = rules.fused_scores(anchor, cand_q2)
        for k in range(rules.num_subspaces):
            gap = float(scores_q[k] - scores_q2[k])
            if abs(gap) < min_gap:
                continue
            if gap > 0:
                positive, negative = cand_q, cand_q2
            else:
                positive, negative = cand_q2, cand_q
            triplets.append(Triplet(anchor.id, positive.id, negative.id, k,
                                    abs(gap)))
    return triplets


def _best_of(fn, repeats=2):
    timings = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        timings.append(time.perf_counter() - start)
    return min(timings), result


def test_pairscore_speedups():
    papers = load_scopus(scale=SCALE, seed=0).papers
    rules = ExpertRuleSet(SentenceEncoder(dim=32)).fit(papers, n_pairs=100,
                                                       seed=1)
    # Warm the sentence-encoder centroid cache for every paper so both
    # paths are measured on pair *scoring*, not abstract encoding.
    for paper in papers:
        rules.abstract_rule.centroids(paper)

    with single_threaded_blas():
        threads = blas_threads()
        # One-off feature precompute, reported on its own: the scorer is
        # memoized on the rule set, so a pipeline run (weight learning ->
        # annotation -> de-fuzzed sampling over one corpus) pays it once.
        rules._scorer_cache = None
        precompute_start = time.perf_counter()
        rules.batch_scorer(papers)
        precompute_s = time.perf_counter() - precompute_start

        def batch_defuzz():
            rules._scorer_cache = None  # conservative: re-pay precompute
            return defuzzed_negatives(papers, rules, N_NEGATIVES, seed=3)

        def batch_annotate():
            # warm scorer — in sem.fit the annotation stage always runs
            # after weight learning has already built it
            return annotate_triplets(papers, rules, n_triplets=N_TRIPLETS,
                                     seed=4)

        legacy_defuzz_s, legacy_negatives = _best_of(
            lambda: legacy_defuzzed_negatives(papers, rules, N_NEGATIVES,
                                              seed=3))
        batch_defuzz_s, batch_negatives = _best_of(batch_defuzz)
        legacy_annotate_s, legacy_triplets = _best_of(
            lambda: legacy_annotate_triplets(papers, rules,
                                             n_triplets=N_TRIPLETS, seed=4))
        rules.batch_scorer(papers)  # re-warm after the defuzz cache resets
        batch_annotate_s, batch_triplets = _best_of(batch_annotate)

    # Numerical-equivalence evidence alongside the timings: the batch
    # engine must reproduce the per-pair fused scores to <= 1e-9.
    scorer = rules.batch_scorer(papers)
    rng = np.random.default_rng(9)
    left = rng.integers(0, len(papers), size=200)
    right = rng.integers(0, len(papers), size=200)
    batch = scorer.fused_scores(left, right)
    max_error = max(
        float(np.abs(batch[row]
                     - rules.fused_scores(papers[i], papers[j])).max())
        for row, (i, j) in enumerate(zip(left, right)))

    report = {
        "corpus": {"loader": "scopus", "scale": SCALE, "papers": len(papers)},
        "blas_threads": threads,
        "workload": {"n_negatives": N_NEGATIVES, "n_triplets": N_TRIPLETS},
        "scorer_precompute_seconds": round(precompute_s, 4),
        "defuzzed_negatives": {
            "note": "batch timing includes a full scorer precompute",
            "legacy_seconds": round(legacy_defuzz_s, 4),
            "batch_seconds": round(batch_defuzz_s, 4),
            "speedup": round(legacy_defuzz_s / batch_defuzz_s, 2),
            "legacy_found": len(legacy_negatives),
            "batch_found": len(batch_negatives),
        },
        "annotate_triplets": {
            "note": "batch timing reuses the memoized scorer, as in sem.fit",
            "legacy_seconds": round(legacy_annotate_s, 4),
            "batch_seconds": round(batch_annotate_s, 4),
            "speedup": round(legacy_annotate_s / batch_annotate_s, 2),
            "legacy_found": len(legacy_triplets),
            "batch_found": len(batch_triplets),
        },
        "fused_score_max_abs_error": max_error,
    }
    (REPO_ROOT / "BENCH_pairscore.json").write_text(
        json.dumps(report, indent=2) + "\n")

    assert max_error <= 1e-9
    assert len(batch_negatives) == N_NEGATIVES
    assert len(batch_triplets) >= N_TRIPLETS * rules.num_subspaces
    assert report["defuzzed_negatives"]["speedup"] >= MIN_SPEEDUP
    assert report["annotate_triplets"]["speedup"] >= MIN_SPEEDUP
