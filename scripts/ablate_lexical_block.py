"""Paired ablation of the lexical columns in NPRec's ranking rows.

NPRec's interest and influence rows are its learned blocks followed by
the lexical sketch block: ``content_gate`` times the unit-normalised
product of the raw TF-IDF content rows with a fixed ``dim``-column sign
matrix. Its inner product across two rows estimates the exact gated
cosine ``content_gate**2 * <c_p, c_q>`` that the rows carried as a
3000-column block before, in 32 columns. This script measures three
arms on the same fits:

- ``sketch``: the rows as shipped;
- ``raw``: the sketch block swapped for the gated raw content rows (the
  exact cosine, the earlier 3128-column rows);
- ``none``: the learned blocks alone, no lexical columns.

The arms are class-level wrappers of ``NPRecModel.interest_vectors`` and
``influence_vectors`` installed inside this script
(:func:`lexical_arm`); nothing in ``src/`` switches them. Three
protocols:

- offline: the benchmark's ``train`` task (``bench.params.TRAIN``, ACM
  at scale 0.6) and fit configuration, nDCG@20 over each user's nested
  candidate prefix, fit seeds ``0..seeds-1``, one fit per seed ranked
  three times;
- served: the benchmark's serving fixture task (``bench.params.FIXTURE``,
  ACM at scale 3.0), nDCG@10 of the exact top-10 that ``ServingIndex``
  serves from the whole new-paper pool, fit seeds
  ``0..served_seeds-1``, one fit per seed served three times;
- table: the paper tables' protocol, Tab. VI's ACM task
  (``run_experiment("table6", scale=0.6, n_users=20)``, a corpus per
  seed) and NPRec's default ``NPRecConfig`` at the default 1:10
  negative ratio, nDCG@20, seeds ``0..table_seeds-1``, one fit per seed
  ranked three times.

Writes per-seed tables, the paired gaps of each arm against the shipped
sketch and two-sided sign tests. Run from the repository root::

    python scripts/ablate_lexical_block.py --seeds 20 --served-seeds 4 \\
        --table-seeds 8 --out results/ablation_lexical_block.txt

An offline fit takes a few seconds, a fixture fit about half a minute
and a table fit about ten seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import statistics
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import params  # noqa: E402
from bench.fixture import build_task, fit_config  # noqa: E402
from repro.analysis.metrics import ndcg_at_k, sign_test  # noqa: E402
from repro.core.nprec import NPRecConfig, NPRecRecommender  # noqa: E402
from repro.core.nprec.model import NPRecModel  # noqa: E402
from repro.data import load_acm  # noqa: E402
from repro.experiments.protocol import (  # noqa: E402
    evaluate_recommender,
    split_task_by_year,
)
from repro.nn import Tensor  # noqa: E402
from repro.serve import ServingIndex  # noqa: E402

ARMS = ("sketch", "raw", "none")
VIEWS = ("interest_vectors", "influence_vectors")


@contextlib.contextmanager
def lexical_arm(arm: str):
    """Make every ``NPRecModel``'s two views carry *arm*'s lexical
    columns while the block runs ("sketch" leaves them as shipped)."""
    shipped = {name: getattr(NPRecModel, name) for name in VIEWS}
    if arm != "sketch":
        for name, view in shipped.items():
            def wrapped(model, paper_ids, view=view):
                rows = view(model, paper_ids).data
                if model.content_matrix is None:
                    return Tensor(rows)
                rows = rows[:, :-model.lexical_sketch.shape[1]]
                if arm == "raw":
                    content = model.content_matrix[model._indices(paper_ids)]
                    rows = np.concatenate(
                        [rows, content * model.content_gate], axis=1)
                return Tensor(rows)

            setattr(NPRecModel, name, wrapped)
    try:
        yield
    finally:
        for name, view in shipped.items():
            setattr(NPRecModel, name, view)


def fit(task, seed: int) -> NPRecRecommender:
    return NPRecRecommender(fit_config(seed)).fit(
        task.corpus, task.train_papers, task.new_papers)


def offline_ndcg(rec, task, k: int) -> float:
    return evaluate_recommender(rec, task, ks=(k,), fit=False)[f"ndcg@{k}"]


def served_ndcg(rec, task, k: int) -> float:
    """Mean nDCG@k of the exact top-k served from the new-paper pool."""
    index = ServingIndex(rec, task.new_papers)
    total = 0.0
    for user in task.users:
        index.register_user(user.author_id, list(user.train_papers))
        total += ndcg_at_k(index.top_k(user.author_id, k=k),
                           set(user.relevant_ids), k)
    return total / len(task.users)


def table_task(seed: int):
    """Tab. VI's ACM task at *seed* (scale 0.6, 20 users), built as
    ``run_experiment("table6", scale=0.6, seed=seed, n_users=20)`` does."""
    corpus = load_acm(scale=0.6, seed=seed if seed else None)
    return split_task_by_year(corpus, 2014, n_users=20, candidate_size=20,
                              min_prefix=20, seed=seed)


def paired(seeds: int, score) -> list[tuple[int, dict[str, float]]]:
    """``(seed, {arm: value})`` for seeds ``0..seeds-1``; *score(seed)*
    returns a callable that scores the current arm."""
    rows = []
    for seed in range(seeds):
        scorer = score(seed)
        values = {}
        for arm in ARMS:
            with lexical_arm(arm):
                values[arm] = scorer()
        rows.append((seed, values))
        print(f"seed {seed}: " + "  ".join(
            f"{arm} {value:.4f}" for arm, value in values.items()),
            file=sys.stderr)
    return rows


def report(title: str, metric: str, rows) -> list[str]:
    lines = [title, "=" * 72,
             f"{'seed':>4}  " + "  ".join(f"{arm:>7}" for arm in ARMS)]
    lines += [f"{seed:>4}  " + "  ".join(f"{values[arm]:7.4f}"
                                         for arm in ARMS)
              for seed, values in rows]
    lines += ["", f"mean {metric}: " + ", ".join(
        f"{arm} {statistics.mean(v[arm] for _, v in rows):.4f}"
        for arm in ARMS)]
    for other in ARMS[1:]:
        gaps = [v["sketch"] - v[other] for _, v in rows]
        wins = sum(gap > 0 for gap in gaps)
        losses = sum(gap < 0 for gap in gaps)
        lines += [
            f"sketch - {other}: mean {statistics.mean(gaps):+.4f}, "
            f"min {min(gaps):+.4f}, max {max(gaps):+.4f}; sketch higher "
            f"on {wins} of {len(rows)}, lower on {losses}; two-sided sign "
            f"test p = {sign_test(wins, losses):.4f}"]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="offline fit seeds 0..N-1 (default 20)")
    parser.add_argument("--served-seeds", type=int, default=4,
                        help="fixture fit seeds 0..N-1 (default 4)")
    parser.add_argument("--table-seeds", type=int, default=8,
                        help="table-protocol seeds 0..N-1 (default 8)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the tables here as well as to stdout")
    args = parser.parse_args(argv)

    sections: list[list[str]] = []
    if args.seeds > 0:
        k = params.NDCG_AT["train"]
        task = build_task(load_acm(scale=params.TRAIN["scale"]), params.TRAIN)

        def offline(seed):
            rec = fit(task, seed)
            return lambda: offline_ndcg(rec, task, k)

        sections.append(report(
            f"Offline: lexical columns of the ranking rows, paired per fit "
            f"(ACM scale {params.TRAIN['scale']}, nDCG@{k}, "
            f"{len(task.users)} users)", f"nDCG@{k}",
            paired(args.seeds, offline)))
    if args.served_seeds > 0:
        k = params.NDCG_AT["serving"]
        spec = params.FIXTURE
        task = build_task(load_acm(scale=spec["scale"]), spec)

        def served(seed):
            rec = fit(task, seed)
            return lambda: served_ndcg(rec, task, k)

        sections.append(report(
            f"Served: exact top-{k} from the {len(task.new_papers)}-paper "
            f"pool, paired per fit (ACM scale {spec['scale']}, nDCG@{k}, "
            f"{len(task.users)} users)", f"nDCG@{k}",
            paired(args.served_seeds, served)))
    if args.table_seeds > 0:
        def table(seed):
            task = table_task(seed)
            # Tab. VI's NPRec at the default 1:10 ratio (default config).
            rec = NPRecRecommender(NPRecConfig(seed=seed)).fit(
                task.corpus, task.train_papers, task.new_papers)
            return lambda: offline_ndcg(rec, task, 20)

        sections.append(report(
            "Table protocol: Tab. VI NPRec, ACM 1:10 (scale 0.6, 20 users, "
            "default NPRecConfig), paired per fit", "nDCG@20",
            paired(args.table_seeds, table)))
    text = "\n\n".join("\n".join(lines) for lines in sections) + "\n"
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
