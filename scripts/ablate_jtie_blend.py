"""Paired ablation of NPRec's JTIE profile-text blend.

For each fit seed, fit the benchmark's NPRec configuration
(``bench.fixture.fit_config``) on the benchmark's ``train`` task
(``bench.params.TRAIN``, ACM at scale 0.6), then score nDCG@20 twice on
that one fit: as fitted, and with the blend switched off
(``_profile_text = None``), so every other part of the ranker is shared.
Writes a per-seed table and a two-sided sign test.

Run from the repository root::

    python scripts/ablate_jtie_blend.py --seeds 20 \\
        --out results/ablation_jtie_blend.txt

One fit takes a few seconds; twenty seeds take a few minutes.
"""

from __future__ import annotations

import argparse
import math
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from bench import params  # noqa: E402
from bench.fixture import build_task, fit_config  # noqa: E402
from repro.core.nprec import NPRecRecommender  # noqa: E402
from repro.data import load_acm  # noqa: E402
from repro.experiments.protocol import evaluate_recommender  # noqa: E402


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value (ties dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20,
                        help="fit seeds 0..N-1 (default 20)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the table here as well as to stdout")
    args = parser.parse_args(argv)

    k = params.NDCG_AT["train"]
    task = build_task(load_acm(scale=params.TRAIN["scale"]), params.TRAIN)

    def ndcg(rec) -> float:
        return evaluate_recommender(rec, task, ks=(k,), fit=False)[f"ndcg@{k}"]

    rows = []
    for seed in range(args.seeds):
        rec = NPRecRecommender(fit_config(seed))
        rec.fit(task.corpus, task.train_papers, task.new_papers)
        blend = ndcg(rec)
        rec._profile_text = None
        plain = ndcg(rec)
        rows.append((seed, blend, plain))
        print(f"seed {seed}: blend {blend:.4f}  no blend {plain:.4f}",
              file=sys.stderr)

    gaps = [blend - plain for _, blend, plain in rows]
    wins = sum(gap > 0 for gap in gaps)
    losses = sum(gap < 0 for gap in gaps)
    lines = [
        f"Ablation: JTIE profile-text blend, paired per fit "
        f"(ACM scale {params.TRAIN['scale']}, nDCG@{k}, "
        f"{len(task.users)} users)",
        "=" * 72,
        f"{'seed':>4}  {'blend':>7}  {'no blend':>8}  {'gap':>7}",
    ]
    lines += [f"{seed:>4}  {blend:7.4f}  {plain:8.4f}  {blend - plain:+7.4f}"
              for seed, blend, plain in rows]
    lines += [
        "",
        f"median nDCG@{k}: blend {statistics.median(r[1] for r in rows):.4f}, "
        f"no blend {statistics.median(r[2] for r in rows):.4f}",
        f"paired gap: mean {statistics.mean(gaps):+.4f}, "
        f"min {min(gaps):+.4f}, max {max(gaps):+.4f}",
        f"blend higher on {wins} of {len(rows)} seeds, lower on {losses}; "
        f"two-sided sign test p = {sign_test(wins, losses):.4f}",
    ]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out is not None:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
