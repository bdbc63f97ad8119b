"""The serving fixture: one fitted artifact shared by the serving workloads.

Fitting the scale-3.0 pipeline takes tens of seconds and gigabytes of
memory, so it is done once per source tree, in a child process (its
memory never counts against a workload's ``peak_rss_mb``), and cached
under ``bench/.cache/``. The cache key hashes every file under ``src/``,
so editing the code under test always rebuilds the fixture.

Run as a script, this module builds one fixture directory:
``python bench/fixture.py TARGET_DIR``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # executed as a script: make `bench` importable
    _ROOT = Path(__file__).resolve().parents[1]
    sys.path[0] = str(_ROOT)
    sys.path.insert(1, str(_ROOT / "src"))

from bench import params  # noqa: E402

#: Longest a fixture build may take before the benchmark gives up.
BUILD_TIMEOUT_S = 800


def fit_config(seed: int):
    """The frozen NPRec configuration (see :data:`bench.params.FIT_CONFIG`)."""
    from repro.core.nprec import NPRecConfig
    from repro.core.sem import SEMConfig

    cfg = params.FIT_CONFIG
    return NPRecConfig(sem=SEMConfig(n_triplets=cfg["sem_n_triplets"],
                                     epochs=cfg["sem_epochs"]),
                       epochs=cfg["epochs"],
                       max_positives=cfg["max_positives"], seed=seed)


def build_task(corpus, spec: dict):
    """Temporal split plus evaluation users, as the serving CLI builds them."""
    from repro.experiments.protocol import split_task_by_year

    return split_task_by_year(corpus, spec["split_year"],
                              n_users=spec["users"],
                              candidate_size=spec["candidate_size"],
                              seed=spec["task_seed"])


def warmup(task, seed: int, path: Path):
    """The ``warmup`` path: fit, save the pipeline, build and save the IVF
    quantizer. Builds the fixture artifact and is what ``train`` times."""
    from repro.core.nprec import NPRecRecommender
    from repro.serve.artifacts import save_ann_index, save_pipeline
    from repro.serve.index import ServingIndex

    recommender = NPRecRecommender(fit_config(seed))
    recommender.fit(task.corpus, task.train_papers, task.new_papers)
    save_pipeline(recommender, path, corpus=task.corpus)
    index = ServingIndex.from_artifact(path, papers=task.new_papers,
                                       index="ivf")
    save_ann_index(path, index.build_ann_index(), index.paper_ids)
    return recommender


def source_digest(root: Path) -> str:
    """sha256 over every file under ``src/`` (relative path and bytes)."""
    digest = hashlib.sha256()
    digest.update(json.dumps([params.FIXTURE, params.FIT_CONFIG],
                             sort_keys=True).encode())
    src = root / "src"
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_fixture(root: Path) -> Path:
    """The cached fixture directory for this source tree, built if absent."""
    cache = root / "bench" / ".cache"
    target = cache / f"fixture-{source_digest(root)[:16]}"
    if (target / "fixture.json").is_file():
        return target
    cache.mkdir(parents=True, exist_ok=True)
    staging = cache / f"staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    print(f"building the serving fixture in {target} (once per source "
          "tree) ...", file=sys.stderr)
    started = time.monotonic()
    try:
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        str(staging)], cwd=root, check=True,
                       timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
        os.replace(staging, target)
        for stale in cache.glob("fixture-*"):  # fixtures of older sources
            if stale != target:
                shutil.rmtree(stale, ignore_errors=True)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    print(f"fixture built in {time.monotonic() - started:.1f}s",
          file=sys.stderr)
    return target


def load_task(fixture: Path):
    """The evaluation task the fixture artifact was fitted on."""
    from repro.data import load_corpus

    task = build_task(load_corpus(fixture / "corpus.json"), params.FIXTURE)
    meta = json.loads((fixture / "fixture.json").read_text())
    if [u.author_id for u in task.users] != meta["users"]:
        raise RuntimeError(f"fixture {fixture} no longer matches its "
                           "corpus: delete bench/.cache and rerun")
    return task


def _build(target: Path) -> None:
    from repro.data import load_acm, save_corpus

    spec = params.FIXTURE
    target.mkdir(parents=True)
    corpus = load_acm(scale=spec["scale"])
    task = build_task(corpus, spec)
    warmup(task, spec["fit_seed"], target / "artifact")
    save_corpus(corpus, target / "corpus.json")
    (target / "fixture.json").write_text(json.dumps({
        "spec": spec, "fit_config": params.FIT_CONFIG,
        "train_papers": len(task.train_papers),
        "new_papers": len(task.new_papers),
        "users": [u.author_id for u in task.users]}))


if __name__ == "__main__":
    _build(Path(sys.argv[1]))
