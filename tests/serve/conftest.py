"""Shared serving fixtures: one fitted pipeline + one saved artifact.

Fitting NPRec is the expensive part, so it happens once per session. The
artifact fixture also captures the original recommender's rankings right
after saving, for the round-trip comparisons.
"""

import pytest

from repro import obs
from repro.core.nprec import NPRecConfig, NPRecRecommender
from repro.core.sem import SEMConfig
from repro.data import load_acm
from repro.experiments.protocol import split_task_by_year
from repro.serve import save_pipeline


@pytest.fixture(scope="session")
def serve_task():
    corpus = load_acm(scale=0.3, seed=None)
    return split_task_by_year(corpus, 2014, n_users=6, candidate_size=40,
                              seed=0)


@pytest.fixture(scope="session")
def fitted_recommender(serve_task):
    config = NPRecConfig(sem=SEMConfig(n_triplets=40, epochs=1),
                         epochs=2, max_positives=80, seed=3)
    return NPRecRecommender(config).fit(
        serve_task.corpus, serve_task.train_papers, serve_task.new_papers)


@pytest.fixture(scope="session")
def artifact(tmp_path_factory, serve_task, fitted_recommender):
    """(directory, baseline) where *baseline* holds the original
    recommender's post-save rankings, in query order."""
    directory = tmp_path_factory.mktemp("serve") / "pipeline"
    save_pipeline(fitted_recommender, directory, corpus=serve_task.corpus)
    user = serve_task.users[0]
    baseline = {
        "user": user,
        "head": fitted_recommender.rank(list(user.train_papers),
                                        user.candidate_set(20)),
        "full": fitted_recommender.rank(list(user.train_papers),
                                        list(user.candidates)),
    }
    return directory, baseline


@pytest.fixture
def obs_enabled():
    state = obs.configure(enabled=True, reset=True)
    try:
        yield state
    finally:
        obs.configure(enabled=False, reset=True)
