"""Determinism and shape of the seeded input generators."""

import pytest

from bench import inputs, params
from repro.data.schema import Paper

USERS = [f"user-{i:03d}" for i in range(40)]
ACTIVITY = [40 - i for i in range(40)]
TEMPLATES = [Paper(id=f"p{i}", title=f"title {i}", abstract="one. two.",
                   year=2010, field="cs", references=("p0",) if i else (),
                   citation_count=i, authors=(f"a{i}",))
             for i in range(30)]


def _all(seed, seconds=4.0):
    return [inputs.train_inputs(seed, seconds),
            inputs.rank_closed_inputs(USERS, seed, seconds),
            inputs.serve_open_inputs(USERS, ACTIVITY, TEMPLATES, seed,
                                     seconds),
            inputs.ingest_bulk_inputs(TEMPLATES, seed, seconds)]


def test_same_seed_same_inputs_and_sha256():
    for first, second in zip(_all(7), _all(7)):
        assert first.sha256() == second.sha256()
        assert first.requests == second.requests


def test_different_seed_different_sha256():
    for first, second in zip(_all(7), _all(8)):
        assert first.sha256() != second.sha256(), first.workload


def test_work_depends_on_seconds_only():
    assert len(inputs.rank_closed_inputs(USERS, 1, 4.0).requests) == \
        4 * params.RANK_CLOSED["queries_per_second"]
    assert len(inputs.ingest_bulk_inputs(TEMPLATES, 1, 4.0).requests) == \
        round(4 * params.INGEST_BULK["ingests_per_second"])
    assert len(inputs.train_inputs(1, 0.1).requests) == \
        params.TRAIN["min_fits"]


def test_round_robin_visits_every_user_once_per_cycle():
    requests = inputs.rank_closed_inputs(USERS, 3, 4.0).requests
    first_cycle = [r.user for r in requests[:len(USERS)]]
    assert sorted(first_cycle) == sorted(USERS)
    assert [r.user for r in requests[len(USERS):2 * len(USERS)]] == \
        first_cycle


def test_payloads_are_cold_start_clones_with_unique_ids():
    schedule = inputs.serve_open_inputs(USERS, ACTIVITY, TEMPLATES, 5, 4.0)
    papers = [r.paper for r in schedule.requests if r.paper is not None]
    assert papers and len({p.id for p in papers}) == len(papers)
    by_id = {t.id: t for t in TEMPLATES}
    for request in schedule.requests:
        if request.paper is None:
            assert request.kind == "query" and request.user in USERS
            continue
        template = by_id[request.template]
        assert request.paper.references == ()
        assert request.paper.citation_count == 0
        assert request.paper.abstract == template.abstract
        assert request.paper.id not in by_id


def test_open_loop_offers_equal_work_for_every_seed():
    seconds = 20.0
    total = round(params.SERVE_OPEN["rate"] * seconds)
    mixes = set()
    for seed in (11, 12):
        schedule = inputs.serve_open_inputs(USERS, ACTIVITY, TEMPLATES, seed,
                                            seconds)
        dues = [r.due for r in schedule.requests]
        assert dues == sorted(dues) and 0 <= dues[0] and dues[-1] < seconds
        assert len(dues) == total
        mixes.add(tuple(sum(r.kind == k for r in schedule.requests)
                        for k in params.SERVE_OPEN["mix"]))
    assert len(mixes) == 1
    counts = dict(zip(params.SERVE_OPEN["mix"], mixes.pop()))
    for kind in ("ingest", "probe"):
        assert counts[kind] == round(total * params.SERVE_OPEN["mix"][kind])


@pytest.mark.parametrize("make", [
    lambda: inputs.rank_closed_inputs(USERS, 2, 4.0),
    lambda: inputs.serve_open_inputs(USERS, ACTIVITY, TEMPLATES, 2, 4.0),
])
def test_halves_partition_the_requests(make):
    schedule = make()
    first, second = schedule.halves()
    assert len(first) + len(second) == len(schedule.requests)
    assert first and second
    if schedule.requests[0].due is not None:
        cut = schedule.requests[-1].due / 2
        assert all(r.due < cut for r in first)
        assert [r.due + cut for r in second] == pytest.approx(
            [r.due for r in schedule.requests[len(first):]])


def test_query_users_follow_profile_activity():
    activity = [0] * len(USERS)
    activity[3], activity[17] = 3, 1
    schedule = inputs.serve_open_inputs(USERS, activity, TEMPLATES, 4, 40.0)
    users = [r.user for r in schedule.requests if r.kind == "query"]
    assert set(users) == {USERS[3], USERS[17]}
    assert 0.65 < users.count(USERS[3]) / len(users) < 0.85
