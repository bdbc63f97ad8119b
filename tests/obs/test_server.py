"""Tests for the embedded HTTP ops plane (:class:`repro.obs.server.ObsServer`)."""

import dataclasses
import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.data import load_acm
from tests.helpers import lint_exposition
from repro.obs.flightrec import FlightRecorder
from repro.obs.server import ObsServer
from repro.obs.slo import GaugeBoundSLO, register_slo
from repro.serve.index import ServingIndex


class StubWal:
    path = "/tmp/stub.wal"
    lag = 3
    torn_records = 1


class StubScheduler:
    def stats(self):
        return {"queued": 2, "in_flight": 1, "shed": 0}


class StubIndex:
    """Duck-typed stand-in for ServingIndex: just what the server reads."""

    degraded = False
    num_papers = 42
    pool_version = 7
    index_kind = "exact"
    nprobe = 8

    def __init__(self, healthy=True, wal=None, scheduler=None):
        self._healthy = healthy
        self.wal = wal
        self.scheduler = scheduler
        self.probes = []

    def health(self, probe=True):
        self.probes.append(probe)
        return {"healthy": self._healthy, "degraded": self.degraded,
                "probed": probe}


def _get(url):
    """GET *url*; returns (status, headers, body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as err:
        return err.code, dict(err.headers), err.read()


@pytest.fixture
def server():
    srv = ObsServer(recorder=FlightRecorder())
    with srv:
        yield srv


class TestLifecycle:
    def test_ephemeral_port_resolved(self, server):
        assert server.port > 0
        assert server.url == f"http://127.0.0.1:{server.port}"

    def test_unknown_route_is_404(self, server):
        status, _, body = _get(server.url + "/nope")
        assert status == 404
        assert b"no such endpoint" in body

    def test_trailing_slash_routes(self, server):
        status, _, _ = _get(server.url + "/healthz/")
        assert status == 200


class TestMetrics:
    def test_scrape_is_lint_clean_with_process_gauges(self, server,
                                                      obs_enabled):
        obs.count("server.test.counter", 3, outcome="ok")
        status, headers, body = _get(server.url + "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        text = body.decode("utf-8")
        assert lint_exposition(text) == []
        assert "repro_process_rss_kb" in text
        assert "repro_process_uptime_seconds" in text
        assert 'repro_server_test_counter{outcome="ok"} 3' in text

    def test_scrape_feeds_recorder_counter_deltas(self, server, obs_enabled):
        obs.count("server.delta.counter")
        _get(server.url + "/metrics")
        kinds = [e["kind"] for e in server.recorder.entries()]
        assert "metrics" in kinds


class TestProbes:
    def test_healthz_without_index(self, server):
        status, _, body = _get(server.url + "/healthz")
        assert status == 200
        payload = json.loads(body)
        assert payload["status"] == "alive"
        assert payload["index"] is False

    def test_healthz_stays_200_when_degraded(self):
        index = StubIndex(healthy=False)
        index.degraded = True
        with ObsServer(index, recorder=FlightRecorder()) as srv:
            status, _, body = _get(srv.url + "/healthz")
        assert status == 200
        assert json.loads(body)["degraded"] is True

    def test_readyz_503_without_index(self, server):
        status, _, body = _get(server.url + "/readyz")
        assert status == 503
        assert json.loads(body)["healthy"] is False

    def test_readyz_reflects_health_report(self):
        healthy = StubIndex(healthy=True)
        with ObsServer(healthy, recorder=FlightRecorder()) as srv:
            assert _get(srv.url + "/readyz")[0] == 200
        assert healthy.probes == [False]  # no self-test unless asked
        unhealthy = StubIndex(healthy=False)
        with ObsServer(unhealthy, recorder=FlightRecorder()) as srv:
            status, _, body = _get(srv.url + "/readyz")
        assert status == 503
        assert json.loads(body)["healthy"] is False

    def test_readyz_probe_query_forces_self_test(self):
        index = StubIndex(healthy=True)
        with ObsServer(index, recorder=FlightRecorder()) as srv:
            _get(srv.url + "/readyz?probe=1")
        assert index.probes == [True]


class TestSLOEndpoint:
    def test_slo_report_and_page_burn_trip(self, server, obs_enabled,
                                           clean_slos):
        register_slo(GaugeBoundSLO("test.bound", "test.gauge", bound=10.0))
        obs.gauge("test.gauge", 5.0)
        status, _, body = _get(server.url + "/slo")
        assert status == 200
        payload = json.loads(body)
        assert payload["breaches"] == []
        assert [s["slo"] for s in payload["slos"]] == ["test.bound"]

        # Burn rate 50x >= the 10x page threshold: the recorder trips.
        obs.gauge("test.gauge", 500.0)
        _, _, body = _get(server.url + "/slo")
        payload = json.loads(body)
        assert payload["breaches"] == ["test.bound"]
        trips = [e for e in server.recorder.entries() if e["kind"] == "trip"]
        assert any(e["name"] == "slo_page_burn[test.bound]" for e in trips)
        # The ok -> breached transition made it into the ring too.
        transitions = [e for e in server.recorder.entries()
                       if e["kind"] == "slo"]
        assert [e["ok"] for e in transitions] == [False]


class TestDebugVars:
    def test_full_wiring(self, obs_enabled):
        index = StubIndex(wal=StubWal(), scheduler=StubScheduler())
        with ObsServer(index, recorder=FlightRecorder()) as srv:
            status, _, body = _get(srv.url + "/debug/vars")
        assert status == 200
        payload = json.loads(body)
        assert payload["scheduler"] == {"queued": 2, "in_flight": 1, "shed": 0}
        assert payload["wal"] == {"path": "/tmp/stub.wal", "lag": 3,
                                  "torn_records": 1}
        assert payload["index"]["pool_size"] == 42
        assert payload["index"]["index_kind"] == "exact"
        assert payload["process"]["rss_kb"] > 0
        assert payload["flightrec"]["armed"] is False
        assert payload["obs_enabled"] is True

    def test_without_index(self, server):
        _, _, body = _get(server.url + "/debug/vars")
        payload = json.loads(body)
        assert payload["scheduler"] is None
        assert payload["wal"] is None
        assert payload["index"] is None

    def test_explicit_scheduler_override(self):
        srv = ObsServer(scheduler=StubScheduler(), recorder=FlightRecorder())
        assert srv.scheduler.stats()["queued"] == 2


class TestExemplars:
    def test_exemplars_endpoint(self, server, obs_enabled):
        with obs.request("exemplar.request"):
            pass
        status, _, body = _get(server.url + "/exemplars")
        assert status == 200
        payload = json.loads(body)
        assert "exemplars" in payload


USER_IDS = ("load-user-a", "load-user-b")


@pytest.fixture(scope="module")
def acm_papers():
    papers = list(load_acm(scale=0.15, seed=3).papers)
    assert len(papers) >= 40
    return papers


@pytest.fixture
def degraded_index(acm_papers):
    """A real ServingIndex with no fitted model (TF-IDF fallback only).

    The lock, cache and degradation paths the scrapes race against are
    the modelled index's; skipping the fit keeps the test fast.
    """
    index = ServingIndex(None, papers=acm_papers[:25])
    index.register_user(USER_IDS[0], acm_papers[25:28])
    index.register_user(USER_IDS[1], acm_papers[28:31])
    return index


def _drive(index, templates, worker, n_requests, errors):
    """Issue *n_requests* queries, probes and ingests from one thread.

    Probe and ingest papers are never-seen clones with unique ids and no
    references, so probes miss the cache and ingests take the cold-start
    path without tripping the duplicate-id guard.
    """
    for i in range(n_requests):
        template = templates[(worker + i) % len(templates)]
        paper = dataclasses.replace(template, id=f"load-{worker}-{i:03d}",
                                    references=(), citation_count=0)
        try:
            if i % 10 == 3:
                index.add_paper(paper)
            elif i % 10 == 7:
                index.top_k([paper], k=10)
            else:
                index.top_k(USER_IDS[(worker + i) % len(USER_IDS)], k=10)
        except Exception as exc:  # noqa: BLE001 - recorded
            errors.append(f"worker {worker} request {i}: {exc!r}")


def _serve_concurrently(index, templates, n_workers=4, n_requests=15):
    """Run :func:`_drive` on *n_workers* threads; returns their errors."""
    errors = []
    workers = [threading.Thread(target=_drive,
                                args=(index, templates, worker, n_requests,
                                      errors),
                                daemon=True)
               for worker in range(n_workers)]
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in workers)
    return errors


class TestConcurrentScrapeUnderLoad:
    def test_hammered_endpoints_stay_clean(self, degraded_index,
                                           acm_papers, obs_enabled):
        """Scrape threads hammer the ops plane while threads serve.

        Zero non-200s, every exposition lint-clean (no torn bodies),
        every scrape bounded, and the scraped counters move with the
        traffic.
        """
        results = []   # (endpoint, status, body, latency)
        failures = []
        stop = threading.Event()

        with ObsServer(degraded_index, recorder=FlightRecorder()) as srv:
            def hammer(endpoint):
                while not stop.is_set():
                    started = time.perf_counter()
                    try:
                        with urllib.request.urlopen(srv.url + endpoint,
                                                    timeout=10.0) as resp:
                            body = resp.read()
                            status = resp.status
                    except urllib.error.HTTPError as err:
                        body, status = err.read(), err.code
                    except Exception as exc:  # noqa: BLE001 - recorded
                        failures.append(f"{endpoint}: {exc!r}")
                        continue
                    results.append((endpoint, status, body,
                                    time.perf_counter() - started))

            scrapers = [threading.Thread(target=hammer, args=(endpoint,),
                                         daemon=True)
                        for endpoint in ("/metrics", "/metrics", "/healthz")]
            for thread in scrapers:
                thread.start()
            try:
                traffic_errors = _serve_concurrently(degraded_index,
                                                     acm_papers[31:40])
            finally:
                stop.set()
                for thread in scrapers:
                    thread.join(timeout=10.0)
            # A last scrape that starts after the traffic, so the final
            # body reflects all of it.
            started = time.perf_counter()
            status, _, body = _get(srv.url + "/metrics")
            results.append(("/metrics", status, body,
                            time.perf_counter() - started))

        assert traffic_errors == []
        assert failures == []
        assert results, "the hammer threads never completed a scrape"
        statuses = {status for _, status, _, _ in results}
        assert statuses == {200}, f"non-200 under load: {statuses}"
        # No torn expositions: every /metrics body parses structurally.
        metric_bodies = [body for endpoint, _, body, _ in results
                         if endpoint == "/metrics"]
        assert metric_bodies
        for body in metric_bodies:
            assert lint_exposition(body.decode("utf-8")) == []
        # Bounded latency: an embedded stdlib server answering while the
        # index is hammered — generous bound, but it catches a serialized
        # or wedged listener.
        worst = max(latency for _, _, _, latency in results)
        assert worst < 5.0, f"scrape latency blew up: {worst:.2f}s"
        # Live counters made it into the exposition: the last /metrics
        # body reflects the traffic the run just produced.
        final = metric_bodies[-1].decode("utf-8")
        assert "repro_serve_queries" in final
        assert "repro_process_rss_kb" in final


class TestTracesUnderConcurrentServing:
    def test_trace_ids_stay_per_request_across_threads(
            self, degraded_index, acm_papers, obs_enabled, tmp_path):
        """Concurrent serving threads keep one coherent trace per request.

        Every retained exemplar has its own trace id stamped on each of
        its spans, and joins back to span lines of the same JSONL
        capture.
        """
        assert _serve_concurrently(degraded_index, acm_papers[31:40]) == []

        reservoir = obs.get_exemplars()
        exemplars = reservoir.slowest() + reservoir.errored()
        assert exemplars
        ids = [exemplar.trace_id for exemplar in exemplars]
        assert all(ids) and len(set(ids)) == len(ids)
        for exemplar in exemplars:
            assert exemplar.spans
            assert {s["trace_id"] for s in exemplar.spans} == \
                {exemplar.trace_id}

        path = tmp_path / "capture.jsonl"
        obs.write_jsonl(path)
        lines = [json.loads(line)
                 for line in path.read_text().strip().splitlines()]
        span_ids = {line["trace_id"] for line in lines
                    if line.get("type") == "span"}
        for exemplar in exemplars:
            assert exemplar.trace_id in span_ids
