"""serve_open's gated throughput is goodput: sheds and late answers miss."""

from bench import params
from bench.workloads import Window, _end_to_end, record_open_loop

LIMIT_S = params.SERVE_OPEN["query_limit_ms"] / 1e3


def _throughput(done) -> float:
    window = Window(wall_s=1.0, cpu_s=0.1)
    record_open_loop(window, done, params.SERVE_OPEN)
    assert not window.errors
    return _end_to_end(window, [1.0], 1.0, 0.5)["throughput_per_s"]["value"]


def _done(shed=(), late=()):
    return [(i, "query", 0.0, 2 * LIMIT_S if i in late else LIMIT_S / 2,
             None, i in shed) for i in range(10)]


def test_every_answer_on_time_counts():
    assert _throughput(_done()) == 10.0


def test_a_shedding_window_lowers_throughput():
    assert _throughput(_done(shed={0, 1, 2, 3})) == 6.0


def test_late_answers_do_not_count():
    assert _throughput(_done(late={5, 6})) == 8.0
    ingest = [(0, "ingest", 0.0, 2 * LIMIT_S, None, False)]
    assert _throughput(ingest) == 1.0  # an ingest's limit is longer
