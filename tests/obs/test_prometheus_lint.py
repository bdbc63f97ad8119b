"""Golden-file lint coverage for the full Prometheus exposition format.

``lint_exposition`` is the structural contract behind the ops plane's
``/metrics`` endpoint: the concurrent-scrape tests use it to detect torn
output, so this file proves (a) a registry exercising every metric kind
and label escaping lints clean, and (b) the linter actually rejects
each class of violation it claims to catch.
"""

import pytest

from repro.obs.emitters import prometheus_text, set_metric_help
from repro.obs.metrics import MetricsRegistry
from tests.helpers import lint_exposition


@pytest.fixture
def populated():
    """A registry exercising all three kinds, labels, and escaping."""
    registry = MetricsRegistry()
    registry.counter("lint.requests", route="/metrics", outcome="ok").inc(3)
    registry.counter("lint.requests", route="/healthz", outcome="ok").inc()
    registry.gauge("lint.queue_depth").set(7)
    registry.gauge("lint.temperature").set(-3.5)
    registry.quantile("lint.duration").observe(0.125)
    # Label values whose escaping the linter must accept back.
    registry.counter("lint.weird_labels",
                     path='C:\\temp\\"x"', note="line\nbreak").inc()
    return registry


class TestCleanExposition:
    def test_populated_registry_lints_clean(self, populated):
        text = prometheus_text(populated)
        assert lint_exposition(text) == []

    def test_empty_exposition_lints_clean(self):
        assert lint_exposition(prometheus_text(MetricsRegistry())) == []

    def test_one_help_and_type_per_family(self, populated):
        lines = prometheus_text(populated).splitlines()
        helps = [l.split()[2] for l in lines if l.startswith("# HELP")]
        types = [l.split()[2] for l in lines if l.startswith("# TYPE")]
        assert len(helps) == len(set(helps))
        assert helps == types  # pairwise: HELP immediately announces TYPE

    def test_custom_help_text_is_escaped(self):
        registry = MetricsRegistry()
        registry.counter("lint.helped").inc()
        set_metric_help("lint.helped", "first\nsecond \\ third")
        try:
            text = prometheus_text(registry)
        finally:
            set_metric_help("lint.helped", "")
        assert "# HELP repro_lint_helped first\\nsecond \\\\ third" in text
        assert lint_exposition(text) == []


class TestLintCatchesViolations:
    def test_sample_without_type(self):
        errors = lint_exposition("repro_orphan_total 1\n")
        assert any("without TYPE" in e for e in errors)

    def test_type_without_help(self):
        errors = lint_exposition(
            "# TYPE repro_x counter\nrepro_x 1\n")
        assert any("HELP" in e for e in errors)

    def test_duplicate_type_line(self):
        text = ("# HELP repro_x h\n# TYPE repro_x counter\nrepro_x 1\n"
                "# HELP repro_x h\n# TYPE repro_x counter\nrepro_x 2\n")
        assert lint_exposition(text) != []

    def test_torn_tail_rejected(self, populated):
        text = prometheus_text(populated)
        torn = text[:len(text) // 2].rsplit("\n", 1)[0] + "\nrepro_lint_late"
        assert lint_exposition(torn) != []

    def test_interleaved_families_rejected(self):
        text = ("# HELP repro_a h\n# TYPE repro_a counter\nrepro_a 1\n"
                "# HELP repro_b h\n# TYPE repro_b counter\nrepro_b 1\n"
                "repro_a 2\n")
        errors = lint_exposition(text)
        assert any("repro_a" in e for e in errors)

    def test_malformed_sample_line(self):
        text = ("# HELP repro_x h\n# TYPE repro_x counter\n"
                "repro_x{broken= 1\n")
        errors = lint_exposition(text)
        assert any("malformed" in e.lower() for e in errors)

    def test_bad_value_rejected(self):
        text = ("# HELP repro_x h\n# TYPE repro_x counter\n"
                "repro_x one\n")
        assert lint_exposition(text) != []
