"""Golden regression wall: experiments must match the checked-in results.

Reruns the cheap headline experiments (``table1``, ``fig2``) at their
default settings (scale 1.0) and compares the rendered tables against
``tests/regression/golden/*.txt`` token by token — numeric cells within
a small absolute tolerance (guarding against cross-platform float
formatting drift), everything else exactly. The goldens live here, not
under ``results/``: the benchmarks write their scale-0.6 runs of the
same experiments there, and one file holds one scale.

If a change to samplers, RNG draw order, or model internals shifts these
numbers *intentionally*, regenerate the goldens in the same change::

    PYTHONPATH=src python - <<'PY'
    from repro.experiments.common import run_experiment, render_results
    for exp in ("table1", "fig2"):
        with open(f"tests/regression/golden/{exp}.txt", "w") as fh:
            fh.write(render_results(run_experiment(exp)) + "\n")
    PY

so the diff is visible to reviewers instead of silently absorbed.
"""

from pathlib import Path

import pytest

from repro.experiments.common import render_results, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden"

#: Absolute tolerance for numeric cells (tables render with 3 decimals).
TOLERANCE = 2e-3


def _as_number(token: str) -> float | None:
    try:
        return float(token)
    except ValueError:
        return None


def assert_text_close(actual: str, golden: str, source: str) -> None:
    actual_lines = actual.strip().splitlines()
    golden_lines = golden.strip().splitlines()
    assert len(actual_lines) == len(golden_lines), (
        f"{source}: {len(actual_lines)} lines vs {len(golden_lines)} golden")
    for lineno, (got, want) in enumerate(zip(actual_lines, golden_lines), 1):
        got_tokens, want_tokens = got.split(), want.split()
        assert len(got_tokens) == len(want_tokens), (
            f"{source}:{lineno}: {got!r} vs golden {want!r}")
        for got_tok, want_tok in zip(got_tokens, want_tokens):
            want_num = _as_number(want_tok)
            if want_num is None:
                assert got_tok == want_tok, (
                    f"{source}:{lineno}: {got_tok!r} != {want_tok!r}")
            else:
                got_num = _as_number(got_tok)
                assert got_num is not None, (
                    f"{source}:{lineno}: expected number, got {got_tok!r}")
                assert abs(got_num - want_num) <= TOLERANCE, (
                    f"{source}:{lineno}: {got_num} vs golden {want_num} "
                    f"(|diff| > {TOLERANCE})")


@pytest.mark.parametrize("experiment", ["table1", "fig2"])
def test_experiment_matches_golden(experiment):
    golden_path = GOLDEN / f"{experiment}.txt"
    assert golden_path.is_file(), (
        f"missing golden file {golden_path}; generate it as this "
        f"module's docstring shows")
    actual = render_results(run_experiment(experiment))
    assert_text_close(actual, golden_path.read_text(encoding="utf-8"),
                      source=f"tests/regression/golden/{experiment}.txt")
