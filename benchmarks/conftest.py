"""Shared benchmark helpers.

Every benchmark regenerates one paper table/figure at reproduction scale,
saves the rendered result under ``results/`` (so the regenerated rows are
inspectable after a ``--benchmark-only`` run), and asserts the paper's
qualitative *shape* (who wins, monotonicity, diagonals).

Setting ``REPRO_OBS=1`` additionally captures an observability trace per
benchmark (stage spans, training telemetry, sampling counters) under
``results/obs/<benchmark>.jsonl`` — the timing baseline future perf PRs
diff against — plus a run snapshot under ``results/obs/runs/<benchmark>.json``
for the regression gate. Compare snapshots with ``python -m repro.obs
diff A B`` or gate them with ``python -m repro.obs check RUN --baseline
FILE``.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import obs
from repro.experiments.common import ResultTable, render_results

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def save_result(result: "ResultTable | list[ResultTable]", name: str) -> None:
    """Persist a rendered experiment table under results/<name>.txt."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(render_results(result) + "\n")


@pytest.fixture(autouse=True)
def obs_capture(request):
    """Opt-in per-benchmark observability capture (``REPRO_OBS=1``)."""
    if not os.environ.get("REPRO_OBS"):
        yield
        return
    obs.configure(enabled=True, reset=True)
    try:
        yield
    finally:
        obs.configure(enabled=False)
        obs.write_jsonl(RESULTS_DIR / "obs" / f"{request.node.name}.jsonl",
                        meta={"benchmark": request.node.name})
        obs.runs.write_run(RESULTS_DIR / "obs" / "runs",
                           run_id=request.node.name,
                           meta={"benchmark": request.node.name})
        obs.configure(reset=True)
