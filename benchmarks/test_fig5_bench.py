"""Bench: regenerate the Fig. 5 author/paper embedding statistics."""

from conftest import save_result

from repro.experiments import run_experiment


def test_fig5(benchmark):
    table = benchmark.pedantic(
        lambda: run_experiment("fig5", scale=0.6, seed=0),
        rounds=1, iterations=1,
    )
    save_result(table, "fig5")
    # Shape 1 (Fig. 5a): co-authors are closer than random author pairs in
    # the content view.
    assert table.cell("content", "co-author cos") > table.cell("content",
                                                               "random cos")
    # Shape 2 (Fig. 5b/d/f): the interest and influence neighbourhoods of
    # papers genuinely differ from the content neighbourhood.
    assert table.cell("interest", "neighbourhood shift") > 0.2
    assert table.cell("influence", "neighbourhood shift") > 0.2
    # Shape 3: content view's shift against itself is zero by construction.
    assert table.cell("content", "neighbourhood shift") == 0.0
