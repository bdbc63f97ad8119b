"""End-to-end smoke tests: every experiment driver runs at tiny scale.

These complement the benchmarks (which run at reproduction scale and
assert the paper's shapes): here we only check that each driver produces
a structurally valid table quickly, so a refactoring that breaks an
experiment fails in the unit suite, not just in the long benchmark run.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.common import ResultTable


@pytest.mark.slow
class TestDriversRun:
    def test_table1(self):
        table = run_experiment("table1", scale=0.25, seed=0)
        assert isinstance(table, ResultTable)
        assert [r[0] for r in table.rows] == ["CLT", "CSJ", "HP",
                                              "SEM-B", "SEM-M", "SEM-R"]
        for row in table.rows:
            for cell in row[1:]:
                assert -1.0 <= cell <= 1.0

    def test_fig2(self):
        table = run_experiment("fig2", scale=0.25, seed=0)
        assert [r[0] for r in table.rows] == ["SHPE", "Doc2Vec", "BERT", "SEM"]

    def test_fig3(self):
        tables = run_experiment("fig3", scale=0.25, seed=0, n_papers=30)
        scatter, clustering = tables
        assert len(scatter.rows) == 9   # 3 disciplines x 3 subspaces
        assert len(clustering.rows) == 3

    def test_table2(self):
        table = run_experiment("table2", scale=0.4, seed=0, min_stratum=5)
        assert len(table.rows) == 3
        assert all(isinstance(c, float) for row in table.rows for c in row[1:])

    def test_table3(self):
        table = run_experiment("table3", scale=0.2, seed=0)
        assert len(table.rows) == 3

    def test_table4_subset(self):
        table = run_experiment("table4", scale=0.3, seed=0, acm_users=5,
                               scopus_users=5, methods=("NBCF", "NPRec"),
                               ks=(10, 20))
        assert len(table.rows) == 2
        assert 0.0 <= table.cell("NPRec", "ACM k=10") <= 1.0

    def test_table5_subset(self):
        table = run_experiment("table5", scale=0.3, seed=0, n_users=5,
                               methods=("NBCF", "NPRec"))
        assert table.cell("NPRec", "ACM MRR rp=5") >= 0.0

    def test_table6_subset(self):
        table = run_experiment("table6", scale=0.3, seed=0, n_users=5,
                               methods=("NPRec",), ratios=(1, 5),
                               corpora=("ACM",))
        assert len(table.rows) == 1

    def test_table7_subset(self):
        table = run_experiment("table7", scale=0.3, seed=0, n_users=5,
                               neighbor_ks=(2, 4))
        assert table.cell("NPRec+SC", "K=4") == "-"
        assert isinstance(table.cell("NPRec", "K=2"), float)

    def test_table8_subset(self):
        table = run_experiment("table8", scale=0.3, seed=0, n_users=5,
                               depths=(1, 2))
        assert isinstance(table.cell("NPRec", "H=1"), float)

    def test_fig5(self):
        table = run_experiment("fig5", scale=0.3, seed=0)
        assert [r[0] for r in table.rows] == ["content", "interest", "influence"]
        assert table.cell("content", "neighbourhood shift") == 0.0

    def test_fig6_subset(self):
        table = run_experiment("fig6", scale=0.6, seed=0, n_users=5,
                               methods=("NBCF", "NPRec"))
        assert len(table.rows) == 2
