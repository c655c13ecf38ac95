"""Tests for report generation (repro.reporting)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.statistics import MethodComparison
from repro.analysis.waveform import Signal
from repro.reporting.figures import figure1_nnz_report, figure2_accuracy_report
from repro.reporting.tables import format_table, render_table1, table1_rows


class TestFormatTable:
    def test_alignment_and_headers(self):
        text = format_table(["a", "bbb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bbb" in lines[0]
        assert "NA" in lines[3]

    def test_empty_rows(self):
        text = format_table(["col1", "col2"], [])
        assert "col1" in text

    def test_float_formatting(self):
        text = format_table(["v"], [[0.000123], [12345.6], [1.5]])
        assert "0.000123" in text
        assert "1.23e+04" in text or "12345" in text  # scientific or plain
        assert "1.5" in text


def _comparison(circuit, benr_ok=True):
    comp = MethodComparison(circuit_name=circuit,
                            structure={"#N": 100, "#Dev": 10, "nnzC": 50, "nnzG": 200})
    comp.rows.append({
        "method": "BENR", "#step": 500, "#NRa": 2.8, "#ma": 0.0, "#LU": 1400,
        "RT(s)": 10.0, "peak_factor_nnz": 5000, "completed": benr_ok,
        "failure": None if benr_ok else "FactorizationBudgetExceeded: fill-in",
        "SP": 1.0 if benr_ok else None,
    })
    comp.rows.append({
        "method": "ER", "#step": 300, "#NRa": 0.0, "#ma": 28.0, "#LU": 300,
        "RT(s)": 2.0, "peak_factor_nnz": 800, "completed": True, "failure": None,
        "SP": 5.0 if benr_ok else None,
    })
    comp.rows.append({
        "method": "ER-C", "#step": 310, "#NRa": 0.0, "#ma": 30.0, "#LU": 310,
        "RT(s)": 2.5, "peak_factor_nnz": 800, "completed": True, "failure": None,
        "SP": 4.0 if benr_ok else None,
    })
    return comp


class TestTable1:
    def test_rows_one_per_circuit(self):
        rows = table1_rows([_comparison("ckt1"), _comparison("ckt2")])
        assert len(rows) == 2
        assert rows[0][0] == "ckt1"
        # columns: case + 4 structure + 3 methods x 4
        assert len(rows[0]) == 5 + 12

    def test_failed_baseline_renders_oom_and_na(self):
        text = render_table1([_comparison("ckt6", benr_ok=False)])
        assert "OoM" in text
        assert "NA" in text

    def test_full_render_contains_headers(self):
        text = render_table1([_comparison("ckt1")])
        for header in ("Case", "#N", "nnzC", "BENR #step", "ER #ma", "ER-C SP"):
            assert header in text

    def test_speedup_values_present(self):
        text = render_table1([_comparison("ckt1")])
        assert "5" in text  # the ER speedup


class TestFigure1Report:
    def test_report_on_banded_vs_coupled(self):
        n = 150
        rng = np.random.default_rng(0)
        G = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.1), np.full(n - 1, -1.0)],
                     [-1, 0, 1]).tocsc()
        rows = rng.integers(0, n, size=300)
        cols = rng.integers(0, n, size=300)
        C = (sp.coo_matrix((np.full(300, 1e-15), (rows, cols)), shape=(n, n))
             + sp.identity(n) * 1e-12).tocsc()
        C = (C + C.T).tocsc()
        report = figure1_nnz_report(C, G, h=1e-12)
        assert report.n == n
        assert report.nnz_LU_ChG > report.nnz_LU_G
        assert report.bandwidth_C > report.bandwidth_G
        assert report.factor_advantage > 1.0
        d = report.as_dict()
        assert d["nnz(G)"] == G.nnz
        assert "quantity" in report.render()

    def test_singular_c_is_regularized_for_its_own_factorization(self):
        n = 20
        G = sp.identity(n, format="csc")
        C = sp.diags([1e-12] * (n // 2) + [0.0] * (n - n // 2)).tocsc()
        report = figure1_nnz_report(C, G)
        assert report.nnz_LU_C >= n  # factorization succeeded after patching


class TestFigure2Report:
    def test_error_ordering_preserved(self):
        t = np.linspace(0, 1e-9, 200)
        ref = Signal(t, np.sin(2e9 * np.pi * t), "REF")
        good = Signal(t, np.sin(2e9 * np.pi * t) + 1e-4, "ER")
        bad = Signal(t, np.sin(2e9 * np.pi * t) + 1e-2, "BENR")
        report = figure2_accuracy_report("out", ref, {"ER": good, "BENR": bad})
        errors = report.max_errors()
        assert errors["ER"] < errors["BENR"]
        assert "BENR" in report.render()
        assert set(report.rms_errors()) == {"ER", "BENR"}

    def test_incremental_add(self):
        t = np.linspace(0, 1, 50)
        ref = Signal(t, np.zeros(50), "REF")
        report = figure2_accuracy_report("node", ref)
        report.add("M1", Signal(t, np.full(50, 0.5), "M1"))
        assert report.comparisons["M1"].max_abs_error == pytest.approx(0.5)


class TestServiceStatsTable:
    def stats_document(self):
        return {
            "uptime_seconds": 12.5,
            "broker": {"path": "/tmp/b", "jobs": {"queued": 1, "leased": 2,
                                                  "done": 7, "failed": 0}},
            "counters": {"admitted": 10, "coalesced": 4, "cache_answers": 6,
                         "simulations": 10, "worker_cache_hits": 3},
            "cache": {"root": "/tmp/c", "entries": 7},
            "campaigns": 2,
        }

    def test_rows_cover_every_section(self):
        from repro.reporting import service_stats_rows

        rows = service_stats_rows(self.stats_document())
        sections = {row[0] for row in rows}
        assert sections == {"queue", "admission", "workers", "cache",
                            "service"}
        by_metric = {(row[0], row[1]): row[2] for row in rows}
        assert by_metric[("admission", "submissions")] == 20
        assert by_metric[("admission", "saved fraction")] == pytest.approx(0.5)
        assert by_metric[("workers", "simulations")] == 10

    def test_render_is_aligned_table(self):
        from repro.reporting import render_service_stats

        table = render_service_stats(self.stats_document())
        lines = table.splitlines()
        assert lines[0].startswith("section")
        assert all("|" in line for line in lines if line and "-+-" not in line)

    def test_render_tolerates_minimal_document(self):
        from repro.reporting import render_service_stats

        table = render_service_stats({})
        assert "queued" in table and "simulations" in table
