"""Tests for report generation (repro.reporting)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.analysis.waveform import Signal
from repro.campaign import CampaignResult, CircuitSpec, Scenario, ScenarioOutcome
from repro.reporting import render_method_matrix
from repro.reporting.figures import figure1_nnz_report, figure2_accuracy_report
from repro.reporting.tables import format_table


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


def _outcome(circuit, method, rt, status="ok", error=None):
    """A synthesized outcome: no simulation, every number chosen here."""
    return ScenarioOutcome(
        scenario=Scenario(name=f"{circuit}/{method}",
                          circuit=CircuitSpec(circuit), method=method),
        status=status,
        error=error,
        summary={"method": method.upper(), "#step": 100, "#NRa": 2.5,
                 "#ma": 12.0, "#LU": 40, "RT(s)": rt,
                 "completed": status == "ok"},
        structure={"#N": 100, "#Dev": 10, "nnzC": 50, "nnzG": 200},
    )


def _oom(circuit, method):
    return _outcome(circuit, method, None, status="failed",
                    error="FactorizationBudgetExceeded: LU factor fill-in "
                          "693 exceeds budget 522 while factorizing C/h+G")


def _cells(table):
    """The rendered matrix as one {header: cell} dict per data row."""
    lines = table.splitlines()
    headers = [cell.strip() for cell in lines[0].split(" | ")]
    return [dict(zip(headers, (cell.strip() for cell in line.split(" | "))))
            for line in lines[2:]]


class TestSpeedupRows:
    def test_speedup_is_reference_runtime_over_own(self):
        campaign = CampaignResult([_outcome("ckt1", "benr", 10.0),
                                   _outcome("ckt1", "er", 2.0),
                                   _outcome("ckt1", "er-c", 4.0)])
        sp = {row["scenario"]: row["SP"]
              for row in campaign.rows(reference_method="BENR")}
        assert sp == {"ckt1/benr": 1.0, "ckt1/er": 5.0, "ckt1/er-c": 2.5}

    def test_rows_carry_the_structure(self):
        row = CampaignResult([_outcome("ckt2", "er", 1.0)]).rows()[0]
        assert (row["circuit"], row["method"], row["#N"], row["nnzC"]) == \
            ("ckt2", "ER", 100, 50)


class TestMethodMatrix:
    def test_table1_layout_with_dev_and_iteration_columns(self):
        campaign = CampaignResult([_outcome("ckt1", "benr", 10.0),
                                   _outcome("ckt1", "er", 2.0),
                                   _outcome("ckt1", "er-c", 4.0)])
        table = render_method_matrix(campaign, reference_method="benr")
        (row,) = _cells(table)
        assert row["variant"] == "ckt1" and row["#Dev"] == "10"
        assert row["benr #NRa"] == "2.5" and "benr #ma" not in row
        assert row["er #ma"] == "12" and "er #NRa" not in row
        assert row["er-c #ma"] == "12"
        assert (row["benr SP"], row["er SP"], row["er-c SP"]) == \
            ("1", "5", "2.5")

    def test_one_row_per_variant(self):
        campaign = CampaignResult([_outcome("ckt1", "er", 2.0),
                                   _outcome("ckt2", "er", 3.0),
                                   _outcome("ckt1", "benr", 9.0)])
        rows = _cells(render_method_matrix(campaign))
        assert [row["variant"] for row in rows] == ["ckt1", "ckt2"]
        assert rows[1]["benr #step"] == "NA"

    def test_budget_failure_is_oom_with_na_cells(self):
        campaign = CampaignResult([_oom("ckt6", "benr"),
                                   _outcome("ckt6", "er", 2.0)])
        (row,) = _cells(render_method_matrix(campaign, reference_method="benr"))
        assert row["benr #step"] == "OoM"
        assert row["benr #NRa"] == row["benr RT(s)"] == row["benr SP"] == "NA"
        assert row["er #step"] == "100" and row["er SP"] == "NA"

    def test_other_failures_show_their_status(self):
        campaign = CampaignResult([
            _outcome("ckt1", "trap", None, status="error",
                     error="ValueError: boom")])
        (row,) = _cells(render_method_matrix(campaign))
        assert row["trap #step"] == "error" and row["trap #NRa"] == "NA"

    def test_missing_method_is_na(self):
        campaign = CampaignResult([_outcome("ckt1", "er", 2.0)])
        (row,) = _cells(render_method_matrix(
            campaign, reference_method="benr",
            methods=["gear2", "fe", "nosuch", "er"]))
        assert row["gear2 #step"] == row["gear2 #NRa"] == "NA"
        assert row["fe #step"] == row["fe #ma"] == "NA"
        assert row["nosuch #step"] == row["nosuch #ma"] == "NA"
        # no reference run: the speedup is NA, the counts are not
        assert row["er #step"] == "100" and row["er SP"] == "NA"


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
