"""Figure data generation (Fig. 1 and Fig. 2 of the paper).

No plotting library is assumed; the "figures" are emitted as structured
reports (dataclasses + plain-text rendering) carrying exactly the data the
paper's figures visualize:

* Fig. 1 -- the non-zero counts of ``C``, ``G`` and of the LU factors of
  ``C``, ``G`` and ``(C/h + G)`` for a post-extraction-like system: the
  quantitative content behind the spy plots.
* Fig. 2 -- the transient waveform of one observed node under several
  methods plus their error against a fine-step reference solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.analysis.waveform import Signal, WaveformComparison, compare_waveforms
from repro.linalg.regularization import epsilon_regularize
from repro.linalg.sparse_lu import factorize
from repro.reporting.tables import format_table

__all__ = ["Figure1Report", "figure1_nnz_report", "Figure2Report", "figure2_accuracy_report"]


@dataclass
class Figure1Report:
    """Non-zero statistics of the matrices and factors shown in Fig. 1."""

    n: int
    h: float
    nnz_C: int
    nnz_G: int
    nnz_LU_C: int
    nnz_LU_G: int
    nnz_LU_ChG: int
    bandwidth_C: float
    bandwidth_G: float

    @property
    def factor_advantage(self) -> float:
        """How much smaller the G factors are than the (C/h + G) factors."""
        return self.nnz_LU_ChG / max(self.nnz_LU_G, 1)

    def as_dict(self) -> Dict[str, float]:
        return {
            "n": self.n,
            "h": self.h,
            "nnz(C)": self.nnz_C,
            "nnz(G)": self.nnz_G,
            "nnz(LU(C))": self.nnz_LU_C,
            "nnz(LU(G))": self.nnz_LU_G,
            "nnz(LU(C/h+G))": self.nnz_LU_ChG,
            "bandwidth(C)": self.bandwidth_C,
            "bandwidth(G)": self.bandwidth_G,
            "LU(C/h+G) / LU(G)": self.factor_advantage,
        }

    def render(self) -> str:
        rows = [[k, v] for k, v in self.as_dict().items()]
        return format_table(["quantity", "value"], rows)


def _mean_bandwidth(matrix: sp.spmatrix) -> float:
    """Average |row - col| over the non-zeros (a scalar proxy for the spy plot)."""
    coo = matrix.tocoo()
    if coo.nnz == 0:
        return 0.0
    return float(np.mean(np.abs(coo.row - coo.col)))


def figure1_nnz_report(C: sp.spmatrix, G: sp.spmatrix, h: float = 1e-12) -> Figure1Report:
    """Compute the Fig. 1 statistics for a (C, G) pair.

    ``C`` is epsilon-regularized before its own factorization when singular
    (the paper factored the extracted C, which is non-singular for the
    FreeCPU interconnect); the combined matrix ``C/h + G`` is factorized as
    is, exactly like a BENR Jacobian.
    """
    C = C.tocsc()
    G = G.tocsc()
    lu_G = factorize(G, label="G")
    lu_ChG = factorize((C / h + G).tocsc(), label="C/h+G")
    try:
        lu_C = factorize(C, label="C")
        nnz_lu_c = lu_C.nnz_factors
    except np.linalg.LinAlgError:
        lu_C = factorize(epsilon_regularize(C), label="C (regularized)")
        nnz_lu_c = lu_C.nnz_factors
    return Figure1Report(
        n=C.shape[0],
        h=h,
        nnz_C=int(C.nnz),
        nnz_G=int(G.nnz),
        nnz_LU_C=int(nnz_lu_c),
        nnz_LU_G=int(lu_G.nnz_factors),
        nnz_LU_ChG=int(lu_ChG.nnz_factors),
        bandwidth_C=_mean_bandwidth(C),
        bandwidth_G=_mean_bandwidth(G),
    )


@dataclass
class Figure2Report:
    """Waveforms and error metrics of the Fig. 2 accuracy comparison."""

    node: str
    reference: Signal
    signals: Dict[str, Signal] = field(default_factory=dict)
    comparisons: Dict[str, WaveformComparison] = field(default_factory=dict)

    def add(self, label: str, signal: Signal) -> None:
        self.signals[label] = signal
        self.comparisons[label] = compare_waveforms(signal, self.reference)

    def max_errors(self) -> Dict[str, float]:
        return {label: cmp.max_abs_error for label, cmp in self.comparisons.items()}

    def rms_errors(self) -> Dict[str, float]:
        return {label: cmp.rms_error for label, cmp in self.comparisons.items()}

    def render(self) -> str:
        rows = [
            [label, cmp.max_abs_error, cmp.rms_error, cmp.mean_abs_error]
            for label, cmp in self.comparisons.items()
        ]
        return format_table(
            [f"method (node {self.node})", "max |err| [V]", "RMS err [V]", "mean |err| [V]"],
            rows,
        )


def figure2_accuracy_report(node: str, reference: Signal,
                            signals: Optional[Dict[str, Signal]] = None) -> Figure2Report:
    """Build the Fig. 2 accuracy report for one observed node."""
    report = Figure2Report(node=node, reference=reference)
    for label, signal in (signals or {}).items():
        report.add(label, signal)
    return report
