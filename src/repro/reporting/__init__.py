"""Report generation for the paper's tables and figures.

One renderer per report: Table I is the method matrix of a campaign
(:func:`render_method_matrix` over a
:class:`~repro.campaign.CampaignResult`), next to the per-scenario
campaign table, the Fig. 1 / Fig. 2 reports and the verification
tables.  Fleet status is rendered by :mod:`repro.watch`.
"""

from repro.reporting.tables import format_table
from repro.reporting.campaign_tables import (
    DETERMINISTIC_COLUMNS,
    campaign_rows,
    render_campaign_table,
    render_method_matrix,
)
from repro.reporting.figures import (
    Figure1Report,
    figure1_nnz_report,
    Figure2Report,
    figure2_accuracy_report,
)
from repro.reporting.verify_tables import (
    render_verify_report,
    render_verify_summary,
    verify_rows,
)

__all__ = [
    "format_table",
    "campaign_rows",
    "render_campaign_table",
    "render_method_matrix",
    "DETERMINISTIC_COLUMNS",
    "Figure1Report",
    "figure1_nnz_report",
    "Figure2Report",
    "figure2_accuracy_report",
    "verify_rows",
    "render_verify_report",
    "render_verify_summary",
]
