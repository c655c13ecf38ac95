"""Analysis drivers: DC operating point and waveform comparison.

Cross-method run statistics (the paper's Table I) come from campaign
outcomes: :meth:`repro.campaign.CampaignResult.rows` and
:func:`repro.reporting.render_method_matrix`.
"""

from repro.analysis.dc import DCResult, dc_operating_point
from repro.analysis.waveform import Signal, compare_waveforms, WaveformComparison

__all__ = [
    "DCResult",
    "dc_operating_point",
    "Signal",
    "compare_waveforms",
    "WaveformComparison",
]
