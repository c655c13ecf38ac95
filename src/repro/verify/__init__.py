"""Differential verification subsystem.

Turns correctness checking into a first-class, campaign-driven workload
(the systematic harness behind the repo's accuracy claims):

* :mod:`repro.verify.oracles` -- registry of analytic references:
  closed-form RC/RL/RLC/superposition responses and high-resolution
  BENR self-references for circuits without closed forms;
* :mod:`repro.verify.golden` -- golden-trajectory store (compressed
  ``.npz`` + JSON metadata keyed by scenario content hash) with explicit
  tolerance bands and a regeneration path that refuses to widen them;
* :mod:`repro.verify.matrix` -- the differential matrix runner built on
  :mod:`repro.campaign`: every registered integrator x >= 4 circuit
  families x >= 3 source types, cross-checked pairwise and against the
  oracles, goldens and physical/accounting invariants;
* :mod:`repro.verify.invariants` -- Eq. 13 slope consistency,
  passivity/energy decay, and the linearization cache's LU accounting
  identities.

Performance is not gated here: the benchmarks commit their exact counts
under ``benchmarks/records/`` and CI checks them with ``git diff``.

CLI: ``python -m repro.verify --matrix`` / ``--prune-orphans``.
"""

from repro.verify.golden import (
    GoldenCheck,
    GoldenStore,
    ToleranceWideningError,
    samples_from_result,
)
from repro.verify.invariants import (
    InvariantViolation,
    check_energy_decay,
    check_lu_accounting,
    check_slope_consistency,
)
from repro.verify.matrix import (
    CheckRow,
    VerifyReport,
    matrix_scenarios,
    oracle_scenarios,
    run_matrix,
)
from repro.verify.oracles import (
    DEFAULT_METHOD_BANDS,
    Oracle,
    all_oracles,
    get_oracle,
    oracle_names,
    register_oracle,
)

__all__ = [
    "Oracle",
    "register_oracle",
    "get_oracle",
    "oracle_names",
    "all_oracles",
    "DEFAULT_METHOD_BANDS",
    "GoldenStore",
    "GoldenCheck",
    "ToleranceWideningError",
    "samples_from_result",
    "InvariantViolation",
    "check_slope_consistency",
    "check_energy_decay",
    "check_lu_accounting",
    "CheckRow",
    "VerifyReport",
    "matrix_scenarios",
    "oracle_scenarios",
    "run_matrix",
]
