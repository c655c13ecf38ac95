"""Committed benchmark records: the part of a run that repeats exactly.

``bench_hotpath.py``, ``bench_fig1_nnz.py`` and ``bench_adaptive_stepping.py``
write their full payload, timings included, to ``benchmarks/output/``
(gitignored).  Their result rows minus the timed fields -- step and LU
counts, fill, trajectory differences -- also go to
``benchmarks/records/<bench>-<mode>.json``, which is committed: a change
that moves a count shows up in ``git diff -- benchmarks/records/``.
"""

import json
from pathlib import Path

RECORDS_DIR = Path(__file__).parent / "records"


def untimed(value, timed: tuple):
    """``value`` without the dict keys that start with one of ``timed``,
    at any depth."""
    if isinstance(value, dict):
        return {key: untimed(item, timed) for key, item in value.items()
                if not key.startswith(timed)}
    if isinstance(value, list):
        return [untimed(item, timed) for item in value]
    return value


def record_text(rows: list, timed: tuple) -> str:
    """The committed form of ``rows``: untimed, sorted keys, one trailing
    newline."""
    return json.dumps(untimed(rows, timed), indent=2, sort_keys=True) + "\n"


def write_record(bench: str, mode: str, rows: list, timed: tuple) -> Path:
    """Write ``benchmarks/records/<bench>-<mode>.json`` and return its path."""
    path = RECORDS_DIR / f"{bench}-{mode}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(record_text(rows, timed))
    return path
