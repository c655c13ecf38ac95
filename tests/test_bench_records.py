"""The benchmark scripts: the committed Fig.-1 record, and option checks.

CI diffs every committed benchmark record after running the benches;
this runs the cheapest of them (the smoke fill sweep, well under a
second) so a change in LU fill fails the tier-1 suite too.
"""

from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture()
def benchmarks_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))


def test_fig1_smoke_sweep_matches_committed_record(benchmarks_on_path):
    import bench_fig1_nnz as bench
    from _records import RECORDS_DIR, record_text

    rows = [bench.measure_point(*point) for point in bench.SMOKE_POINTS]
    committed = (RECORDS_DIR / "fig1_nnz-smoke.json").read_text()
    assert record_text(rows, bench.TIMED_FIELDS) == committed, (
        "LU fill moved: regenerate with `PYTHONPATH=src python "
        "benchmarks/bench_fig1_nnz.py --smoke` and say why in CHANGES.md")


@pytest.mark.parametrize("repeats", ["0", "-1"])
def test_hotpath_refuses_repeats_below_one(benchmarks_on_path, capsys, repeats):
    # --repeats 0 used to run no timed repeat and crash on a None result
    import bench_hotpath

    with pytest.raises(SystemExit) as exc:
        bench_hotpath.main(["--smoke", f"--repeats={repeats}"])
    assert exc.value.code == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
