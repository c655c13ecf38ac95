"""Golden-trajectory store: persistence, checking, tolerance discipline."""

import json

import numpy as np
import pytest

from repro.campaign.scenario import CircuitSpec, Scenario, scenario_hash
from repro.verify.golden import GoldenStore, ToleranceWideningError


@pytest.fixture()
def scenario():
    return Scenario(
        name="rc/er",
        circuit=CircuitSpec("rc_ladder", params={"num_segments": 4}),
        method="er",
        options={"t_stop": 1e-9},
        observe=["n4"],
    )


@pytest.fixture()
def grid():
    return np.linspace(0.0, 1e-9, 21)


@pytest.fixture()
def waveforms(grid):
    return {"n4": 1.0 - np.exp(-grid / 0.2e-9)}


class TestStoreRoundTrip:
    def test_save_load_check(self, tmp_path, scenario, grid, waveforms):
        store = GoldenStore(tmp_path / "goldens")
        path = store.save(scenario, grid, waveforms, tolerance=1e-6,
                          summary={"#step": 12})
        assert path.exists()
        assert store.has(scenario)
        assert store.keys() == [scenario_hash(scenario)]

        samples, meta = store.load(scenario)
        assert np.array_equal(samples["__times__"], grid)
        assert np.array_equal(samples["n4"], waveforms["n4"])
        assert meta["tolerance"] == 1e-6
        assert meta["summary"]["#step"] == 12
        assert meta["scenario"]["method"] == "er"

        check = store.check(scenario, grid, waveforms)
        assert check.ok
        assert check.max_error == 0.0

    def test_check_flags_deviation_beyond_band(self, tmp_path, scenario,
                                               grid, waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        drifted = {"n4": waveforms["n4"] + 5e-6}
        check = store.check(scenario, grid, drifted)
        assert not check.ok
        assert check.max_error == pytest.approx(5e-6)
        assert "VIOLATION" in check.describe()

    def test_check_interpolates_finer_grids(self, tmp_path, scenario, grid,
                                            waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-3)
        fine = np.linspace(0.0, 1e-9, 201)
        check = store.check(scenario, fine,
                            {"n4": np.interp(fine, grid, waveforms["n4"])})
        assert check.ok

    def test_missing_golden_raises_with_key(self, tmp_path, scenario, grid,
                                            waveforms):
        store = GoldenStore(tmp_path)
        with pytest.raises(KeyError, match=scenario_hash(scenario)[:12]):
            store.check(scenario, grid, waveforms)

    def test_missing_node_counts_as_violation(self, tmp_path, scenario, grid,
                                              waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        check = store.check(scenario, grid, {})
        assert not check.ok
        assert check.errors["n4"] == np.inf


class TestKeying:
    def test_key_is_content_hash(self, tmp_path, scenario):
        store = GoldenStore(tmp_path)
        assert store.key(scenario) == scenario_hash(scenario)
        renamed = Scenario.from_dict({**scenario.to_dict(), "name": "other"})
        assert store.key(renamed) == store.key(scenario)

    def test_different_method_gets_different_file(self, tmp_path, scenario,
                                                  grid, waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        other = Scenario.from_dict({**scenario.to_dict(), "method": "benr"})
        assert not store.has(other)


class TestToleranceDiscipline:
    def test_regeneration_refuses_to_widen(self, tmp_path, scenario, grid,
                                           waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        with pytest.raises(ToleranceWideningError, match="refusing to widen"):
            store.save(scenario, grid, waveforms, tolerance=1e-3)
        # the stored golden is untouched
        _, meta = store.load(scenario)
        assert meta["tolerance"] == 1e-6

    def test_tightening_is_always_allowed(self, tmp_path, scenario, grid,
                                          waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-3)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        _, meta = store.load(scenario)
        assert meta["tolerance"] == 1e-6

    def test_allow_widen_overrides(self, tmp_path, scenario, grid, waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        store.save(scenario, grid, waveforms, tolerance=1e-3, allow_widen=True)
        _, meta = store.load(scenario)
        assert meta["tolerance"] == 1e-3

    def test_check_tolerance_override_only_tightens(self, tmp_path, scenario,
                                                    grid, waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        drifted = {"n4": waveforms["n4"] + 5e-7}
        assert store.check(scenario, grid, drifted).ok
        assert not store.check(scenario, grid, drifted, tolerance=1e-7).ok
        # a looser override is ignored: the stored band is the contract
        bad = {"n4": waveforms["n4"] + 5e-5}
        assert not store.check(scenario, grid, bad, tolerance=1e-3).ok

    def test_rejects_nonsense(self, tmp_path, scenario, grid, waveforms):
        store = GoldenStore(tmp_path)
        with pytest.raises(ValueError, match="positive"):
            store.save(scenario, grid, waveforms, tolerance=0.0)
        with pytest.raises(ValueError, match="at least one node"):
            store.save(scenario, grid, {}, tolerance=1e-6)
        with pytest.raises(ValueError, match="shape"):
            store.save(scenario, grid, {"n4": np.zeros(3)}, tolerance=1e-6)

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_rejects_non_finite_band(self, tmp_path, scenario, grid, waveforms,
                                     tolerance):
        # NaN compares false, so it would slip past a plain "<= 0" check
        # and the refuse-to-widen guard alike and fail every later check
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        with pytest.raises(ValueError, match="positive and finite"):
            store.save(scenario, grid, waveforms, tolerance=tolerance)
        _, meta = store.load(scenario)
        assert meta["tolerance"] == 1e-6
        assert store.check(scenario, grid, waveforms).ok

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-6"])
    def test_cli_refuses_bad_golden_tolerance(self, tmp_path, capsys,
                                              monkeypatch, value):
        from repro.verify import __main__ as cli

        monkeypatch.setattr(cli, "_run_matrix", lambda args: pytest.fail(
            "the matrix ran with a bad --golden-tolerance"))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--matrix", "--goldens", str(tmp_path),
                      f"--golden-tolerance={value}"])
        assert exc.value.code == 2
        assert "--golden-tolerance" in capsys.readouterr().err

    def test_metadata_is_valid_json(self, tmp_path, scenario, grid, waveforms):
        store = GoldenStore(tmp_path)
        store.save(scenario, grid, waveforms, tolerance=1e-6)
        meta = json.loads(store.meta_path(scenario).read_text())
        assert meta["key"] == scenario_hash(scenario)
        assert meta["nodes"] == ["n4"]
