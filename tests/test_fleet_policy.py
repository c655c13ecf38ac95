"""The scaling policy as a pure function: canned snapshots in, decisions out.

No subprocesses, no clocks, no broker -- every scale-up/retire/hold/
backoff branch of :class:`repro.fleet.FleetPolicy` is asserted from
:class:`FleetObservation` literals.
"""

import pytest

from repro.fleet import FleetObservation, FleetPolicy


def obs(queued=0, leased=0, live=0, in_backoff=False, breaker_open=False):
    return FleetObservation(queued=queued, leased=leased,
                            live_workers=live, in_backoff=in_backoff,
                            breaker_open=breaker_open)


class TestDesiredWorkers:
    def test_empty_queue_wants_the_floor(self):
        assert FleetPolicy(max_workers=8).desired_workers(0) == 0
        assert FleetPolicy(max_workers=8,
                           min_workers=2).desired_workers(0) == 2

    @pytest.mark.parametrize("queued,expected", [
        (1, 1), (2, 1), (3, 2), (4, 2), (7, 4), (8, 4), (9, 5),
    ])
    def test_one_worker_per_threshold_of_backlog(self, queued, expected):
        policy = FleetPolicy(max_workers=100)
        assert policy.desired_workers(queued) == expected

    def test_ceiling_clamps(self):
        assert FleetPolicy(max_workers=3).desired_workers(1000) == 3

    def test_floor_clamps(self):
        policy = FleetPolicy(max_workers=8, min_workers=3)
        assert policy.desired_workers(1) == 3


class TestDecide:
    def test_backlog_scales_up_by_the_gap(self):
        decision = FleetPolicy(max_workers=8).decide(obs(queued=6, live=1))
        assert decision.action == "scale_up"
        assert decision.count == 2  # desired 3, one already live

    def test_zero_workers_and_any_backlog_starts_one(self):
        decision = FleetPolicy(max_workers=8).decide(obs(queued=1))
        assert (decision.action, decision.count) == ("scale_up", 1)

    def test_drained_queue_retires_down_to_the_floor(self):
        policy = FleetPolicy(max_workers=8, min_workers=1)
        decision = policy.decide(obs(queued=0, leased=0, live=4))
        assert (decision.action, decision.count) == ("retire", 3)

    def test_leased_jobs_block_retirement(self):
        decision = FleetPolicy(max_workers=8).decide(
            obs(queued=0, leased=2, live=2))
        assert decision.action == "hold"

    def test_enough_workers_holds(self):
        decision = FleetPolicy(max_workers=8).decide(obs(queued=4, live=2))
        assert decision.action == "hold"

    def test_at_floor_with_empty_queue_holds(self):
        policy = FleetPolicy(max_workers=8, min_workers=2)
        assert policy.decide(obs(live=2)).action == "hold"

    def test_backoff_window_defers_scale_up(self):
        decision = FleetPolicy(max_workers=8).decide(
            obs(queued=10, live=0, in_backoff=True))
        assert decision.action == "backoff"

    def test_backoff_does_not_block_retirement(self):
        decision = FleetPolicy(max_workers=8).decide(
            obs(queued=0, live=3, in_backoff=True))
        assert decision.action == "retire"

    def test_open_breaker_overrides_everything(self):
        decision = FleetPolicy(max_workers=8).decide(
            obs(queued=100, live=0, breaker_open=True))
        assert decision.action == "backoff"
        assert "breaker" in decision.reason

    def test_reasons_are_human_readable(self):
        decision = FleetPolicy(max_workers=8).decide(obs(queued=6, live=1))
        assert "queue depth 6" in decision.reason


class TestPolicyValidation:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            FleetPolicy(max_workers=0)
        with pytest.raises(ValueError):
            FleetPolicy(max_workers=2, min_workers=3)
