"""The repro.wire contract: typed, versioned, upgrade-tolerant messages.

Every payload that crosses a process boundary (job contexts, worker
snapshots, campaign records, supervisor state, HTTP submissions) must
round-trip ``decode(encode(m)) == m`` and must survive
a version-skewed peer: unknown fields ride along untouched, and a
foreign ``version`` stamp is tolerated rather than rejected.
"""

import dataclasses

import pytest

from repro import wire


def roundtrip(message):
    return wire.decode(wire.encode(message))


class TestRoundTripIdentity:
    """decode(encode(m)) == m for every registered message type."""

    MESSAGES = [
        wire.JobContext(base_options={"h_init": 1e-12}, timeout=30.0,
                        sample_points=11),
        wire.WorkerSnapshot(worker_id="w1", pid=42, busy=True,
                            current_job="j1", started_at=1.5,
                            num_executed=7, num_cache_hits=2,
                            metrics={"steps_total": 99}),
        wire.CampaignRecord(campaign_id="c1", names=["a", "b"],
                            job_ids=["j1", "j2"],
                            decisions=["admitted", "cache"],
                            created_at=123.0),
        wire.SupervisorState(supervisor_id="host:1", live_workers=2,
                             spawns=5, retires=3, breaker_open=True),
        wire.ScenarioSubmission(scenario={"name": "x"}, priority=2),
        wire.CampaignSubmission(scenarios=[{"name": "x"}], priority=-1),
    ]

    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).TYPE)
    def test_identity(self, message):
        assert roundtrip(message) == message

    def test_every_registered_type_is_covered(self):
        covered = {type(m).TYPE for m in self.MESSAGES}
        assert covered == set(wire.registered_types())

    def test_encode_stamps_type_and_version(self):
        data = wire.encode(wire.JobContext(sample_points=11))
        assert data["type"] == "job_context"
        assert data["version"] == wire.JobContext.VERSION


class TestVersionSkew:
    """Rolling upgrades: old and new peers keep interoperating."""

    def test_unknown_fields_survive_decode_then_reencode(self):
        # a newer peer added "deadline"; we must carry it, not drop it
        data = wire.encode(wire.ScenarioSubmission(scenario={"name": "s"}))
        data["deadline"] = 17.5
        message = wire.decode(data)
        assert message.extra == {"deadline": 17.5}
        assert wire.encode(message)["deadline"] == 17.5

    def test_foreign_version_stamp_is_tolerated(self):
        data = wire.encode(wire.JobContext(sample_points=11))
        data["version"] = 7  # a future minor revision of "job_context"
        assert wire.decode(data) == wire.JobContext(sample_points=11)

    def test_unknown_wire_type_is_an_error(self):
        with pytest.raises(wire.WireError, match="unknown wire type"):
            wire.decode({"type": "quantum_entangle", "version": 1})

    def test_legacy_payload_without_type_decodes_via_expect(self):
        # pre-wire peers sent bare field dicts; expect= names the schema
        message = wire.decode({"worker_id": "w9", "pid": 9},
                              expect=wire.WorkerSnapshot)
        assert message == wire.WorkerSnapshot(worker_id="w9", pid=9)

    def test_expect_pins_the_type(self):
        data = wire.encode(wire.JobContext())
        with pytest.raises(wire.WireError, match="expected"):
            wire.decode(data, expect=wire.WorkerSnapshot)


class TestValidation:
    def test_missing_required_field_names_the_field(self):
        with pytest.raises(wire.WireError, match="worker_id"):
            wire.decode({"type": "worker_snapshot", "pid": 1})

    def test_type_mismatch_names_the_field(self):
        with pytest.raises(wire.WireError, match="pid"):
            wire.decode({"type": "worker_snapshot", "worker_id": "w",
                         "pid": "three"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(wire.WireError, match="pid"):
            wire.decode({"type": "worker_snapshot", "worker_id": "w",
                         "pid": True})

    def test_semantic_validate_hook_runs(self):
        with pytest.raises(wire.WireError, match="worker_id"):
            wire.decode({"type": "worker_snapshot", "worker_id": ""})
        with pytest.raises(wire.WireError, match="sample_points"):
            wire.decode({"type": "job_context", "sample_points": 1})

    def test_construction_validates(self):
        # a message that exists is valid: no unchecked instance to encode
        with pytest.raises(wire.WireError, match="sample_points"):
            wire.JobContext(sample_points=1)
        with pytest.raises(wire.WireError, match="timeout"):
            wire.JobContext(timeout=-1.0)
        with pytest.raises(wire.WireError, match="base_options"):
            wire.JobContext(base_options={"no_such_option": 1})
        with pytest.raises(wire.WireError, match="pid"):
            wire.WorkerSnapshot(worker_id="w", pid="three")
        with pytest.raises(wire.WireError, match="priority"):
            wire.ScenarioSubmission(scenario={}, priority=2 ** 63)

    def test_messages_are_frozen(self):
        context = wire.JobContext(sample_points=11)
        with pytest.raises(dataclasses.FrozenInstanceError):
            context.sample_points = 1

    def test_campaign_record_rejects_ragged_lists(self):
        with pytest.raises(wire.WireError):
            wire.CampaignRecord(campaign_id="c", names=["a", "b"],
                                job_ids=["j1"], decisions=["admitted"],
                                created_at=0.0).validate()


class TestJobContext:
    def test_decode_job_context_defaults_on_empty(self):
        assert wire.decode_job_context(None) == wire.JobContext()
        assert wire.decode_job_context({}) == wire.JobContext()

    def test_decode_job_context_accepts_legacy_plain_dict(self):
        # a plain field dict, as producers wrote it before repro.wire
        legacy = {"base_options": {"t_stop": 1e-9}, "timeout": None,
                  "sample_points": 51}
        context = wire.decode_job_context(legacy)
        assert context.sample_points == 51
        assert context.base_options == {"t_stop": 1e-9}


class TestRegistry:
    def test_messages_are_dataclasses_with_extra_last(self):
        for type_name in wire.registered_types():
            cls = wire.registered_types()[type_name]
            fields = dataclasses.fields(cls)
            assert fields[-1].name == "extra"

    def test_duplicate_type_registration_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate wire type"):
            @wire.wire_message("job_context")
            class Imposter(wire.WireMessage):
                pid: int
