"""Unit tests for run specs: canonical hashing and sweep expansion."""

import hashlib

import pytest

from repro.common.config import SystemConfig
from repro.runs.spec import (
    RunSpec,
    Sweep,
    canonical_json,
    config_from_dict,
    config_to_dict,
    simulation_spec,
)


class TestSpecHash:
    def test_identical_specs_hash_identically(self):
        a = simulation_spec("ccnvm", "lbm", 4000, 1)
        b = simulation_spec("ccnvm", "lbm", 4000, 1)
        assert a.spec_hash() == b.spec_hash()

    def test_distinct_seeds_hash_distinctly(self):
        a = simulation_spec("ccnvm", "lbm", 4000, 1)
        b = simulation_spec("ccnvm", "lbm", 4000, 2)
        assert a.spec_hash() != b.spec_hash()

    def test_every_field_feeds_the_hash(self):
        base = simulation_spec("ccnvm", "lbm", 4000, 1)
        variants = [
            simulation_spec("sc", "lbm", 4000, 1),
            simulation_spec("ccnvm", "gcc", 4000, 1),
            simulation_spec("ccnvm", "lbm", 4001, 1),
            simulation_spec("ccnvm", "lbm", 4000, 1, scheme_seed=7),
            simulation_spec("ccnvm", "lbm", 4000, 1, warmup=0.1),
            simulation_spec("ccnvm", "lbm", 4000, 1, data_capacity=1 << 20),
            simulation_spec("ccnvm", "lbm", 4000, 1, config=SystemConfig().with_epoch(update_limit=8)),
        ]
        hashes = {base.spec_hash()} | {v.spec_hash() for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_explicit_default_config_hashes_like_none(self):
        # None means "paper defaults", and hashing must not distinguish a
        # spec built from the explicit default object: both run the same
        # system.  (Normalization happens at execution, not hashing —
        # the dict image of the default config *is* distinct content.)
        implicit = simulation_spec("ccnvm", "lbm", 400, 1, config=None)
        explicit = simulation_spec("ccnvm", "lbm", 400, 1, config=SystemConfig())
        assert implicit.spec_hash() != explicit.spec_hash()
        assert implicit.system_config() == explicit.system_config()

    def test_dict_round_trip_preserves_hash(self):
        spec = simulation_spec(
            "osiris_plus", "milc", 2000, 3,
            config=SystemConfig().with_epoch(update_limit=4), warmup=0.25,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash() == spec.spec_hash()

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown run kind"):
            RunSpec(kind="teleport")

    def test_describe_names_the_cell(self):
        label = simulation_spec("ccnvm", "lbm", 4000, 1).describe()
        assert "ccnvm" in label and "lbm@4000#1" in label

    def test_figure5_spec_hashes_are_pinned(self, monkeypatch):
        """The sha256 of every Figure 5 cell's spec hash (sorted), at a
        short length: a change to how simulation specs hash would re-key
        every cached Figure 5 result, so it must be deliberate."""
        from repro.analysis import experiments

        captured = []

        class Captured(Exception):
            pass

        def capture(specs, **_kwargs):
            captured.extend(specs)
            raise Captured

        monkeypatch.setattr(experiments, "orchestrate", capture)
        with pytest.raises(Captured):
            experiments.figure5_comparisons(length=200, seed=1)
        assert len(captured) == 40
        hashes = "\n".join(sorted(spec.spec_hash() for spec in captured))
        assert hashlib.sha256(hashes.encode()).hexdigest() == (
            "235c486aff0b73f4399f7755417c86eb1d98e71054673af77105463ce870e6a1"
        )


class TestConfigRoundTrip:
    def test_default_config_round_trips(self):
        assert config_from_dict(config_to_dict(SystemConfig())) == SystemConfig()

    def test_modified_config_round_trips(self):
        config = SystemConfig().with_epoch(update_limit=4, dirty_queue_entries=40)
        config = config.with_nvm(read_latency_ns=80.0)
        assert config_from_dict(config_to_dict(config)) == config


class TestSweep:
    def test_cartesian_expansion(self):
        sweep = Sweep(
            schemes=("no_cc", "ccnvm"),
            workloads=("lbm", "gcc"),
            length=1000,
            seeds=(1, 2),
        )
        cells = sweep.expand()
        assert len(cells) == 8
        keys = [key for key, _ in cells]
        assert keys[0] == ("default", "no_cc", "lbm", 1)
        assert len(set(keys)) == 8
        assert len({spec.spec_hash() for _, spec in cells}) == 8

    def test_config_variants_expand_by_label(self):
        sweep = Sweep(
            schemes=("ccnvm",),
            workloads=("lbm",),
            length=500,
            configs={
                "n4": SystemConfig().with_epoch(update_limit=4),
                "n16": None,
            },
        )
        cells = dict(sweep.expand())
        assert set(k[0] for k in cells) == {"n4", "n16"}
        assert cells[("n4", "ccnvm", "lbm", 1)].config is not None
        assert cells[("n16", "ccnvm", "lbm", 1)].config is None
