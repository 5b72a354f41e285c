"""Tests for the content-address recipe (repro.store.keys)."""

import dataclasses

import pytest

from repro.bec.analysis import run_bec
from repro.bench.motivating import count_years, count_years_scheduled
from repro.errors import SimulationError
from repro.fi.campaign import plan_bec, plan_exhaustive
from repro.fi.config import SCHEDULE, SEMANTIC, EngineConfig
from repro.fi.machine import Machine
from repro.ir.parser import parse_function
from repro.store import (CachingRunner, ResultStore, campaign_key,
                         canonical_config, parse_spec, run_sweep)


@pytest.fixture(scope="module")
def function():
    return count_years()


@pytest.fixture(scope="module")
def golden(function):
    return Machine(function, memory_size=256).run()


@pytest.fixture(scope="module")
def plan(function, golden):
    return plan_bec(function, golden, run_bec(function))


#: A non-default value for every schedule field of EngineConfig.
SCHEDULE_VALUES = {
    "workers": 4, "checkpoint_interval": 16, "max_runs": 5,
    "batch_lanes": 64, "chunk_size": 7, "max_retries": 3,
    "max_wall_seconds": 9.5, "worker_retries": 0, "retry_backoff": 1.0,
}


class TestCanonicalConfig:
    def test_defaults(self):
        config = canonical_config()
        assert config == {"core": "threaded", "prune": "none",
                          "harden": "none", "budget": None,
                          "max_cycles": "auto"}

    def test_parity_knobs_dropped(self):
        assert canonical_config(config=EngineConfig(
            workers=8, checkpoint_interval=64, batch_lanes=512)) \
            == canonical_config()

    def test_unknown_knob_rejected(self):
        # A new setting must be declared (and tagged) as an
        # EngineConfig field before anything can be keyed with it.
        with pytest.raises(TypeError):
            EngineConfig(sharding="by-epoch")
        with pytest.raises(SimulationError):
            EngineConfig(prune="by-epoch")

    def test_budget_only_counts_under_bec(self):
        assert canonical_config(harden="full", budget=0.3) \
            == canonical_config(harden="full", budget=0.9)
        assert canonical_config(harden="bec", budget=0.3) \
            != canonical_config(harden="bec", budget=0.9)

    def test_knob_lists_disjoint(self):
        """Every EngineConfig field is tagged, with exactly one role."""
        semantic = set(EngineConfig.fields_tagged(SEMANTIC))
        schedule = set(EngineConfig.fields_tagged(SCHEDULE))
        assert not semantic & schedule
        assert semantic | schedule \
            == {setting.name for setting in dataclasses.fields(
                EngineConfig)}
        assert semantic == {"prune"}
        assert set(SCHEDULE_VALUES) == schedule


class TestCampaignKey:
    def test_deterministic(self, function, plan):
        assert campaign_key(function, plan) == campaign_key(function,
                                                            plan)

    def test_parity_knobs_never_change_the_key(self, function, plan):
        base = campaign_key(function, plan, config=EngineConfig())
        assert campaign_key(
            function, plan,
            config=EngineConfig(workers=4, checkpoint_interval=16,
                                batch_lanes=64)) == base

    @pytest.mark.parametrize("name", sorted(SCHEDULE_VALUES))
    def test_schedule_field_never_changes_the_key(self, function, plan,
                                                  name):
        assert campaign_key(function, plan, config=EngineConfig(
            **{name: SCHEDULE_VALUES[name]})) \
            == campaign_key(function, plan)

    def test_key_knobs_change_the_key(self, function, plan):
        base = campaign_key(function, plan)
        assert campaign_key(function, plan, core="batched") != base
        assert campaign_key(function, plan,
                            config=EngineConfig(prune="liveness")) != base
        assert campaign_key(function, plan, harden="bec",
                            budget=0.3) != base
        assert campaign_key(function, plan, max_cycles=5000) != base

    def test_plan_changes_the_key(self, function, golden, plan):
        exhaustive = plan_exhaustive(function, golden)
        assert campaign_key(function, plan) \
            != campaign_key(function, exhaustive)
        assert campaign_key(function, plan) \
            != campaign_key(function, plan[:-1])

    def test_function_changes_the_key(self, function, plan):
        other = count_years_scheduled()
        assert campaign_key(function, plan) != campaign_key(other, plan)

    def test_inputs_change_the_key(self, function, plan):
        base = campaign_key(function, plan)
        assert campaign_key(function, plan, regs={"a": 1}) != base
        assert campaign_key(function, plan, memory_image=b"\x01") != base
        assert campaign_key(function, plan, memory_size=1 << 12) != base

    def test_reg_order_is_canonical(self, function, plan):
        assert campaign_key(function, plan, regs={"a": 1, "b": 2}) \
            == campaign_key(function, plan, regs={"b": 2, "a": 1})


TINY_IR = """
func f width=4
bb.entry:
    li a, 7
    andi b, a, 1
    out b
    ret b
"""

#: Content addresses pinned when the key recipe was last touched:
#: (kernel, prune, harden, core[, max_cycles]) -> campaign_key hex.  A
#: refactor of how engine settings reach the key must leave every one
#: of these unchanged; a deliberate recipe change bumps KEY_VERSION.
PINNED_KEYS = {
    ("bitcount", "liveness", "bec", "batched"):
        "67d73a070b0edbd401cc7abf23569dfc",
    ("bitcount", "liveness", "bec", "threaded"):
        "1ed58b5d7cec42861f095c5edaa85d62",
    ("bitcount", "liveness", "none", "batched"):
        "a85d17b32db974463662ea3cea7c884c",
    ("bitcount", "liveness", "none", "threaded"):
        "0e20619a5ed7420d917df7e94bc0468e",
    ("bitcount", "none", "bec", "batched"):
        "ac9e6edb997fae6a2ceca196b4fe377e",
    ("bitcount", "none", "bec", "threaded"):
        "c10c1129fcc51d3fd71aa18aea55ec93",
    ("bitcount", "none", "none", "batched"):
        "d16d8286bfd85a36a7c0bd4bcc147707",
    ("bitcount", "none", "none", "threaded"):
        "66d884823a670c217191a59b08c7ded4",
    ("tiny", "liveness", "bec", "batched"):
        "c5b25f0e148283440668c5f69233402d",
    ("tiny", "liveness", "bec", "threaded"):
        "9fb8e1a1f379d3ad5928dd42a3b0c98a",
    ("tiny", "liveness", "none", "batched"):
        "5edcafa85af97d867944343d6e03e517",
    ("tiny", "liveness", "none", "threaded"):
        "186c574294239181210b1e6e0c37aa55",
    ("tiny", "none", "bec", "batched"):
        "85175cf178d8b4c32fb726d5eaabeb48",
    ("tiny", "none", "bec", "threaded"):
        "821dd19c5f4d9611d1b04e10d9ee33b7",
    ("tiny", "none", "none", "batched"):
        "c27412e5ae87147211bd03ba21722063",
    ("tiny", "none", "none", "threaded"):
        "7709df5df0ace8617ed681fac85bff28",
    ("tiny", "none", "none", "threaded", 64):
        "22f011d93f9fa9410d2e51c3df20ecfb",
}


@pytest.fixture(scope="module")
def swept_keys(tmp_path_factory):
    """The keys the sweep (and, for the explicit ``max_cycles`` cell,
    the caching runner) actually computes for :data:`PINNED_KEYS`."""
    directory = tmp_path_factory.mktemp("pinned")
    tiny = str(directory / "tiny.ir")
    with open(tiny, "w", encoding="utf-8") as handle:
        handle.write(TINY_IR)
    keys = {}
    with ResultStore(str(directory / "keys.sqlite")) as store:
        for prune in ("none", "liveness"):
            spec = parse_spec({
                "grid": {"kernels": ["bitcount", tiny], "modes": ["bec"],
                         "harden": ["none", "bec"], "budgets": [0.3],
                         "cores": ["threaded", "batched"]},
                "engine": {"prune": prune, "max_runs": 16}},
                name="pinned")
            for outcome in run_sweep(spec, store).outcomes:
                cell = outcome.cell
                kernel = "tiny" if cell.kernel == tiny else cell.kernel
                keys[(kernel, prune, cell.harden, cell.core)] = \
                    outcome.key
        function = parse_function(TINY_IR)
        machine = Machine(function)
        golden = machine.run()
        runner = CachingRunner(store)
        runner.run(machine, plan_exhaustive(function, golden),
                   golden=golden, max_cycles=64)
        keys[("tiny", "none", "none", "threaded", 64)] = runner.last_key
    return keys


class TestPinnedKeys:
    @pytest.mark.parametrize("cell", sorted(PINNED_KEYS, key=str),
                             ids=lambda cell: "-".join(map(str, cell)))
    def test_key_bytes_unchanged(self, swept_keys, cell):
        assert swept_keys[cell] == PINNED_KEYS[cell]
