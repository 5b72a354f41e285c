"""One value for every engine setting: :class:`EngineConfig`.

A campaign's aggregates depend on *what* is simulated and on the few
settings that change semantics, never on how the simulation is
scheduled (the engine's parity invariants).  Every field is tagged with
its role: **semantic** fields enter the result store's key
(:func:`repro.store.keys.campaign_key`; today only ``prune``),
**schedule** fields never do, so a result produced under one schedule
is a cache hit under every other.  ``max_runs`` is tagged schedule: it
samples the plan (:meth:`repro.fi.campaign.Plan.sample`), so it
reaches the key only through the plan rows it keeps.

The config is frozen and validated here, once.  Each edge builds it
once — a spec's ``[engine]`` table, the CLI's engine flags, the
experiments' environment, a worker host's overrides (with
``dataclasses.replace``) — and every layer below passes it on as is.
"""

from dataclasses import dataclass, field, fields

from repro.errors import SimulationError
from repro.fi.batch import DEFAULT_LANES

SEMANTIC = "semantic"
SCHEDULE = "schedule"

#: Records per streamed chunk by default: enough to amortize sink
#: dispatch, IPC pickling and lane refills, small enough to keep each
#: chunk a few hundred KB.
DEFAULT_CHUNK_SIZE = 2048

PRUNE_MODES = ("none", "liveness")

#: The keys a sweep spec's ``[engine]`` table accepts; the worker
#: supervision values (``worker_retries``, ``retry_backoff``) are
#: API-only.
SPEC_FIELDS = ("workers", "checkpoint_interval", "prune", "max_runs",
               "batch_lanes", "chunk_size", "max_retries",
               "max_wall_seconds")


class EngineConfigError(SimulationError):
    """An engine setting out of range.  ``field`` names the setting so
    each edge can report it in its own words (``engine.workers`` in a
    spec, ``--workers`` on the command line)."""

    def __init__(self, name, requirement):
        self.field = name
        self.requirement = requirement
        super().__init__(f"{name} {requirement}")


def _setting(default, role=SCHEDULE, kind=int, low=0, strict=False):
    """A field: its role, and the values it accepts — *kind* at or
    above *low* (above, when *strict*), or ``None`` when that is the
    default."""
    return field(default=default, metadata={
        "role": role, "kind": kind, "low": low, "strict": strict})


@dataclass(frozen=True)
class EngineConfig:
    """Every engine setting of one campaign, sweep or worker host."""

    #: Forked worker processes per campaign.
    workers: int = _setting(1, low=1)
    #: Golden-run snapshot spacing in cycles (0 = off; the batched core
    #: picks one itself).
    checkpoint_interval: int = _setting(0)
    #: ``"liveness"`` records provably overwritten-before-read
    #: injections as masked without simulating them.
    prune: str = _setting("none", SEMANTIC, kind=PRUNE_MODES)
    #: Cap on each sweep cell's plan (``None`` = the whole plan).
    max_runs: int = _setting(None, low=1)
    #: Lockstep lanes of the batched core.
    batch_lanes: int = _setting(DEFAULT_LANES, low=1)
    #: Records per streamed chunk (bounds resident per-run memory).
    chunk_size: int = _setting(DEFAULT_CHUNK_SIZE, low=1)
    #: Re-attempts of a failing sweep cell.
    max_retries: int = _setting(0)
    #: Per-cell wall-clock deadline in seconds (``None`` = none).
    max_wall_seconds: float = _setting(None, kind=float, strict=True)
    #: Respawns of a dead campaign worker's chunk before the chunk
    #: finishes serially in the parent.
    worker_retries: int = _setting(2)
    #: Base seconds of the exponential backoff before a worker respawn
    #: or a sweep-cell re-attempt (doubling per retry).
    retry_backoff: float = _setting(0.05, kind=float)

    def __post_init__(self):
        for setting in fields(self):
            rule = setting.metadata
            value = getattr(self, setting.name)
            if value is None and setting.default is None:
                continue
            if isinstance(rule["kind"], tuple):
                if value not in rule["kind"]:
                    raise EngineConfigError(
                        setting.name, f"must be one of "
                        f"{list(rule['kind'])}, not {value!r}")
                continue
            try:
                value = rule["kind"](value)
            except (TypeError, ValueError):
                raise EngineConfigError(
                    setting.name, "must be an integer"
                    if rule["kind"] is int else "must be a number") \
                    from None
            if value < rule["low"] or (rule["strict"]
                                       and value == rule["low"]):
                raise EngineConfigError(
                    setting.name,
                    f"must be {'>' if rule['strict'] else '>='} "
                    f"{rule['low']}")
            object.__setattr__(self, setting.name, value)

    @classmethod
    def fields_tagged(cls, role):
        """Names of the fields whose role is *role*, in field order."""
        return tuple(setting.name for setting in fields(cls)
                     if setting.metadata["role"] == role)

    def semantic(self):
        """The settings that enter the store key, as a dict."""
        return {name: getattr(self, name)
                for name in self.fields_tagged(SEMANTIC)}
