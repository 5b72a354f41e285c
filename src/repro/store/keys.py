"""Content-addressed cache keys for campaign results.

A campaign's aggregates are a pure function of *what* is simulated —
the program, its inputs, the fault plan — and of the handful of
settings that select genuinely different semantics: the core, the
hardening transform baked into the program, the timeout budget, and
the :class:`repro.fi.config.EngineConfig` fields tagged *semantic*
(``prune``).  They are **not** a function of *how* the simulation is
scheduled: the config's *schedule* fields (workers, checkpoint
interval, lanes, chunking, retries, deadlines) leave aggregates
bit-identical, so they never enter the key — a result produced by one
schedule is valid under every other.

:func:`campaign_key` digests the canonical JSON encoding of

* the serialized IR (:func:`repro.ir.printer.format_function` — the
  same text the parser round-trips, so two structurally identical
  functions share a key however they were built),
* the machine image (memory image bytes, memory size),
* the initial register values,
* the fault plan (one ``[cycle, reg, bit, pp, rep, epoch]`` row per
  planned run, in plan order),
* the semantic settings (:func:`canonical_config`).

Versioning is split on purpose.  Bump :data:`KEY_VERSION` only when
the key *recipe* changes (what is digested) — that invalidates every
address, so results must be recomputed.  Bump :data:`SCHEMA_VERSION`
when only the stored *payload layout* changes: addresses stay stable,
and the store keeps a read path for older payload versions, so a store
written before the bump still serves hits instead of re-simulating.
"""

import hashlib
import json

from repro.fi.config import EngineConfig
from repro.ir.printer import format_function

#: Version stamp of the key recipe (the digested payload below).
KEY_VERSION = 1

#: Version stamp of the stored payload layout.  v1: one monolithic
#: JSON run list per row; v2: chunked, zlib-compressed run segments in
#: ``campaign_chunks`` with an aggregate meta row.  The store reads
#: both (see :data:`repro.store.db.READABLE_VERSIONS`) and writes the
#: newest.
SCHEMA_VERSION = 2


def canonical_config(core="threaded", harden="none", budget=None,
                     max_cycles=None, config=EngineConfig()):
    """The semantic settings of a cell, as keyed: the cell's core,
    hardening policy and budget, the engine's timeout budget and the
    semantic fields of *config*."""
    return {
        "core": core,
        "harden": harden,
        # The budget only shapes the transform under the bec strategy.
        "budget": budget if harden == "bec" else None,
        "max_cycles": max_cycles or "auto",
        **config.semantic(),
    }


def plan_rows(plan):
    """Canonical JSON-safe rows for a fault plan, in plan order."""
    return [[planned.injection.cycle, planned.injection.reg,
             planned.injection.bit, planned.pp, planned.rep,
             planned.epoch]
            for planned in plan]


def campaign_key(function, plan, regs=None, memory_image=None,
                 memory_size=1 << 16, core="threaded", harden="none",
                 budget=None, max_cycles=None, config=EngineConfig()):
    """Hex digest addressing one campaign cell in the store."""
    payload = {
        "schema": KEY_VERSION,
        "function": format_function(function),
        "memory_image": bytes(memory_image or b"").hex(),
        "memory_size": memory_size,
        "regs": sorted((reg, int(value))
                       for reg, value in (regs or {}).items()),
        "plan": plan_rows(plan),
        "config": canonical_config(core, harden, budget, max_cycles,
                                   config),
    }
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()
