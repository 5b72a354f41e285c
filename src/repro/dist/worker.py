"""The distributed sweep worker: lease, execute, prove, commit.

One ``repro dist work`` process is a loop over
:meth:`repro.dist.queue.WorkQueue.claim`:

1. **Lease** the oldest eligible cell (atomic; the lease token is this
   worker's proof of ownership).
2. **Execute** it through the exact machinery a serial sweep uses —
   :meth:`repro.store.sweep.SweepRunner.cell_setup` builds the same
   machine/plan/variant, :class:`repro.store.runner.CachingRunner`
   computes the same content address — so a distributed sweep's
   aggregates are bit-identical to a serial one's.  The store-writer
   sink is suppressed (``commit=False``); instead a
   :class:`ChunkCaptureSink` spools the archive-encoded chunk stream
   locally.  The engine's per-chunk progress callback doubles as the
   **heartbeat**, renewing the lease at a third of its duration.
3. **Prove**: wrap the capture in a signed
   :class:`repro.dist.envelope.ResultEnvelope` binding content (chunk
   digests + aggregate meta) to identity (worker, lease token).
4. **Commit** through :func:`repro.dist.coordinator.commit_envelope`,
   which verifies everything before the store sees a byte.

Failure modes map onto queue states: an execution error (including a
:class:`repro.fi.deadline.CellTimeout`) fails the lease back to
``pending``; a SIGKILL leaves the lease to expire and be reclaimed; a
lost lease (heartbeat returns False) finishes anyway and takes
``superseded`` — the archive write is idempotent, the state
transition just happened elsewhere.  A rejected envelope also fails
the lease, so the cell retries promptly instead of waiting out the
lease clock.

Chaos points (see :mod:`repro.fi.chaos`) are consulted at each step —
``dist.cell`` (claim/run phases, kill action), ``dist.expire_lease``,
``dist.forge_envelope``, ``dist.corrupt_envelope`` — making the whole
host-level protocol fault-injectable from the CLI
(``repro dist work --chaos kill_cell=1 ...``).
"""

import dataclasses
import os
import platform
import time

from repro import obs
from repro.fi.chaos import ChaosPolicy
from repro.fi.deadline import wall_clock_deadline
from repro.fi.sink import RunSink
from repro.store.db import encode_chunk
from repro.store.sweep import SweepRunner

from repro.dist import envelope as envelope_module
from repro.dist.coordinator import commit_envelope
from repro.dist.envelope import ResultEnvelope
from repro.dist.queue import DEFAULT_LEASE_SECONDS

#: Seconds between claim attempts while the queue has unfinished but
#: currently unclaimable cells (leased to other live workers).
POLL_SECONDS = 0.2

#: Give up after this long without claiming anything (safety valve for
#: orphaned workers; the queue being drained exits immediately).
DEFAULT_MAX_IDLE_SECONDS = 120.0

#: Engine settings a host imposes over every spec it drains unless told
#: otherwise: one engine process per cell (a deployment scales out by
#: running more workers, not by forking each one wider).
HOST_OVERRIDES = {"workers": 1}


class ChunkCaptureSink(RunSink):
    """Spools the engine's chunk stream, archive-encoded, in memory.

    Each retired chunk is compressed with the store's own codec
    (:func:`repro.store.db.encode_chunk`), so the blobs the envelope
    signs are byte-for-byte what the coordinator archives — no
    re-encoding between verification and commit.
    """

    def __init__(self):
        self.chunks = []          # [(blob, n_records, raw_size)]
        self.meta = None
        self.wall_time = 0.0

    def begin(self, meta):
        self.meta = meta
        self.chunks = []

    def consume(self, chunk):
        blob, raw_size = encode_chunk(chunk)
        self.chunks.append((blob, len(chunk), raw_size))

    def finish(self, summary):
        self.wall_time = summary["wall_time"]

    def abort(self):
        self.chunks = []
        self.meta = None


def default_worker_id():
    return f"{platform.node()}-{os.getpid()}"


def policy_from_specs(specs):
    """Build a :class:`ChaosPolicy` from CLI ``--chaos`` strings.

    Each spec is ``name=value``: ``kill_cell=N`` / ``kill_claim=N``
    (SIGKILL around the N-th claimed cell), ``expire_lease=N``,
    ``forge_envelope=N``, ``corrupt_envelope=N`` (ordinals), and
    ``skew_clock=S`` (seconds, float).  Returns ``None`` for no specs.
    """
    if not specs:
        return None
    policy = ChaosPolicy()
    for spec in specs:
        name, _, value = spec.partition("=")
        if not value:
            raise ValueError(f"--chaos {spec!r}: expected name=value")
        if name == "kill_cell":
            policy.kill_dist_worker(int(value), phase="run")
        elif name == "kill_claim":
            policy.kill_dist_worker(int(value), phase="claim")
        elif name == "expire_lease":
            policy.expire_lease(int(value))
        elif name == "forge_envelope":
            policy.forge_envelope(int(value))
        elif name == "corrupt_envelope":
            policy.corrupt_envelope(int(value))
        elif name == "skew_clock":
            policy.skew_clock(float(value))
        else:
            raise ValueError(f"--chaos {spec!r}: unknown fault {name!r}")
    return policy


class DistWorker:
    """One worker process draining one queue into one store.

    *overrides* maps :class:`repro.fi.config.EngineConfig` field names
    to the values this host imposes over each spec's ``[engine]`` table,
    on top of :data:`HOST_OVERRIDES`.
    """

    def __init__(self, queue, store, worker_id=None,
                 lease_seconds=DEFAULT_LEASE_SECONDS, secret=None,
                 overrides=None, max_cells=None,
                 max_idle_seconds=DEFAULT_MAX_IDLE_SECONDS, chaos=None,
                 events=None):
        self.queue = queue
        self.store = store
        self.worker_id = worker_id or default_worker_id()
        self.lease_seconds = lease_seconds
        self.secret = secret
        self.overrides = {**HOST_OVERRIDES, **(overrides or {})}
        self.max_cells = max_cells
        self.max_idle_seconds = max_idle_seconds
        self.chaos = chaos
        #: Optional ``callable(kind, **fields)`` observing this
        #: worker's cell lifecycle (``cell_claimed`` /
        #: ``cell_progress`` / ``cell_done`` / ``cell_superseded`` /
        #: ``cell_rejected`` / ``cell_failed``) — the campaign
        #: service's progress-stream and audit-trail hook.  Event
        #: delivery must never sink a cell, so callback errors are
        #: swallowed.
        self.events = events
        self._sweep_runners = {}        # spec digest -> SweepRunner
        self.stats = {"done": 0, "superseded": 0, "failed": 0,
                      "rejected": 0}

    # -- plumbing ----------------------------------------------------------

    def _fire(self, point, **context):
        if self.chaos is None:
            return False
        return self.chaos.fire(point, **context)

    def _emit(self, kind, **fields):
        if self.events is None:
            return
        try:
            self.events(kind, worker=self.worker_id, **fields)
        except Exception:
            pass

    def _sweep_runner(self, digest):
        if digest not in self._sweep_runners:
            spec = self.queue.load_spec(digest)
            self._sweep_runners[digest] = SweepRunner(
                spec, self.store,
                config=dataclasses.replace(spec.engine, **self.overrides))
        return self._sweep_runners[digest]

    # -- one cell ----------------------------------------------------------

    def _execute(self, lease, ordinal):
        """Run one leased cell and return the commit outcome dict."""
        runner = self._sweep_runner(lease.spec_digest)
        config = runner.config
        machine, plan, variant = runner.cell_setup(lease.cell)

        forfeited = self._fire("dist.expire_lease", ordinal=ordinal)
        if forfeited:
            self.queue.force_expire(lease.token)
        lease_state = {"held": not forfeited,
                       "renewed_at": time.monotonic()}

        def heartbeat(done, total):
            self._emit("cell_progress", cell_id=lease.cell_id,
                       spec_digest=lease.spec_digest, done=done,
                       total=total)
            if not lease_state["held"]:
                return
            elapsed = time.monotonic() - lease_state["renewed_at"]
            if elapsed < self.lease_seconds / 3.0:
                return
            if self.queue.renew(lease.token, self.lease_seconds):
                lease_state["renewed_at"] = time.monotonic()
            else:
                # Lost the lease: keep computing (the archive bytes
                # stay useful) but expect a superseded commit.
                lease_state["held"] = False
                obs.logger().warning("dist.lease_lost",
                                     cell=lease.cell_id,
                                     worker=self.worker_id)

        capture = ChunkCaptureSink()
        with wall_clock_deadline(config.max_wall_seconds,
                                 what=f"cell {lease.cell_id}"):
            result = runner.runner.run(
                machine, plan, regs=variant["regs"],
                golden=variant["golden"], config=config,
                harden=lease.cell.harden, budget=lease.cell.budget,
                progress=heartbeat, sink=capture, commit=False)

        # The kill-mid-cell fault: computed, not yet committed — the
        # worst crash point the reclaim path must absorb.
        self._fire("dist.cell", ordinal=ordinal, phase="run")

        if result.cached:
            chunks = []
        else:
            chunks = capture.chunks
        meta = {
            "effects": result.effect_counts(),
            "vulnerable": result.vulnerable_runs(),
            "sizes": {signature.hex(): size for signature, size
                      in result.trace_sizes().items()},
            "pruned_runs": result.pruned_runs,
            "vectorized": result.vectorized,
            "wall_time": result.wall_time,
            "chunk_size": (capture.meta or {}).get(
                "chunk_size", config.chunk_size),
            "sample_fraction": plan.sample_fraction,
        }
        from repro.store.db import chunk_digest

        digests = [chunk_digest(blob) for blob, _, _ in chunks]
        envelope = ResultEnvelope(
            cell_id=lease.cell_id,
            result_key=runner.runner.last_key,
            worker=self.worker_id, lease_token=lease.token,
            payload_digest=envelope_module.payload_digest(digests, meta),
            n_runs=len(result.runs), n_chunks=len(chunks), meta=meta,
            cached=result.cached)

        secret = self.secret
        if self._fire("dist.forge_envelope", ordinal=ordinal):
            secret = envelope_module.resolve_secret(self.secret) \
                + b"-forged"
        envelope.seal(secret)

        if self._fire("dist.corrupt_envelope", ordinal=ordinal) \
                and chunks:
            blob, n_records, raw_size = chunks[0]
            corrupted = bytearray(blob)
            corrupted[len(corrupted) // 2] ^= 0xFF
            chunks[0] = (bytes(corrupted), n_records, raw_size)

        return commit_envelope(self.store, self.queue, envelope,
                               chunks, secret=self.secret)

    # -- the loop ----------------------------------------------------------

    def run(self):
        """Drain the queue; returns this worker's outcome counters."""
        registry = obs.metrics()
        cell_seconds = registry.histogram(
            "dist.cell_seconds", help="Per-worker cell wall time",
            worker=self.worker_id)
        ordinal = 0
        last_progress = time.monotonic()
        while True:
            if self.max_cells is not None and ordinal >= self.max_cells:
                break
            lease = self.queue.claim(self.worker_id,
                                     self.lease_seconds)
            if lease is None:
                if self.queue.drained():
                    break
                if (time.monotonic() - last_progress
                        > self.max_idle_seconds):
                    obs.logger().warning("dist.worker_idle_timeout",
                                         worker=self.worker_id)
                    break
                self.queue.reap()
                time.sleep(POLL_SECONDS)
                continue
            last_progress = time.monotonic()
            self._fire("dist.cell", ordinal=ordinal, phase="claim")
            self._emit("cell_claimed", cell_id=lease.cell_id,
                       spec_digest=lease.spec_digest,
                       attempt=lease.attempts)
            started = time.perf_counter()
            try:
                outcome = self._execute(lease, ordinal)
            except Exception as exc:
                state = self.queue.fail(
                    lease.token, f"{type(exc).__name__}: {exc}")
                self.stats["failed"] += 1
                registry.counter("dist.cells", status="failed",
                                 worker=self.worker_id).inc()
                obs.logger().error("dist.cell_failed",
                                   cell=lease.cell_id,
                                   worker=self.worker_id, state=state,
                                   error=f"{type(exc).__name__}: {exc}")
                self._emit("cell_failed", cell_id=lease.cell_id,
                           spec_digest=lease.spec_digest, state=state,
                           error=f"{type(exc).__name__}: {exc}")
            else:
                status = outcome["status"]
                if status == "rejected":
                    # Fail the lease so the cell retries promptly
                    # instead of waiting out the lease clock.
                    self.queue.fail(
                        lease.token,
                        f"envelope rejected: {outcome['reason']}")
                    self.stats["rejected"] += 1
                elif status == "superseded":
                    self.stats["superseded"] += 1
                else:
                    self.stats["done"] += 1
                registry.counter("dist.cells", status=status,
                                 worker=self.worker_id).inc()
                self._emit(f"cell_{status}" if status != "committed"
                           else "cell_done",
                           cell_id=lease.cell_id,
                           spec_digest=lease.spec_digest,
                           key=outcome.get("key"))
            cell_seconds.observe(time.perf_counter() - started)
            ordinal += 1
        return dict(self.stats)
