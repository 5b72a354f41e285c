"""Checkpointed, parallel, vectorized fault-injection campaign engine.

Executing every planned injection serially and from cycle 0 costs
O(runs × trace-length) simulator work even though every injected run
shares the golden prefix up to its injection cycle.  The engine's
settings come as one :class:`repro.fi.config.EngineConfig`:

* **Checkpointing** (``checkpoint_interval=N``): the golden run is
  re-executed once with :meth:`Machine.run_with_snapshots`; each
  injected run then restores the deepest snapshot at or before its
  injection cycle and executes only the tail, cutting the campaign to
  O(runs × avg-tail).  This is the standard acceleration campaign tools
  built around SPIKE-style ISA simulators use to make exhaustive
  register-file sweeps (the paper's Table I baseline) tractable.
* **Supervised parallelism** (``workers=N``): the plan is dealt into
  strided (round-robin) chunks executed by ``fork``-ed worker
  processes, so the expensive early-cycle injections — whose resumed
  tails span nearly the whole trace — spread evenly across workers
  instead of serializing in the first contiguous chunk.  Each worker
  streams finished ``chunk_size`` segments back over its own pipe;
  the parent *supervises* while it drains — multiplexing the pipes
  with a timeout, polling worker exitcodes, and detecting a worker
  that died without finishing (SIGKILL, OOM, a crashed interpreter).
  A dead worker's unfinished segments are re-assigned to a respawned
  worker with bounded retries and exponential backoff; when respawn
  keeps failing the engine degrades gracefully and finishes the
  missing segments serially in the parent.  Every recovery path
  re-enters the same plan-order un-deal
  (:class:`repro.fi.sink.StridedUndealer`), so the resulting
  :class:`CampaignResult` — run order, ``effect_counts()``,
  ``vulnerable_runs()``, ``distinct_traces`` — is bit-identical to the
  serial baseline no matter which workers survived.  Platforms
  without the ``fork`` start method fall back to serial execution
  (same results, no speedup).
* **Lockstep vectorization** (a machine built with
  ``core="batched"``): the plan is executed SIMD-across-faults by
  :mod:`repro.fi.batch` — one NumPy lane per planned injection running
  along the golden path, with divergent lanes escaping to the threaded
  core and reconverged lanes retiring as masked.  Requires NumPy and
  snapshots; the engine auto-enables checkpointing and silently falls
  back to the scalar threaded path when NumPy is missing.
* **Liveness pre-classification** (``prune="liveness"``, opt-in): an
  injection whose register is overwritten on the golden path before it
  is next read is provably masked and recorded without simulation
  (:mod:`repro.fi.prune`); ``CampaignResult.pruned_runs`` counts them.
* **Streaming sinks** (``sink=...``, ``chunk_size=N``): records are
  pushed to :mod:`repro.fi.sink` consumers in plan-ordered chunks as
  they retire instead of being materialized first.  The engine's own
  aggregates and the ``CampaignResult.runs`` disk spool ride the same
  stream, so peak resident per-run records are O(chunk_size) on the
  serial path and O(chunk_size × workers) on the parallel path —
  independent of plan length.  If a sink raises mid-stream (disk
  full, a failing store) the engine tears every sink down through its
  ``abort()`` hook before re-raising, so aborted campaigns leak no
  spool files or partial archives.
* **Chaos injection** (``chaos=ChaosPolicy()``): the engine consults a
  deterministic :class:`repro.fi.chaos.ChaosPolicy` at named points —
  workers fire ``worker.segment`` (where a rule can SIGKILL them) and
  the sink fan-out fires ``sink.consume`` — so every recovery path
  above is exercised by tests instead of merely claimed.

All settings compose and every combination preserves bit-identical
aggregates; snapshots and the batch classifier are built in the parent
before the workers fork, so they inherit them for free.
"""

import multiprocessing
import time
from multiprocessing import connection as mp_connection

from repro import obs
from repro.errors import SimulationError
from repro.fi import batch
from repro.fi.campaign import (EFFECT_MASKED, CampaignResult,
                               classify_effect)
from repro.fi.config import EngineConfig
from repro.fi.prune import LivenessPruner
from repro.fi.sink import (AggregateSink, ChunkAssembler, ProgressSink,
                           SpoolSink, StridedUndealer, TeeSink)


def pick_snapshot(snapshots, cycle):
    """Deepest snapshot usable for an injection at *cycle*.

    *snapshots* must be sorted by cycle (as produced by
    :meth:`Machine.run_with_snapshots`).  Returns ``None`` when no
    snapshot precedes the injection (then the caller must run from
    cycle 0).  A pre-execution upset (``cycle=-1``) can only reuse the
    cycle-0 snapshot.
    """
    if not snapshots:
        return None
    if cycle == -1:
        return snapshots[0] if snapshots[0].cycle == 0 else None
    # Hand-rolled bisect: bisect_right(key=...) needs Python >= 3.10
    # and setup.py promises 3.9.
    low, high = 0, len(snapshots)
    while low < high:
        mid = (low + high) // 2
        if snapshots[mid].cycle <= cycle:
            low = mid + 1
        else:
            high = mid
    return snapshots[low - 1] if low else None


def run_injection(machine, injection, regs, snapshots, max_cycles):
    """Execute one injected run, resuming from the deepest usable
    snapshot when there is one (the single resume protocol shared by
    campaign workers, the sampling estimator and the batched core's
    escape queue)."""
    snapshot = pick_snapshot(snapshots, injection.cycle)
    if snapshot is not None:
        return machine.run_from(snapshot, injection=injection,
                                max_cycles=max_cycles,
                                converge=snapshots)
    return machine.run(regs=regs, injection=injection,
                       max_cycles=max_cycles)


class _WorkerContext:
    """Everything a forked worker needs, inherited by reference."""

    def __init__(self, machine, plan, regs, golden, snapshots, max_cycles,
                 todo, classifier=None):
        self.machine = machine
        self.plan = plan
        self.regs = regs
        self.golden = golden
        self.snapshots = snapshots
        self.max_cycles = max_cycles
        self.todo = todo                # plan indices left to classify
        self.classifier = classifier    # BatchClassifier or None

    def classify(self, planned):
        injected = run_injection(self.machine, planned.injection,
                                 self.regs, self.snapshots,
                                 self.max_cycles)
        return (classify_effect(self.golden, injected),
                injected.signature(), injected.byte_size())

    def classify_indices(self, indices, progress=None):
        """Records for the plan entries at *indices* (in order)."""
        # The one choke point every execution schedule funnels through
        # (serial, forked workers, lockstep lanes): counting here gives
        # `engine.runs_executed` exactly once per simulated injection,
        # and worker-side increments merge back over the result pipe.
        obs.metrics().counter("engine.runs_executed").inc(len(indices))
        if self.classifier is not None:
            return self.classifier.classify_indices(indices,
                                                    progress=progress)
        records = []
        for count, index in enumerate(indices):
            records.append(self.classify(self.plan[index]))
            if progress is not None and (count + 1) % 64 == 0:
                progress(count + 1, len(indices))
        return records


#: Seconds the supervisor waits on the worker pipes before polling
#: exitcodes.  Death is normally detected event-driven (a dead worker's
#: pipe reads EOF immediately), so this only bounds the poll latency of
#: pathological cases.
SUPERVISOR_POLL_INTERVAL = 0.25


def _worker_main(context, conn, chunk_index, n_chunks, chunk_size,
                 segments, attempt, chaos):
    """One forked worker: classify the listed ``chunk_size`` segments
    of strided chunk ``todo[chunk_index::n_chunks]`` and stream each
    back as a ``("segment", index, records)`` message on *conn*.

    A clean exit ends with ``("done",)``; a Python exception is
    reported as ``("error", message)`` (deterministic failures are not
    worth retrying).  Death by signal sends nothing — the supervisor
    detects the EOF/exitcode and re-assigns whatever is missing.

    Telemetry: the worker inherits the parent's metrics registry by
    fork-copy, marks it at entry and ships the delta back as a
    ``("metrics", delta)`` message just before ``("done",)``, so the
    parent's registry absorbs worker-side counts (runs executed,
    batch escape attribution) exactly once.  A worker that dies loses
    its un-shipped delta — the re-dispatched segments count again, so
    metrics stay best-effort-accurate under recovery while the record
    stream itself stays bit-identical."""
    registry = obs.metrics()
    fork_mark = registry.mark()
    mine = context.todo[chunk_index::n_chunks]
    try:
        for segment_index in segments:
            if chaos is not None:
                chaos.fire("worker.segment", chunk=chunk_index,
                           segment=segment_index, attempt=attempt)
            low = segment_index * chunk_size
            records = context.classify_indices(mine[low:low + chunk_size])
            conn.send(("segment", segment_index, records))
        conn.send(("metrics", registry.delta_since(fork_mark)))
        conn.send(("done",))
    except Exception as exc:
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass                        # parent gone; nothing to report
        raise
    finally:
        conn.close()


class _ChunkState:
    """Supervisor-side bookkeeping for one strided chunk."""

    __slots__ = ("index", "n_segments", "received", "attempt", "process",
                 "conn", "span")

    def __init__(self, index, n_segments):
        self.index = index
        self.n_segments = n_segments
        self.received = set()           # segment indices already drained
        self.attempt = 0                # times a worker was started
        self.process = None
        self.conn = None
        self.span = None                # live engine.worker trace span

    @property
    def missing(self):
        return [segment for segment in range(self.n_segments)
                if segment not in self.received]

    @property
    def complete(self):
        return len(self.received) == self.n_segments


class _Supervisor:
    """Spawns, monitors and heals the strided campaign workers.

    One worker per chunk, one pipe per worker: a SIGKILLed worker
    closes its pipe, so death is observed as an EOF (or a truncated
    message) rather than an eternal ``queue.get()``.  Unfinished
    segments of a dead worker are re-run by a respawned worker —
    ``config.worker_retries`` times with exponential backoff — and then
    in-parent, serially, so the campaign always terminates with the
    full plan-ordered record stream intact."""

    def __init__(self, context, n_chunks, config, assembler, undealer,
                 chaos=None):
        self.context = context
        self.n_chunks = n_chunks
        self.chunk_size = config.chunk_size
        self.assembler = assembler
        self.undealer = undealer
        self.chaos = chaos
        self.config = config
        self.mp = multiprocessing.get_context("fork")
        self.chunks = []
        for index in range(n_chunks):
            mine = context.todo[index::n_chunks]
            self.chunks.append(_ChunkState(
                index, -(-len(mine) // self.chunk_size)))
        self.recoveries = 0             # dead workers healed
        self.serial_chunks = 0          # chunks finished in-parent

    # -- lifecycle ---------------------------------------------------------

    def run(self):
        try:
            for state in self.chunks:
                self._spawn(state)
            self._drain()
        finally:
            self._shutdown()

    def _spawn(self, state):
        """Start (or restart) the worker for *state*, handing it the
        still-missing segments.  Falls back to in-parent execution when
        process creation itself is refused."""
        parent_conn, child_conn = self.mp.Pipe(duplex=False)
        process = self.mp.Process(
            target=_worker_main,
            args=(self.context, child_conn, state.index, self.n_chunks,
                  self.chunk_size, state.missing, state.attempt,
                  self.chaos))
        try:
            process.start()
        except OSError:
            # Process creation refused (sandbox, rlimits): same
            # results, just without the speedup.
            parent_conn.close()
            child_conn.close()
            self._finish_serially(state)
            return
        child_conn.close()              # let a dead worker read as EOF
        state.process = process
        state.conn = parent_conn
        state.attempt += 1
        obs.metrics().counter("engine.worker_spawns").inc()
        obs.logger().debug("engine.worker_spawned", chunk=state.index,
                           attempt=state.attempt,
                           segments=len(state.missing))
        # Worker attempts overlap in wall time, so each renders on its
        # own synthetic trace lane instead of the caller's span stack.
        state.span = obs.tracer().span(
            "engine.worker", tid=1000 + state.index, chunk=state.index,
            attempt=state.attempt, segments=len(state.missing))
        state.span.__enter__()

    def _drain(self):
        while True:
            active = {state.conn: state for state in self.chunks
                      if state.conn is not None}
            if not active:
                if all(state.complete for state in self.chunks):
                    return
                raise SimulationError(
                    "campaign supervisor lost workers without "
                    "completing the plan")   # unreachable by design
            ready = mp_connection.wait(list(active),
                                       timeout=SUPERVISOR_POLL_INTERVAL)
            if not ready:
                self._poll_exitcodes(active.values())
                continue
            for conn in ready:
                self._service(active[conn])

    def _service(self, state):
        """Read one message from a ready worker pipe; an EOF or a
        truncated/undecodable message means the worker is gone."""
        try:
            message = state.conn.recv()
        except (EOFError, OSError):
            self._worker_ended(state)
            return
        kind = message[0]
        if kind == "segment":
            _, segment_index, records = message
            if segment_index not in state.received:
                state.received.add(segment_index)
                self.assembler.push(self.undealer.add(
                    state.index, segment_index, records))
        elif kind == "metrics":
            obs.metrics().merge(message[1])
        elif kind == "done":
            self._retire(state)
            if not state.complete:      # claimed done but segments miss
                self._recover(state)
        elif kind == "error":
            raise SimulationError(f"campaign worker failed: {message[1]}")

    def _poll_exitcodes(self, states):
        """Timeout path: reap workers that exited without their pipe
        reporting ready (belt and braces — exit normally closes the
        pipe and wakes the drain loop)."""
        for state in list(states):
            process = state.process
            if process is not None and process.exitcode is not None \
                    and not state.conn.poll(0):
                self._worker_ended(state)

    def _worker_ended(self, state):
        """The worker's pipe hit EOF (or went unreadable): reap it and
        recover whatever it left unfinished."""
        process = state.process
        self._retire(state)
        exitcode = process.exitcode if process is not None else None
        obs.metrics().counter("engine.worker_deaths").inc()
        obs.logger().warning(
            "engine.worker_died", chunk=state.index,
            attempt=state.attempt, exitcode=exitcode,
            missing_segments=len(state.missing))
        if not state.complete:
            self._recover(state)

    def _retire(self, state):
        if state.conn is not None:
            state.conn.close()
            state.conn = None
        if state.process is not None:
            state.process.join()
            state.process = None
        if state.span is not None:
            state.span.__exit__(None, None, None)
            state.span = None

    def _recover(self, state):
        """Re-assign a dead worker's missing segments: bounded respawn
        with exponential backoff, then serial in-parent execution."""
        self.recoveries += 1
        obs.metrics().counter("engine.recoveries").inc()
        if state.attempt > self.config.worker_retries:
            self._finish_serially(state)
            return
        time.sleep(self.config.retry_backoff
                   * (1 << (state.attempt - 1)))
        self._spawn(state)

    def _finish_serially(self, state):
        """Last resort (and the no-fork fallback): classify the
        chunk's missing segments in the parent.  Identical records by
        construction — same indices, same classifier."""
        self.serial_chunks += 1
        obs.metrics().counter("engine.serial_degraded_chunks").inc()
        obs.logger().warning("engine.serial_degrade", chunk=state.index,
                             attempts=state.attempt,
                             missing_segments=len(state.missing))
        mine = self.context.todo[state.index::self.n_chunks]
        for segment_index in state.missing:
            low = segment_index * self.chunk_size
            with obs.tracer().span("engine.chunk", chunk=state.index,
                                   segment=segment_index, serial=True):
                records = self.context.classify_indices(
                    mine[low:low + self.chunk_size])
            state.received.add(segment_index)
            self.assembler.push(self.undealer.add(
                state.index, segment_index, records))

    def _shutdown(self):
        for state in self.chunks:
            if state.conn is not None:
                state.conn.close()
                state.conn = None
            if state.process is not None:
                state.process.terminate()
                state.process.join()
                state.process = None
            if state.span is not None:
                state.span.__exit__(None, None, None)
                state.span = None


class CampaignEngine:
    """Executes a fault-injection plan with checkpointing, workers and
    (on a ``core="batched"`` machine) lockstep vectorization.

    ``CampaignEngine(machine, plan).run(EngineConfig(workers=4,
    checkpoint_interval=64))`` returns the same :class:`CampaignResult`
    (modulo ``wall_time``) as the serial, uncheckpointed
    ``CampaignEngine(machine, plan).run()``.
    """

    def __init__(self, machine, plan, regs=None, golden=None,
                 max_cycles=None):
        self.machine = machine
        self.plan = plan        # any sequence: a lazy Plan, a list...
        self.regs = regs
        self.golden = golden if golden is not None \
            else machine.run(regs=regs)
        self.max_cycles = max_cycles if max_cycles is not None \
            else max(4 * self.golden.cycles + 256, 1024)
        # Supervision telemetry lives in the metrics registry
        # (`engine.recoveries` / `engine.serial_degraded_chunks`); the
        # engine keeps per-run marks so the historical attributes read
        # as "healings of the latest run()" exactly as before.
        registry = obs.metrics()
        self._recoveries_counter = registry.counter("engine.recoveries")
        self._degraded_counter = registry.counter(
            "engine.serial_degraded_chunks")
        self._recoveries_mark = self._recoveries_counter.value
        self._degraded_mark = self._degraded_counter.value

    @property
    def recoveries(self):
        """Dead workers healed during the latest :meth:`run` (a
        read-through alias over the ``engine.recoveries`` counter)."""
        return self._recoveries_counter.value - self._recoveries_mark

    @property
    def serial_degraded_chunks(self):
        """Chunks the latest :meth:`run` finished in-parent (alias
        over the ``engine.serial_degraded_chunks`` counter)."""
        return self._degraded_counter.value - self._degraded_mark

    def run(self, config=EngineConfig(), progress=None, sink=None,
            chaos=None):
        """Execute the whole plan under *config* (a
        :class:`repro.fi.config.EngineConfig`); returns a
        :class:`CampaignResult`.

        ``progress`` is an optional ``callable(done, total)`` invoked
        as chunks retire; ``sink`` is an optional extra
        :class:`repro.fi.sink.RunSink` receiving the plan-ordered
        record stream (e.g. a store writer); ``chaos`` threads a
        deterministic :class:`repro.fi.chaos.ChaosPolicy` through the
        workers and the sink fan-out.  Only ``config.prune`` can change
        aggregates; every other setting is a parity setting.
        """
        # Re-mark the supervision counters so the read-through aliases
        # report the latest run only (observable by tests and
        # reporting: how often did the run actually self-heal?).
        self._recoveries_mark = self._recoveries_counter.value
        self._degraded_mark = self._degraded_counter.value
        obs.metrics().counter("engine.campaigns").inc()
        with obs.tracer().span("engine.campaign", runs=len(self.plan),
                               core=self.machine.core,
                               workers=config.workers):
            return self._run(config, progress, sink, chaos)

    def _run(self, config, progress, sink, chaos):
        start = time.perf_counter()
        batched = (self.machine.core == "batched"
                   and batch.numpy_available())
        checkpoint_interval = config.checkpoint_interval
        if batched and not checkpoint_interval:
            checkpoint_interval = max(1, self.golden.cycles // 32)
        snapshots = None
        if checkpoint_interval:
            with obs.tracer().span("engine.golden_snapshots",
                                   interval=checkpoint_interval):
                _, snapshots = self.machine.run_with_snapshots(
                    regs=self.regs, interval=checkpoint_interval,
                    max_cycles=self.max_cycles)
        total = len(self.plan)
        # A range, not a list: the pending-index set is O(1) resident
        # until pruning actually filters it, keeping the streamed
        # engine's footprint free of O(plan) index storage.
        todo = range(total)
        pruned = 0
        masked = None
        if config.prune == "liveness" and todo:
            pruner = LivenessPruner(self.machine.function, self.golden)
            masked = (EFFECT_MASKED, self.golden.signature(),
                      self.golden.byte_size())
            todo = [index for index in todo
                    if not pruner.provably_masked(
                        self.plan[index].injection)]
            pruned = total - len(todo)
            if pruned:
                obs.metrics().counter("engine.runs_pruned").inc(pruned)
        classifier = None
        if batched and todo and batch.batchable(
                self.machine, self.golden, snapshots, self.max_cycles):
            classifier = batch.BatchClassifier(
                self.machine, self.plan, self.regs, self.golden,
                snapshots, self.max_cycles, lanes=config.batch_lanes)
        # Distinguishes the lockstep core actually engaging from the
        # silent scalar fallback (NumPy missing, non-batchable setup).
        # A plan fully pre-classified by pruning left nothing to
        # vectorize, which is not a fallback.
        vectorized = classifier is not None or (batched and not todo)
        context = _WorkerContext(self.machine, self.plan, self.regs,
                                 self.golden, snapshots, self.max_cycles,
                                 todo, classifier)
        aggregate = AggregateSink()
        spool = SpoolSink()
        sinks = [aggregate, spool]
        if progress is not None:
            sinks.append(ProgressSink(progress))
        if sink is not None:
            sinks.append(sink)
        if chaos is not None:
            from repro.fi.chaos import ChaosSink

            sinks.append(ChaosSink(chaos))
        tee = TeeSink(sinks)
        chunk_size = config.chunk_size
        try:
            tee.begin({"total_runs": total, "pruned_runs": pruned,
                       "vectorized": vectorized, "chunk_size": chunk_size,
                       "plan": self.plan, "golden": self.golden})
            assembler = ChunkAssembler(self.plan, todo, masked, tee,
                                       chunk_size)
            if config.workers > 1 and len(todo) > 1 \
                    and "fork" in multiprocessing.get_all_start_methods():
                self._run_parallel(context, config, assembler, chaos)
            else:
                self._run_serial(context, chunk_size, assembler)
            assembler.close()
            result = CampaignResult(self.golden,
                                    aggregates=aggregate.aggregates)
            result.pruned_runs = pruned
            result.vectorized = vectorized
            result.wall_time = time.perf_counter() - start
            tee.finish({"wall_time": result.wall_time})
        except BaseException:
            # A failed campaign must not leak sink state: close spool
            # temp files, roll partial store archives back.
            for failed_sink in sinks:
                abort = getattr(failed_sink, "abort", None)
                if abort is not None:
                    abort()
            raise
        result.runs = spool.view()
        return result

    def _run_serial(self, context, chunk_size, assembler):
        todo = context.todo
        tracer = obs.tracer()
        for low in range(0, len(todo), chunk_size):
            indices = todo[low:low + chunk_size]
            with tracer.span("engine.chunk", low=low, size=len(indices)):
                assembler.push(context.classify_indices(indices))

    def _run_parallel(self, context, config, assembler, chaos):
        pending = len(context.todo)
        n_chunks = max(1, min(config.workers, pending))
        # Segments arrive out of order across workers; the un-dealer
        # buffers them and releases maximal plan-order runs, keeping
        # the parent's residency at O(chunk_size × workers).
        undealer = StridedUndealer(pending, n_chunks, config.chunk_size)
        supervisor = _Supervisor(context, n_chunks, config, assembler,
                                 undealer, chaos=chaos)
        supervisor.run()
