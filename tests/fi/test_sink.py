"""Tests for the streaming sink protocol and the bounded-memory bound.

Three layers: unit tests of the sink building blocks (chunk assembly,
strided un-dealing, progress adaptation, spooling), parity of the
streamed engine across chunk sizes × workers × pruning (aggregates and
run order must be bit-identical to the one-chunk path), and the
tentpole's acceptance bound — peak resident memory under tracemalloc
is governed by ``chunk_size``, not plan length.
"""

import tracemalloc

import pytest

from repro.errors import SimulationError
from repro.fi.campaign import plan_exhaustive
from repro.fi.config import EngineConfig
from repro.fi.engine import CampaignEngine
from repro.fi.sink import (AggregateSink, ChunkAssembler, ProgressSink,
                           RunSink, SpoolSink, StridedUndealer, TeeSink)


class RecordingSink(RunSink):
    """Captures the full protocol interaction for assertions."""

    def __init__(self):
        self.meta = None
        self.chunks = []
        self.summary = None

    def begin(self, meta):
        self.meta = meta

    def consume(self, chunk):
        self.chunks.append(list(chunk))

    def finish(self, summary):
        self.summary = summary

    @property
    def records(self):
        return [record for chunk in self.chunks for record in chunk]


def fake_record(value):
    return (f"effect-{value}", bytes([value % 251]), value)


class TestChunkAssembler:
    def _assemble(self, n_plan, todo, chunk_size, pruned_record=None):
        plan = [f"planned-{index}" for index in range(n_plan)]
        sink = RecordingSink()
        assembler = ChunkAssembler(plan, todo, pruned_record, sink,
                                   chunk_size)
        for index in todo:
            assembler.push([fake_record(index)])
        assembler.close()
        return plan, sink

    def test_exact_chunking_without_pruning(self):
        plan, sink = self._assemble(10, list(range(10)), 4)
        assert [len(chunk) for chunk in sink.chunks] == [4, 4, 2]
        assert [record[0] for record in sink.records] == plan

    def test_pruned_gaps_are_interleaved_in_plan_order(self):
        pruned = ("masked", b"\x00", 0)
        todo = [1, 4, 5, 8]
        plan, sink = self._assemble(10, todo, 3, pruned_record=pruned)
        records = sink.records
        assert [record[0] for record in records] == plan
        for index, record in enumerate(records):
            if index in todo:
                assert record[1:] == fake_record(index)
            else:
                assert record[1:] == pruned
        assert [len(chunk) for chunk in sink.chunks] == [3, 3, 3, 1]

    def test_batched_push(self):
        plan = [f"planned-{index}" for index in range(7)]
        sink = RecordingSink()
        assembler = ChunkAssembler(plan, list(range(7)), None, sink, 3)
        assembler.push([fake_record(index) for index in range(5)])
        assembler.push([fake_record(index) for index in range(5, 7)])
        assembler.close()
        assert [record[0] for record in sink.records] == plan

    def test_all_pruned(self):
        pruned = ("masked", b"\x00", 0)
        plan, sink = self._assemble(5, [], 2, pruned_record=pruned)
        assert [record[1:] for record in sink.records] == [pruned] * 5


class TestStridedUndealer:
    @pytest.mark.parametrize("n_items,n_chunks,chunk_size", [
        (1, 1, 1), (10, 3, 2), (17, 4, 3), (16, 4, 4), (23, 5, 7),
        (8, 8, 1),
    ])
    def test_restores_todo_order_for_any_arrival_order(
            self, n_items, n_chunks, chunk_size):
        # Build each worker's segment stream, then deliver the segments
        # in an adversarial (reversed round-robin) order.
        segments = []
        for chunk_index in range(n_chunks):
            mine = list(range(n_items))[chunk_index::n_chunks]
            for segment_index, low in enumerate(
                    range(0, len(mine), chunk_size)):
                segments.append(
                    (chunk_index, segment_index,
                     [fake_record(item)
                      for item in mine[low:low + chunk_size]]))
        out = []
        undealer = StridedUndealer(n_items, n_chunks, chunk_size)
        for chunk_index, segment_index, records in reversed(segments):
            out.extend(undealer.add(chunk_index, segment_index, records))
        assert out == [fake_record(item) for item in range(n_items)]
        assert undealer.pending == 0

    def test_streams_in_order_arrival_immediately(self):
        undealer = StridedUndealer(4, 2, 2)
        # Chunk 0 holds todo positions 0 and 2: position 0 releases at
        # once, position 2 must wait for position 1 (chunk 1).
        assert undealer.add(0, 0, [fake_record(0), fake_record(2)]) \
            == [fake_record(0)]
        assert undealer.pending == 1
        released = undealer.add(1, 0, [fake_record(1), fake_record(3)])
        assert released == [fake_record(item) for item in range(1, 4)]
        assert undealer.pending == 0


class TestProgressSink:
    def _drive(self, total, chunk_sizes):
        seen = []
        sink = ProgressSink(lambda done, all_: seen.append((done, all_)))
        sink.begin({"total_runs": total})
        for size in chunk_sizes:
            sink.consume([None] * size)
        sink.finish({})
        return seen

    def test_monotone_and_final(self):
        seen = self._drive(10, [4, 4, 2])
        assert seen == [(4, 10), (8, 10), (10, 10), (10, 10)]
        assert [done for done, _ in seen] \
            == sorted(done for done, _ in seen)

    def test_empty_campaign_still_reports_completion(self):
        assert self._drive(0, []) == [(0, 0)]


class TestSpoolSink:
    def _spool(self, n_records, chunk_size):
        plan = [f"planned-{index}" for index in range(n_records)]
        sink = SpoolSink()
        sink.begin({"plan": plan, "chunk_size": chunk_size,
                    "total_runs": n_records})
        for low in range(0, n_records, chunk_size):
            sink.consume([(plan[index],) + fake_record(index)
                          for index in range(
                              low, min(low + chunk_size, n_records))])
        sink.finish({})
        return plan, sink.view()

    def test_single_chunk_stays_in_memory(self):
        plan, view = self._spool(5, 8)
        assert view._spool is None
        assert len(view) == 5
        assert [record[0] for record in view] == plan

    def test_multi_chunk_spills_to_disk(self):
        plan, view = self._spool(25, 4)
        assert view._spool is not None
        assert len(view) == 25
        expected = [(plan[index],) + fake_record(index)[:2]
                    for index in range(25)]
        assert list(view) == expected
        # Random access, negative indices, slices.
        assert view[0] == expected[0]
        assert view[24] == expected[24]
        assert view[-1] == expected[-1]
        assert view[3:7] == expected[3:7]
        with pytest.raises(IndexError):
            view[25]
        # Re-iteration and interleaved iteration both replay cleanly.
        assert list(view) == expected
        assert list(zip(view, view)) == list(zip(expected, expected))

    def test_view_before_finish_is_an_error(self):
        sink = SpoolSink()
        sink.begin({"plan": [], "chunk_size": 4, "total_runs": 0})
        with pytest.raises(RuntimeError):
            sink.view()

    def test_abort_closes_and_deletes_the_spool_file(self):
        """An aborted campaign must leak neither the descriptor nor
        the temp file (the OS unlinks a TemporaryFile on close)."""
        plan, chunk_size = list(range(24)), 4
        sink = SpoolSink()
        sink.begin({"plan": plan, "chunk_size": chunk_size,
                    "total_runs": len(plan)})
        for low in range(0, len(plan), chunk_size):
            sink.consume([(plan[index],) + fake_record(index)
                          for index in range(low, low + chunk_size)])
        spool = sink._spool
        assert spool is not None and not spool.closed
        sink.abort()
        assert spool.closed
        assert sink._spool is None and sink._frames == []
        with pytest.raises(RuntimeError):
            sink.view()

    def test_abort_before_spilling_is_a_no_op(self):
        sink = SpoolSink()
        sink.begin({"plan": [0], "chunk_size": 4, "total_runs": 1})
        sink.consume([(0,) + fake_record(0)])
        sink.abort()                     # in-memory only: nothing leaks
        assert sink._memory is None

    def test_engine_aborts_sinks_when_one_raises(
            self, motivating_function, motivating_machine,
            motivating_golden):
        """Satellite: a sink failing mid-stream must tear the whole
        fan-out down through abort() — the spool temp file included —
        and re-raise, leaving the engine reusable."""

        class ExplodingSink(RunSink):
            def __init__(self):
                self.aborted = False

            def consume(self, chunk):
                raise OSError(28, "No space left on device")

            def abort(self):
                self.aborted = True

        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        exploding = ExplodingSink()
        with pytest.raises(OSError):
            engine.run(EngineConfig(chunk_size=16), sink=exploding)
        assert exploding.aborted
        result = engine.run(EngineConfig(chunk_size=16))
        assert len(result.runs) == len(plan)


class TestAggregateSink:
    def test_counts_without_retaining_records(self):
        sink = AggregateSink()
        sink.begin({"total_runs": 3})
        sink.consume([(None, "masked", b"\x01", 5),
                      (None, "sdc", b"\x02", 7)])
        sink.consume([(None, "sdc", b"\x02", 7)])
        sink.finish({})
        aggregates = sink.aggregates
        assert aggregates.n_runs == 3
        assert aggregates.effect_counts()["sdc"] == 2
        assert aggregates.vulnerable == 2
        assert aggregates.distinct_traces == 2
        assert aggregates.archived_bytes == 12


class TestTeeSink:
    def test_fans_out_in_order(self):
        first, second = RecordingSink(), RecordingSink()
        tee = TeeSink([first, second])
        tee.begin({"total_runs": 2})
        tee.consume([fake_record(0), fake_record(1)])
        tee.finish({"wall_time": 1.0})
        for sink in (first, second):
            assert sink.meta == {"total_runs": 2}
            assert sink.records == [fake_record(0), fake_record(1)]
            assert sink.summary == {"wall_time": 1.0}


def assert_identical(base, other):
    assert [(effect, signature) for _, effect, signature in base.runs] \
        == [(effect, signature) for _, effect, signature in other.runs]
    assert base.effect_counts() == other.effect_counts()
    assert base.vulnerable_runs() == other.vulnerable_runs()
    assert base.distinct_traces == other.distinct_traces
    assert base.archived_bytes == other.archived_bytes


class TestStreamingParity:
    """Chunk size is a parity knob: any value must reproduce the
    one-chunk aggregates and run order bit-identically, with or
    without workers, checkpointing and pruning."""

    @pytest.fixture(scope="class")
    def campaign(self, motivating_function, motivating_machine,
                 motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        return engine, engine.run(EngineConfig(chunk_size=len(plan)))

    @pytest.mark.parametrize("kwargs", [
        {"chunk_size": 1},
        {"chunk_size": 7},
        {"chunk_size": 64},
        {"chunk_size": 7, "workers": 4},
        {"chunk_size": 64, "workers": 4, "checkpoint_interval": 8},
        {"chunk_size": 33, "prune": "liveness"},
        {"chunk_size": 33, "workers": 4, "prune": "liveness"},
    ])
    def test_chunked_equals_unchunked(self, campaign, kwargs):
        engine, base = campaign
        assert_identical(base, engine.run(EngineConfig(**kwargs)))

    def test_invalid_chunk_size(self, campaign):
        engine, _ = campaign
        with pytest.raises(SimulationError):
            engine.run(EngineConfig(chunk_size=0))

    def test_user_sink_sees_plan_ordered_stream(
            self, motivating_function, motivating_machine,
            motivating_golden):
        plan = plan_exhaustive(motivating_function, motivating_golden)
        engine = CampaignEngine(motivating_machine, plan,
                                golden=motivating_golden)
        sink = RecordingSink()
        result = engine.run(EngineConfig(workers=2, chunk_size=50,
                                         prune="liveness"), sink=sink)
        assert sink.meta["total_runs"] == len(plan)
        assert sink.meta["pruned_runs"] == result.pruned_runs
        assert sink.summary == {"wall_time": result.wall_time}
        assert all(len(chunk) <= 50 for chunk in sink.chunks)
        assert [planned for planned, _, _, _ in sink.records] == plan
        streamed = [(effect, signature)
                    for _, effect, signature, _ in sink.records]
        assert streamed == [(effect, signature)
                            for _, effect, signature in result.runs]


class TestBoundedMemory:
    """The tentpole's acceptance bound: peak resident per-run records
    are O(chunk_size), independent of plan length."""

    def _tiled_plan(self, function, golden, factor):
        # A large exhaustive plan: the full register file × cycle grid,
        # tiled (duplicate injections are legal planned runs), so plan
        # length grows without changing per-run simulation cost.
        return list(plan_exhaustive(function, golden)) * factor

    def _peak(self, machine, golden, plan, chunk_size):
        engine = CampaignEngine(machine, plan, golden=golden)
        tracemalloc.start()
        result = engine.run(EngineConfig(checkpoint_interval=8,
                                         chunk_size=chunk_size))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak, result

    def test_streamed_peak_is_bounded_by_chunk_size_not_plan(
            self, motivating_function, motivating_machine,
            motivating_golden):
        small = self._tiled_plan(motivating_function, motivating_golden,
                                 4)
        large = self._tiled_plan(motivating_function, motivating_golden,
                                 16)
        peak_small_plan, _ = self._peak(motivating_machine,
                                        motivating_golden, small, 64)
        peak_large_plan, result = self._peak(motivating_machine,
                                             motivating_golden, large, 64)
        # 4x the plan must not grow the streamed peak materially (the
        # generous factor absorbs allocator noise, not a linear term:
        # a materializing engine would grow ~4x here).
        assert peak_large_plan < 2 * peak_small_plan
        # The one-chunk (fully resident) run of the same large plan
        # costs a multiple of the streamed peak.
        peak_resident, resident = self._peak(
            motivating_machine, motivating_golden, large, len(large))
        assert peak_large_plan < peak_resident / 2
        assert_identical(resident, result)
        # The streamed result spilled to disk yet still replays fully.
        assert len(result.runs) == len(large)
        assert result.runs._spool is not None
