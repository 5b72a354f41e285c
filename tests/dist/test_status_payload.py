"""The shared status shape (`repro dist status --json` and the
service's status endpoint) and the queue schema migration."""

import sqlite3

import pytest

from repro.dist.coordinator import status_payload
from repro.dist.queue import WorkQueue, spec_digest
from repro.store.spec import parse_spec


def make_spec(max_runs=10, name="ptest"):
    return parse_spec({"grid": {"kernels": ["bitcount"],
                                "harden": ["none", "bec"],
                                "budgets": [0.3]},
                       "engine": {"max_runs": max_runs}}, name=name)


@pytest.fixture
def queue(tmp_path):
    with WorkQueue(str(tmp_path / "queue.sqlite")) as opened:
        yield opened


class TestStatusPayload:
    def test_shape_matches_queue_status_plus_quarantine(self, queue):
        queue.enqueue(make_spec())
        payload = status_payload(queue)
        base = queue.status()
        for key, value in base.items():
            assert payload[key] == value
        assert payload["quarantine"] == []

    def test_quarantine_entries_are_dicts(self, queue):
        queue.enqueue(make_spec())
        identity = queue.cells()[0]["cell_id"]
        queue.quarantine_event(identity, "w0", "digest mismatch")
        payload = status_payload(queue)
        assert payload["quarantine"] == [
            {"cell_id": identity, "worker": "w0",
             "reason": "digest mismatch"}]

    def test_spec_scoping(self, queue):
        spec_a, spec_b = make_spec(10), make_spec(20)
        queue.enqueue(spec_a)
        queue.enqueue(spec_b)
        digest_a = spec_digest(spec_a)
        other = queue.cells(spec_digest(spec_b))[0]["cell_id"]
        queue.quarantine_event(other, "w0", "other spec's trouble")
        scoped = status_payload(queue, digest_a)
        assert scoped["cells"] == 2
        assert scoped["quarantine"] == []
        assert status_payload(queue)["cells"] == 4

    def test_completion_accounting_lands_in_cells(self, queue):
        queue.enqueue(make_spec())
        lease = queue.claim("w0")
        queue.complete(lease.token, result_key="k1", cached=False,
                       sim_runs=7)
        lease = queue.claim("w0")
        queue.complete(lease.token, result_key="k2", cached=True,
                       sim_runs=0)
        by_key = {row["result_key"]: row for row in queue.cells()}
        assert by_key["k1"]["cached"] is False
        assert by_key["k1"]["sim_runs"] == 7
        assert by_key["k1"]["completed_at"] is not None
        assert by_key["k2"]["cached"] is True
        assert by_key["k2"]["sim_runs"] == 0


class TestSchemaMigration:
    def test_old_queue_file_gains_accounting_columns(self, tmp_path):
        """A queue created before the accounting columns opens
        cleanly: ALTER TABLE retrofits them with safe defaults."""
        path = str(tmp_path / "old.sqlite")
        with WorkQueue(path) as queue:
            queue.enqueue(make_spec())
        connection = sqlite3.connect(path)
        connection.executescript("""
            ALTER TABLE dist_queue DROP COLUMN cached;
            ALTER TABLE dist_queue DROP COLUMN sim_runs;
            ALTER TABLE dist_queue DROP COLUMN sample_fraction;
        """)
        connection.close()
        with WorkQueue(path) as reopened:
            rows = reopened.cells()
            assert rows and all(row["cached"] is False and
                                row["sim_runs"] == 0 and
                                row["sample_fraction"] == 1.0
                                for row in rows)
            lease = reopened.claim("w0")
            assert reopened.complete(lease.token, result_key="k",
                                     sim_runs=3,
                                     sample_fraction=0.25) == "done"
            done = [row for row in reopened.cells()
                    if row["state"] == "done"]
            assert done[0]["sim_runs"] == 3
            assert done[0]["sample_fraction"] == 0.25
