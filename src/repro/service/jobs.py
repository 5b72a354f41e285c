"""Job bookkeeping and report assembly over the queue + store.

A *job* is one submitted sweep spec; its id **is** the spec's content
digest (:func:`repro.dist.queue.spec_digest`), so resubmitting the
same spec is idempotent by construction — the second submission
re-enqueues nothing, returns the same id, and the per-submission run
accounting (``totals.simulator_runs``) reads zero once the queue has
drained.  A campaign submission is the degenerate one-cell sweep.

Everything here is derived state: the queue rows are the source of
truth for progress, the content-addressed store for results, and the
``service_jobs`` table (in the queue DB, beside the rows it
describes) only records submission metadata the queue cannot —
submission counts, timestamps, webhooks.
"""

import sqlite3
import threading
import time

from repro.dist.coordinator import status_payload
from repro.dist.queue import cell_id, spec_digest
from repro.fi.sampling import effect_intervals
from repro.store.db import default_busy_timeout
from repro.store.spec import parse_spec

_SCHEMA = """
CREATE TABLE IF NOT EXISTS service_jobs (
    job_id            TEXT PRIMARY KEY,
    name              TEXT NOT NULL,
    kind              TEXT NOT NULL,
    actor             TEXT,
    created_at        REAL NOT NULL,
    submissions       INTEGER NOT NULL,
    last_submitted_at REAL NOT NULL,
    webhook_url       TEXT,
    webhook_state     TEXT
)
"""

_JOB_FIELDS = ("job_id", "name", "kind", "actor", "created_at",
               "submissions", "last_submitted_at", "webhook_url",
               "webhook_state")


class JobNotFound(KeyError):
    """No job with the requested id."""


class JobsTable:
    """Submission metadata, shared across service threads."""

    def __init__(self, path, busy_timeout=None):
        self.path = path
        if busy_timeout is None:
            busy_timeout = default_busy_timeout()
        self._lock = threading.Lock()
        self._connection = sqlite3.connect(
            path, timeout=busy_timeout, isolation_level=None,
            check_same_thread=False)
        self._connection.execute(
            "PRAGMA busy_timeout = %d" % int(busy_timeout * 1000))
        try:
            self._connection.execute("PRAGMA journal_mode=WAL")
        except sqlite3.OperationalError:
            pass
        self._connection.executescript(_SCHEMA)

    def close(self):
        with self._lock:
            self._connection.close()

    def record_submission(self, job_id, name, kind, actor=None,
                          webhook_url=None):
        """Upsert one submission; returns the job row after it."""
        now = time.time()
        with self._lock:
            self._connection.execute(
                "INSERT INTO service_jobs (job_id, name, kind, actor, "
                "created_at, submissions, last_submitted_at, "
                "webhook_url, webhook_state) "
                "VALUES (?, ?, ?, ?, ?, 1, ?, ?, ?) "
                "ON CONFLICT(job_id) DO UPDATE SET "
                "submissions = submissions + 1, last_submitted_at = ?, "
                "actor = ?, "
                "webhook_url = COALESCE(?, webhook_url), "
                "webhook_state = CASE WHEN ? IS NULL "
                "THEN webhook_state ELSE 'pending' END",
                (job_id, name, kind, actor, now, now, webhook_url,
                 "pending" if webhook_url else None,
                 now, actor, webhook_url, webhook_url))
        return self.get(job_id)

    def get(self, job_id):
        with self._lock:
            row = self._connection.execute(
                "SELECT %s FROM service_jobs WHERE job_id = ?"
                % ", ".join(_JOB_FIELDS), (job_id,)).fetchone()
        if row is None:
            raise JobNotFound(job_id)
        return dict(zip(_JOB_FIELDS, row))

    def jobs(self):
        with self._lock:
            rows = self._connection.execute(
                "SELECT %s FROM service_jobs ORDER BY created_at"
                % ", ".join(_JOB_FIELDS)).fetchall()
        return [dict(zip(_JOB_FIELDS, row)) for row in rows]

    def pending_webhooks(self):
        """Jobs whose webhook has not fired for the latest
        submission."""
        with self._lock:
            rows = self._connection.execute(
                "SELECT %s FROM service_jobs "
                "WHERE webhook_url IS NOT NULL "
                "AND webhook_state = 'pending' ORDER BY created_at"
                % ", ".join(_JOB_FIELDS)).fetchall()
        return [dict(zip(_JOB_FIELDS, row)) for row in rows]

    def mark_webhook(self, job_id, state):
        with self._lock:
            self._connection.execute(
                "UPDATE service_jobs SET webhook_state = ? "
                "WHERE job_id = ?", (state, job_id))


def campaign_spec(body):
    """Wrap a single-campaign request body into a one-cell grid."""
    grid = {"kernels": [body.get("kernel", "bitcount")],
            "modes": [body.get("mode", "bec")],
            "harden": [body.get("harden", "none")],
            "cores": [body.get("core", "threaded")]}
    if body.get("budget") is not None:
        grid["budgets"] = [body["budget"]]
    data = {"grid": grid}
    if isinstance(body.get("engine"), dict):
        data["engine"] = body["engine"]
    return data


class JobService:
    """Submission, status, and report assembly for one service.

    Lives on the HTTP loop thread and owns that thread's
    :class:`~repro.dist.queue.WorkQueue` / store handles; the shared
    pieces (:class:`JobsTable`, audit log, event broker) are
    internally locked.
    """

    def __init__(self, queue, store, jobs, audit, broker,
                 wake=None, max_attempts=None):
        self.queue = queue
        self.store = store
        self.jobs = jobs
        self.audit = audit
        self.broker = broker
        self.wake = wake or (lambda: None)
        self.max_attempts = max_attempts

    # -- submission --------------------------------------------------------

    def submit(self, data, name="sweep", kind="sweep", actor=None,
               webhook_url=None):
        """Parse, enqueue, and record one spec submission.

        Raises :class:`repro.store.spec.SweepSpecError` on a malformed
        spec; otherwise idempotent — the job id is the spec's content
        digest, and already-queued cells are left untouched.
        """
        spec = parse_spec(data, name=name)
        cells = spec.cells()
        if self.max_attempts is None:
            inserted = self.queue.enqueue(spec)
        else:
            inserted = self.queue.enqueue(
                spec, max_attempts=self.max_attempts)
        job_id = spec_digest(spec)
        job = self.jobs.record_submission(
            job_id, name, kind, actor=actor, webhook_url=webhook_url)
        self.audit.append(
            "job_submitted", actor=actor, job_id=job_id,
            name=name, kind=kind, cells=len(cells),
            enqueued=len(inserted),
            submission=job["submissions"])
        self.broker.publish(
            job_id, "job_submitted", name=name,
            cells=len(cells), enqueued=len(inserted),
            submission=job["submissions"])
        if inserted:
            self.wake()
        return {
            "job_id": job_id,
            "name": name,
            "kind": kind,
            "cells": len(cells),
            "enqueued": len(inserted),
            "already_queued": len(cells) - len(inserted),
            "idempotent": not inserted,
            "submission": job["submissions"],
            "links": {
                "status": "/v1/sweeps/%s" % job_id,
                "report": "/v1/sweeps/%s/report" % job_id,
                "events": "/v1/sweeps/%s/events" % job_id,
            },
        }

    # -- read models -------------------------------------------------------

    def _job(self, job_id):
        try:
            return self.jobs.get(job_id)
        except JobNotFound:
            raise JobNotFound(job_id)

    def status(self, job_id):
        """Queue-derived progress for one job — exactly the
        ``repro dist status --json`` shape, plus submission
        metadata."""
        job = self._job(job_id)
        payload = status_payload(self.queue, job_id)
        payload["job"] = job
        return payload

    def report(self, job_id):
        """The finished (or in-flight) sweep report, decoded from the
        store — the service twin of ``SweepReport.to_json()``.

        ``totals.simulator_runs`` counts only runs executed at or
        after the job's *latest* submission, so resubmitting a drained
        spec reports zero — the idempotency receipt CI asserts on.
        """
        job = self._job(job_id)
        spec = self.queue.load_spec(job_id)
        rows = {row["cell_id"]: row
                for row in self.queue.cells(job_id)}
        since = job["last_submitted_at"]
        entries = []
        totals = {"cells": 0, "cells_done": 0, "cells_run": 0,
                  "cells_cached": 0, "cells_failed": 0,
                  "cells_pending": 0, "simulator_runs": 0,
                  "wall_time": 0.0}
        for cell in spec.cells():
            identity = cell_id(job_id, cell)
            row = rows.get(identity)
            entries.append(self._cell_entry(identity, cell, row,
                                            since, totals))
        return {
            "kind": "sweep",
            "job_id": job_id,
            "spec": spec.name if spec.name != "sweep" else job["name"],
            "job": job,
            "drained": self.queue.drained(job_id),
            "totals": totals,
            "cells": entries,
        }

    def _cell_entry(self, identity, cell, row, since, totals):
        totals["cells"] += 1
        entry = {"cell_id": identity, "kernel": cell.kernel,
                 "mode": cell.mode, "harden": cell.harden,
                 "budget": cell.budget, "core": cell.core,
                 "state": row["state"] if row else "missing",
                 "key": row["result_key"] if row else None,
                 "cached": None, "plan_runs": None,
                 "pruned_runs": None, "effects": None,
                 "distinct_traces": None, "wall_time": None,
                 "sample_fraction": None, "intervals": None,
                 "error": None}
        if row is None:
            return entry
        if row["state"] in ("pending", "leased"):
            totals["cells_pending"] += 1
        elif row["state"] == "poisoned":
            totals["cells_failed"] += 1
            entry["error"] = row["last_error"]
        elif row["state"] == "done":
            totals["cells_done"] += 1
            completed = row["completed_at"] or 0.0
            this_submission = completed >= since
            if this_submission and not row["cached"]:
                totals["cells_run"] += 1
                totals["simulator_runs"] += row["sim_runs"]
            else:
                totals["cells_cached"] += 1
            entry["cached"] = bool(row["cached"]) or not this_submission
            result = (self.store.get(row["result_key"])
                      if row["result_key"] else None)
            if result is not None:
                entry["plan_runs"] = len(result.runs)
                entry["pruned_runs"] = result.pruned_runs
                entry["effects"] = result.effect_counts()
                entry["distinct_traces"] = result.distinct_traces
                entry["sample_fraction"] = row["sample_fraction"]
                entry["intervals"] = effect_intervals(
                    entry["effects"], entry["plan_runs"],
                    row["sample_fraction"])
                entry["wall_time"] = result.wall_time
                totals["wall_time"] += result.wall_time
        return entry

    def cell(self, job_id, identity):
        """Detail view of one cell (row + provenance)."""
        self._job(job_id)
        for row in self.queue.cells(job_id):
            if row["cell_id"] == identity:
                payload = dict(row)
                payload["cell"] = row["cell"]._asdict()
                payload["provenance"] = (
                    self.store.provenance(row["result_key"])
                    if row["result_key"] else None)
                return payload
        raise JobNotFound("%s/%s" % (job_id, identity))

    def audit_entries(self, job_id, limit=None):
        self._job(job_id)
        return self.audit.entries(job_id=job_id, limit=limit)
