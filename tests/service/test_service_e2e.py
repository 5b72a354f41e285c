"""End-to-end service tests: real sockets, real workers, real store.

One service boots for the module (ephemeral port, two in-process
workers); every test drives it through :class:`ServiceClient` — the
same path the CLI and the CI gate use.
"""

import http.client
import json
import threading

import pytest

from repro.service import (CampaignService, ServiceClient,
                           ServiceClientError, ServiceConfig)
from repro.store import ResultStore, parse_spec, run_sweep

API_KEY = "e2e-test-key"

SPEC = {"grid": {"kernels": ["bitcount"], "modes": ["bec"],
                 "harden": ["none", "bec"], "budgets": [0.3],
                 "cores": ["threaded"]},
        "engine": {"workers": 1, "max_runs": 40}}


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("service")
    config = ServiceConfig(
        str(root / "queue.sqlite"), str(root / "store.sqlite"),
        port=0, api_keys=[API_KEY], workers=2)
    running = CampaignService(config)
    running.start()
    yield running
    running.stop()


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient("http://127.0.0.1:%d" % service.port,
                         api_key=API_KEY)


def submit_and_wait(client, spec=SPEC, name="e2e"):
    submission = client.submit(spec, name=name)
    client.wait(submission["job_id"], timeout=120)
    return submission["job_id"]


class TestLifecycle:
    def test_health_is_open_and_honest(self, service, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["dev"] is False
        assert health["keys"] == 1

    def test_unauthenticated_request_is_401(self, service):
        anonymous = ServiceClient(
            "http://127.0.0.1:%d" % service.port)
        with pytest.raises(ServiceClientError) as caught:
            anonymous.jobs()
        assert caught.value.status == 401

    def test_wrong_key_is_401(self, service):
        impostor = ServiceClient(
            "http://127.0.0.1:%d" % service.port, api_key="wrong")
        with pytest.raises(ServiceClientError) as caught:
            impostor.jobs()
        assert caught.value.status == 401

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.status("0" * 32)
        assert caught.value.status == 404

    def test_malformed_spec_is_400(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.submit({"grid": {"kernels": ["bitcount"],
                                    "surprise": True}})
        assert caught.value.status == 400


class TestSubmitToReport:
    def test_submit_drain_report(self, client):
        job_id = submit_and_wait(client)
        report = client.report(job_id)
        totals = report["totals"]
        assert totals["cells"] == 2
        assert totals["cells_failed"] == 0
        assert totals["simulator_runs"] > 0
        for cell in report["cells"]:
            assert cell["state"] == "done"
            assert cell["key"]
            assert cell["effects"]["sdc"] >= 0

    def test_aggregates_match_a_direct_sweep(self, client, tmp_path):
        """The service must be a transport, not an interpretation:
        per-cell aggregates fetched over HTTP equal a direct
        ``run_sweep`` of the same spec, key for key."""
        job_id = submit_and_wait(client)
        served = {(c["kernel"], c["harden"]): c
                  for c in client.report(job_id)["cells"]}
        with ResultStore(str(tmp_path / "direct.sqlite")) as store:
            direct = run_sweep(parse_spec(SPEC, name="e2e"), store)
        for outcome in direct.to_json()["cells"]:
            over_http = served[(outcome["kernel"], outcome["harden"])]
            assert over_http["key"] == outcome["key"]
            assert over_http["effects"] == outcome["effects"]
            assert over_http["plan_runs"] == outcome["plan_runs"]
            assert over_http["distinct_traces"] == \
                outcome["distinct_traces"]
            assert 0 < over_http["sample_fraction"] < 1
            assert over_http["sample_fraction"] == \
                outcome["sample_fraction"]
            assert over_http["intervals"] == \
                json.loads(json.dumps(outcome["intervals"]))

    def test_resubmission_is_idempotent_with_zero_runs(self, client):
        job_id = submit_and_wait(client)
        again = client.submit(SPEC, name="e2e")
        assert again["job_id"] == job_id
        assert again["idempotent"] is True
        assert again["enqueued"] == 0
        report = client.report(job_id)
        assert report["totals"]["simulator_runs"] == 0
        assert report["totals"]["cells_cached"] == 2

    def test_campaign_is_a_one_cell_sweep(self, client):
        submission = client.submit_campaign(
            {"kernel": "bitcount", "mode": "bec", "harden": "none",
             "core": "threaded", "engine": {"max_runs": 25},
             "name": "single"})
        job_id = submission["job_id"]
        assert submission["cells"] == 1
        client.wait(job_id, timeout=120)
        report = client.report(job_id)
        assert report["totals"]["cells_done"] == 1
        assert report["cells"][0]["plan_runs"] == 25
        assert 0 < report["cells"][0]["sample_fraction"] < 1

    def test_cell_detail_has_provenance(self, client):
        job_id = submit_and_wait(client)
        report = client.report(job_id)
        detail = client.cell(job_id, report["cells"][0]["cell_id"])
        assert detail["state"] == "done"
        assert detail["provenance"]["n_runs"] > 0

    def test_audit_trail_names_the_submitter(self, client):
        job_id = submit_and_wait(client)
        entries = client.audit(job_id)["entries"]
        submitted = [e for e in entries
                     if e["event"] == "job_submitted"]
        assert submitted
        assert submitted[0]["actor"].startswith("key:")

    def test_metrics_expose_service_counters(self, client):
        submit_and_wait(client)
        client.report(submit_and_wait(client))
        text = client.metrics()
        assert "repro_service_requests" in text
        assert "repro_store_hits" in text


class TestConcurrentSubmitters:
    def test_racing_submitters_never_double_enqueue(self, service):
        spec = {"grid": {"kernels": ["bitcount"], "modes": ["bec"],
                         "harden": ["none"], "cores": ["threaded"]},
                "engine": {"max_runs": 30}}
        results, errors = [], []
        barrier = threading.Barrier(6)

        def submitter():
            submitting = ServiceClient(
                "http://127.0.0.1:%d" % service.port,
                api_key=API_KEY)
            barrier.wait()
            try:
                results.append(submitting.submit(spec, name="race"))
            except Exception as error:
                errors.append(error)

        threads = [threading.Thread(target=submitter)
                   for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len({r["job_id"] for r in results}) == 1
        # The one cell was enqueued exactly once across all racers.
        assert sum(r["enqueued"] for r in results) == 1
        job_id = results[0]["job_id"]
        client = ServiceClient(
            "http://127.0.0.1:%d" % service.port, api_key=API_KEY)
        status = client.wait(job_id, timeout=120)
        assert status["cells"] == 1
        assert status["job"]["submissions"] == 6


class TestEventStream:
    def read_stream(self, service, job_id):
        connection = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=60)
        connection.request(
            "GET", "/v1/sweeps/%s/events" % job_id,
            headers={"Authorization": "Bearer %s" % API_KEY})
        response = connection.getresponse()
        assert response.status == 200
        assert response.headers["Content-Type"] == \
            "text/event-stream"
        events = []
        name = None
        for raw in response:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                name = line[len("event: "):]
            elif line.startswith("data: "):
                events.append((name, json.loads(line[len("data: "):])))
        connection.close()
        return events

    def test_stream_replays_history_in_order_then_completes(
            self, service, client):
        job_id = submit_and_wait(client)
        events = self.read_stream(service, job_id)
        assert events[0][0] == "snapshot"
        assert events[-1][0] == "job_completed"
        assert events[-1][1]["drained"] is True

    def test_live_stream_sequences_are_monotonic(self, service,
                                                 client):
        spec = {"grid": {"kernels": ["bitcount"], "modes": ["bec"],
                         "harden": ["none", "bec"],
                         "budgets": [0.25], "cores": ["threaded"]},
                "engine": {"max_runs": 120}}
        submission = client.submit(spec, name="streamed")
        events = self.read_stream(service, submission["job_id"])
        assert events[0][0] == "snapshot"
        assert events[-1][0] == "job_completed"
        sequences = [payload["seq"] for name, payload in events
                     if "seq" in payload]
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        kinds = {name for name, _ in events}
        assert "cell_done" in kinds
