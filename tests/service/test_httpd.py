"""The dependency-free HTTP layer: router and dispatcher."""

import asyncio
import json

import pytest

from repro import obs
from repro.service.auth import Authenticator
from repro.service.httpd import (Dispatcher, HTTPError, Request,
                                 Response, Router)


def run(coroutine):
    return asyncio.get_event_loop_policy().new_event_loop() \
        .run_until_complete(coroutine)


class TestRouter:
    def make(self):
        router = Router()
        router.add("GET", "/health", lambda r: Response.json({}),
                   auth=False)
        router.add("GET", "/v1/sweeps/{job_id}", "status")
        router.add("GET", "/v1/sweeps/{job_id}/cells/{cell_id}",
                   "cell")
        router.add("POST", "/v1/sweeps", "submit")
        return router

    def test_static_route(self):
        route, params = self.make().resolve("GET", "/health")
        assert params == {}
        assert route.auth is False

    def test_captures_params(self):
        route, params = self.make().resolve("GET", "/v1/sweeps/abc12")
        assert route.handler == "status"
        assert params == {"job_id": "abc12"}

    def test_captures_multiple_params(self):
        _, params = self.make().resolve(
            "GET", "/v1/sweeps/j1/cells/c2")
        assert params == {"job_id": "j1", "cell_id": "c2"}

    def test_unknown_path_is_404(self):
        with pytest.raises(HTTPError) as caught:
            self.make().resolve("GET", "/nope")
        assert caught.value.status == 404

    def test_wrong_method_is_405(self):
        with pytest.raises(HTTPError) as caught:
            self.make().resolve("DELETE", "/v1/sweeps")
        assert caught.value.status == 405

    def test_param_does_not_span_segments(self):
        with pytest.raises(HTTPError):
            self.make().resolve("GET", "/v1/sweeps/a/b")


class TestRequest:
    def test_json_body(self):
        request = Request("POST", "/", body=b'{"a": 1}')
        assert request.json() == {"a": 1}

    def test_empty_body_is_400(self):
        with pytest.raises(HTTPError) as caught:
            Request("POST", "/").json()
        assert caught.value.status == 400

    def test_garbage_body_is_400(self):
        with pytest.raises(HTTPError) as caught:
            Request("POST", "/", body=b"{nope").json()
        assert caught.value.status == 400


def make_dispatcher(dev=False, keys=("k1",)):
    router = Router()
    router.add("GET", "/open", lambda r: Response.json({"ok": True}),
               auth=False)
    router.add("GET", "/locked",
               lambda r: Response.json({"actor": r.principal}))
    router.add("GET", "/boom", lambda r: 1 / 0)

    async def async_handler(request):
        return Response.json({"via": "async"})

    router.add("GET", "/async", async_handler)
    return Dispatcher(router, Authenticator(list(keys), dev=dev))


class TestDispatcher:
    def test_open_route_needs_no_key(self):
        result = run(make_dispatcher().dispatch(
            Request("GET", "/open")))
        assert result.status == 200

    def test_locked_route_401_without_key(self):
        result = run(make_dispatcher().dispatch(
            Request("GET", "/locked")))
        assert result.status == 401
        assert "WWW-Authenticate" in result.headers

    def test_locked_route_passes_principal(self):
        request = Request("GET", "/locked",
                          headers={"x-api-key": "k1"})
        result = run(make_dispatcher().dispatch(request))
        assert result.status == 200
        assert json.loads(result.body)["actor"].startswith("key:")

    def test_handler_exception_is_500_not_crash(self):
        request = Request("GET", "/boom",
                          headers={"x-api-key": "k1"})
        result = run(make_dispatcher().dispatch(request))
        assert result.status == 500

    def test_500_body_is_an_opaque_error_id(self):
        request = Request("GET", "/boom",
                          headers={"x-api-key": "k1"})
        result = run(make_dispatcher().dispatch(request))
        assert result.status == 500
        body = json.loads(result.body)
        assert "division" not in result.body.decode()
        logged = obs.logger().events(name="service.handler_error")[-1]
        assert "division by zero" in logged["fields"]["error"]
        assert body["error_id"] == logged["fields"]["error_id"]

    def test_async_handlers_awaited(self):
        request = Request("GET", "/async",
                          headers={"x-api-key": "k1"})
        result = run(make_dispatcher().dispatch(request))
        assert json.loads(result.body) == {"via": "async"}

    def test_unknown_path_shaped_as_json_404(self):
        result = run(make_dispatcher().dispatch(
            Request("GET", "/nope")))
        assert result.status == 404
        assert "error" in json.loads(result.body)
