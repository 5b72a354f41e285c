"""Dependency-free asyncio HTTP/1.1 server and router.

The built-in :func:`serve` speaks just enough HTTP/1.1 — one request
per connection, ``Connection: close`` — to run the whole campaign
service with no framework installed at all.  Every request goes
through one :class:`Dispatcher`, which owns auth, routing, metrics and
error shaping.

Server-sent events: a handler may return an :class:`EventStream`
instead of a :class:`Response`; its async generator yields
``(event, data)`` pairs that are written incrementally as a
``text/event-stream`` body.
"""

import asyncio
import inspect
import json
import re
import uuid

from repro import obs

#: Largest accepted request head (request line + headers).
MAX_HEAD = 64 * 1024

#: Largest accepted request body (sweep specs are a few KB).
MAX_BODY = 8 * 1024 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 401: "Unauthorized", 403: "Forbidden",
    404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class HTTPError(Exception):
    """Raise from a handler to produce a JSON error response."""

    def __init__(self, status, message):
        super().__init__(message)
        self.status = status
        self.message = message


class Request:
    """One parsed HTTP request, transport-agnostic."""

    def __init__(self, method, path, headers=None, body=b"",
                 query=None, params=None, principal=None):
        self.method = method
        self.path = path
        self.headers = headers or {}    # lower-cased names
        self.body = body
        self.query = query or {}
        self.params = params or {}      # router path captures
        self.principal = principal

    def json(self):
        """The request body decoded as JSON (400 on garbage)."""
        if not self.body:
            raise HTTPError(400, "empty request body")
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise HTTPError(400, "invalid JSON body: %s" % error)


class Response:
    def __init__(self, status=200, body=b"", content_type="text/plain",
                 headers=None):
        if isinstance(body, str):
            body = body.encode("utf-8")
        self.status = status
        self.body = body
        self.content_type = content_type
        self.headers = headers or {}

    @classmethod
    def json(cls, payload, status=200):
        body = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return cls(status, body, "application/json")


class EventStream:
    """A server-sent-events response; *events* is an async generator
    of ``(event_name, payload_dict)`` pairs."""

    def __init__(self, events):
        self.events = events
        self.status = 200
        self.headers = {"Cache-Control": "no-store"}


class Route:
    def __init__(self, method, pattern, handler, auth):
        self.method = method
        self.pattern = pattern
        self.handler = handler
        self.auth = auth
        regex = "".join(
            "(?P<%s>[^/]+)" % part[1:-1]
            if part.startswith("{") and part.endswith("}")
            else re.escape(part)
            for part in re.split(r"(\{[a-z_]+\})", pattern))
        self.regex = re.compile("^%s$" % regex)


class Router:
    """Method + ``/path/{param}`` pattern matching."""

    def __init__(self):
        self._routes = []

    def add(self, method, pattern, handler, auth=True):
        self._routes.append(Route(method.upper(), pattern, handler,
                                  auth))

    def resolve(self, method, path):
        """The matching route and its path captures.

        Raises 404 for an unknown path, 405 when the path exists but
        not under this method.
        """
        methods = set()
        for route in self._routes:
            match = route.regex.match(path)
            if match is None:
                continue
            if route.method == method.upper():
                return route, match.groupdict()
            methods.add(route.method)
        if methods:
            raise HTTPError(
                405, "method %s not allowed (try %s)"
                % (method, ", ".join(sorted(methods))))
        raise HTTPError(404, "no such resource: %s" % path)


def _parse_query(raw):
    query = {}
    for pair in raw.split("&"):
        if not pair:
            continue
        name, _, value = pair.partition("=")
        query[_unquote(name)] = _unquote(value)
    return query


def _unquote(text):
    from urllib.parse import unquote_plus
    return unquote_plus(text)


class Dispatcher:
    """Auth + routing + metrics, shared by every transport."""

    def __init__(self, router, authenticator, audit=None):
        self.router = router
        self.authenticator = authenticator
        self.audit = audit

    async def dispatch(self, request):
        """Run *request* through auth and its handler; always returns
        a :class:`Response` or :class:`EventStream`."""
        route_label = request.path
        try:
            route, params = self.router.resolve(request.method,
                                                request.path)
            route_label = route.pattern
            if route.auth:
                principal = self.authenticator.authenticate(
                    request.headers)
                if principal is None:
                    obs.metrics().counter(
                        "service.auth_failures").inc()
                    if self.audit is not None:
                        self.audit.append(
                            "auth_denied", actor="anonymous",
                            path=request.path,
                            method=request.method)
                    response = Response.json(
                        {"error": "missing or invalid API key"}, 401)
                    response.headers["WWW-Authenticate"] = \
                        "Bearer realm=\"repro\""
                    raise _Shortcut(response)
                request.principal = principal
            request.params = params
            result = route.handler(request)
            if inspect.isawaitable(result):
                result = await result
        except _Shortcut as shortcut:
            result = shortcut.response
        except HTTPError as error:
            result = Response.json({"error": error.message},
                                   error.status)
        except Exception as error:  # handler bug: surface, don't die
            # The exception text stays in the log; the client gets an
            # opaque id that finds it there.
            error_id = uuid.uuid4().hex
            obs.logger().error("service.handler_error",
                               path=request.path, error=repr(error),
                               error_id=error_id)
            result = Response.json(
                {"error": "internal error", "error_id": error_id}, 500)
        obs.metrics().counter(
            "service.requests", route=route_label,
            method=request.method,
            status=str(result.status)).inc()
        return result


class _Shortcut(Exception):
    def __init__(self, response):
        self.response = response


def _sse_chunk(event, payload):
    data = json.dumps(payload, sort_keys=True,
                      separators=(",", ":"))
    return ("event: %s\ndata: %s\n\n" % (event, data)).encode()


async def _read_request(reader):
    head = await reader.readuntil(b"\r\n\r\n")
    if len(head) > MAX_HEAD:
        raise HTTPError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError:
        raise HTTPError(400, "malformed request line")
    headers = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0) or 0)
    if length > MAX_BODY:
        raise HTTPError(413, "request body too large")
    body = await reader.readexactly(length) if length else b""
    path, _, raw_query = target.partition("?")
    return Request(method, path, headers, body,
                   _parse_query(raw_query))


def _head_bytes(status, headers):
    reason = _REASONS.get(status, "Unknown")
    lines = ["HTTP/1.1 %d %s" % (status, reason)]
    lines.extend("%s: %s" % item for item in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def _write_response(writer, result):
    if isinstance(result, EventStream):
        headers = {"Content-Type": "text/event-stream",
                   "Connection": "close", **result.headers}
        writer.write(_head_bytes(result.status, headers))
        await writer.drain()
        async for event, payload in result.events:
            writer.write(_sse_chunk(event, payload))
            await writer.drain()
        return
    headers = {"Content-Type": result.content_type,
               "Content-Length": str(len(result.body)),
               "Connection": "close", **result.headers}
    writer.write(_head_bytes(result.status, headers))
    writer.write(result.body)
    await writer.drain()


def connection_handler(dispatcher):
    """The ``asyncio.start_server`` callback for *dispatcher*."""

    async def handle(reader, writer):
        try:
            try:
                request = await _read_request(reader)
            except HTTPError as error:
                await _write_response(writer, Response.json(
                    {"error": error.message}, error.status))
                return
            except (asyncio.IncompleteReadError,
                    asyncio.LimitOverrunError, ConnectionError):
                return
            result = await dispatcher.dispatch(request)
            await _write_response(writer, result)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    return handle


async def serve(dispatcher, host, port):
    """Start the built-in server; returns the asyncio server object
    (inspect ``.sockets[0].getsockname()`` for the bound port)."""
    return await asyncio.start_server(
        connection_handler(dispatcher), host, port,
        limit=MAX_HEAD)
