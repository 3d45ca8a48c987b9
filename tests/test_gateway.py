import hashlib
import http.client
import itertools
import json
import random
import re
import socket
import threading
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from cogrules import gateway
from cogrules.gateway import (BackendSpec, ChatMessage, CriticEnsembleSpec,
                              ProtocolError, RecordingBackend, ReplayMiss,
                              ScriptedBackend, Session, request_hash)
from conftest import scripted_spec


def msgs(*contents):
    return [ChatMessage("user", c) for c in contents]


class TestSpecs:
    def test_http_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="http")

    def test_replay_requires_transcript(self):
        with pytest.raises(ValueError):
            BackendSpec(kind="replay")

    def test_bad_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("tool", "x")

    def test_empty_user_content_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage("user", "")

    def test_probabilities_must_sum_to_one(self):
        spec = scripted_spec(lambda m: "x")
        with pytest.raises(ValueError):
            CriticEnsembleSpec(members=[(spec, 0.6), (spec, 0.3)])

    def test_negative_probability_rejected(self):
        spec = scripted_spec(lambda m: "x")
        with pytest.raises(ValueError, match=">= 0"):
            CriticEnsembleSpec(members=[(spec, 1.5), (spec, -0.5)])

    @pytest.mark.parametrize("endpoint", [
        "stub", "localhost:8080/v1", "ftp://host/v1", "file:///tmp/x", "http://", "http:///v1",
        "http://host:port/v1", "http://host:70000/v1", "http://host:0/v1", "http://host/a b",
        "http://host/\x00", "http://host/\x7f", "http://hôst/v1", " http://host/v1",
        "https://user:pw@host/v1", "http://user@host/v1", "http://@host/v1"])
    def test_a_malformed_http_endpoint_is_refused(self, endpoint):
        # "stub" was accepted, then retried as a transport fault on every call
        with pytest.raises(ValueError, match=r"^http backend needs a model and an http\(s\) URL: "):
            BackendSpec(kind="http", endpoint=endpoint, model="m")

    @pytest.mark.parametrize("endpoint", [
        "http://127.0.0.1:8080/v1/chat/completions", "https://api.example.com/v1/chat/completions",
        "HTTP://host/v1", "http://[::1]:8000/v1", "https://host:65535/v1?x=1%20y"])
    def test_an_http_endpoint_is_accepted(self, endpoint):
        assert BackendSpec(kind="http", endpoint=endpoint, model="m").endpoint == endpoint

    def test_http_requires_a_model(self):
        with pytest.raises(ValueError, match="model"):
            BackendSpec(kind="http", endpoint="http://host/v1")

    @pytest.mark.parametrize("field,value", [
        ("retries", -1), ("timeout_ms", 0), ("timeout_ms", -5)])
    def test_http_bounds_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            BackendSpec(kind="http", endpoint="http://stub", model="m", **{field: value})


class TestScripted:
    def test_scripted_applies_function(self, no_network):
        spec = scripted_spec(lambda m: m[-1].content.upper())
        assert Session().backend(spec).complete(msgs("hello")).content == "HELLO"


def write_transcript(path, records):
    with path.open("w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestReplay:
    def test_replays_recorded_response(self, tmp_path, no_network):
        prompt = msgs("translate this")
        path = tmp_path / "t.jsonl"
        write_transcript(path, [{"request_hash": request_hash("", prompt),
                                 "request": [], "response": "G (a -> b)"}])
        backend = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        assert backend.complete(prompt).content == "G (a -> b)"

    def test_a_response_may_hold_a_raw_next_line(self, tmp_path):
        # U+0085 ends a line for str.splitlines, not for a JSONL record
        prompt = msgs("translate this")
        path = tmp_path / "t.jsonl"
        path.write_text(json.dumps({"request_hash": request_hash("", prompt), "request": [],
                                    "response": "G (a ->\u0085b)"}, ensure_ascii=False) + "\n")
        backend = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        assert backend.complete(prompt).content == "G (a ->\u0085b)"

    def test_miss_fails_loudly(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_transcript(path, [])
        backend = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        with pytest.raises(ReplayMiss):
            backend.complete(msgs("never recorded"))

    def test_repeated_requests_in_recorded_order(self, tmp_path):
        prompt = msgs("again")
        h = request_hash("", prompt)
        path = tmp_path / "t.jsonl"
        write_transcript(path, [{"request_hash": h, "request": [], "response": "first"},
                                {"request_hash": h, "request": [], "response": "second"}])
        backend = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        assert backend.complete(prompt).content == "first"
        assert backend.complete(prompt).content == "second"
        with pytest.raises(ReplayMiss):
            backend.complete(prompt)

    def test_identical_sequences_identical_responses(self, tmp_path):
        prompts = [msgs(f"q{i}") for i in range(5)]
        records = [{"request_hash": request_hash("", p), "request": [],
                    "response": f"r{i}"} for i, p in enumerate(prompts)]
        path = tmp_path / "t.jsonl"
        write_transcript(path, records)
        spec = BackendSpec(kind="replay", transcript_path=str(path))

        def run():
            backend = Session().backend(spec)
            return [backend.complete(p).content for p in prompts]
        assert run() == run() == [f"r{i}" for i in range(5)]

    def test_one_session_replays_one_stream(self, tmp_path):
        """Backends of one session over one transcript pop from the same
        queues, so two roles sharing a model get the recorded order."""
        prompt = msgs("judge")
        h = request_hash("", prompt)
        path = tmp_path / "t.jsonl"
        write_transcript(path, [{"request_hash": h, "request": [], "response": "APPROVED"},
                                {"request_hash": h, "request": [], "response": "REVISE: no"}])
        spec = BackendSpec(kind="replay", transcript_path=str(path))
        session = Session()
        first, second = session.backend(spec), session.backend(spec)
        assert first.complete(prompt).content == "APPROVED"
        assert second.complete(prompt).content == "REVISE: no"
        with pytest.raises(ReplayMiss):
            first.complete(prompt)


class TestRequestHash:
    """The replay key is part of the transcript format: it must stay the
    sha256 of this json.dumps of model and messages."""

    @staticmethod
    def reference(model, messages):
        payload = json.dumps(
            {"model": model,
             "messages": [{"role": m.role, "content": m.content} for m in messages]},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()

    # quotes, backslashes, newlines and tabs, control characters, DEL,
    # non-ASCII, astral-plane text, a lone surrogate and a JSON-looking fragment
    PIECES = ['"', "\\", "\n", "\r\t", "\x00", "\x1f", "\x7f", "é", "ß", "→",
              "中文", "\u2028", "😀", "\U0001d11e", "\ud83d", '{"a":[1]}', "G (a -> b)", " "]

    def random_text(self, rng, allow_empty):
        n = rng.randint(0 if allow_empty else 1, 8)
        return "".join(rng.choice(self.PIECES + ["x", "abc"]) for _ in range(n))

    def test_equals_sorted_compact_json_dumps(self):
        rng = random.Random(12)
        for _ in range(500):
            messages = []
            for _ in range(rng.randint(0, 5)):
                role = rng.choice(("system", "user", "assistant"))
                messages.append(ChatMessage(role, self.random_text(rng, role == "system")))
            model = self.random_text(rng, allow_empty=True)
            assert request_hash(model, messages) == self.reference(model, messages)

    def test_edge_cases(self):
        cases = [("", []), ("", msgs("x")), ("m", [ChatMessage("system", "")]),
                 ("gpt-\u00e9", msgs('say "hi"\\n\n', "😀\x00"))]
        for model, messages in cases:
            assert request_hash(model, messages) == self.reference(model, messages)


class TestSessionRequestHash:
    """A session hashes each distinct opening message once and copies that
    state per request; the key must still be `request_hash`'s."""

    def test_equals_sorted_compact_json_dumps(self):
        rng = random.Random(36)
        pieces = TestRequestHash()
        openings = [ChatMessage("system", pieces.random_text(rng, allow_empty=False))
                    for _ in range(3)] + [ChatMessage("system", "")]
        # the same text opening as another role is another opening
        openings.append(ChatMessage("user", openings[0].content))
        models = ["critic_a", pieces.random_text(rng, allow_empty=True)]
        session = Session()
        for _ in range(500):
            model = rng.choice(models)
            first = rng.choice(openings)
            if rng.random() < 0.3:  # equal to an opening, built apart
                first = ChatMessage(first.role, "".join(list(first.content)))
            if rng.random() < 0.2:  # one-message requests, hashed whole
                messages = [rng.choice([first, *msgs(pieces.random_text(rng, False))])]
            else:
                messages = [first] + [
                    ChatMessage(rng.choice(("user", "assistant")), pieces.random_text(rng, False))
                    for _ in range(rng.randint(1, 3))]
            assert session.request_hash(model, messages) == pieces.reference(model, messages)
        assert session.request_hash("m", []) == pieces.reference("m", [])


class TestRecording:
    def test_record_then_replay(self, tmp_path):
        inner = ScriptedBackend(scripted_spec(lambda m: f"echo:{m[-1].content}"))
        path = tmp_path / "rec.jsonl"
        rec = RecordingBackend(inner, model="", path=path)
        out1 = rec.complete(msgs("one")).content
        replay = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        assert replay.complete(msgs("one")).content == out1

    def test_requests_that_share_an_opening_replay_as_recorded(self, tmp_path):
        rng = random.Random(37)
        replies = itertools.count()
        inner = ScriptedBackend(scripted_spec(lambda m: f"r{next(replies)}:{m[-1].content}"))
        path = tmp_path / "rec.jsonl"
        system = ChatMessage("system", 'Judge "G (a -> b)".\n\u2028é\\')
        requests = []
        for _ in range(60):  # repeats included: each replays in recorded order
            model = rng.choice(["critic", "revisor"])
            user = [ChatMessage("user", rng.choice(["G a", "F b", "中文", "x\ty"]))]
            requests.append((model, [system, *user] if rng.random() < 0.8 else user))
        recorded = [RecordingBackend(inner, model, path).complete(m).content
                    for model, m in requests]
        queues = {}
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            queues.setdefault(rec["request_hash"], []).append(rec["response"])

        session = Session()
        replay = {model: session.backend(BackendSpec(kind="replay", model=model,
                                                     transcript_path=str(path)))
                  for model in ("critic", "revisor")}
        assert session._queues(path.resolve()) == queues
        assert [replay[model].complete(m).content for model, m in requests] == recorded
        assert not any(session._queues(path.resolve()).values())  # every response served

        model, messages = requests[0]
        h = request_hash(model, messages)
        with pytest.raises(ReplayMiss, match=re.escape(
                f"no recorded response for hash {h[:12]} ({messages[-1].content[:120]!r})")):
            replay[model].complete(messages)


OK = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
# breakages whose body is 10 bytes shorter than the length the headers announce
SHORT_BODIES = {"cut": (200, OK), "stall_in_body": (503, b"busy")}


class Loopback(ThreadingHTTPServer):
    """A server on 127.0.0.1 that answers each POST or GET with the next of
    `replies` and records what it received (a GET's body as None). A reply
    is a status (200 with a completion of "ok", any other with the text
    "busy"), a (status, body bytes) pair, a (status, body bytes, headers)
    triple, or one of the breakages "drop" (close without answering),
    "cut" (a 200 whose body stops short of its length), "stall" (answer
    nothing) and "stall_in_body" (a 503 whose body stops part way). A stall
    ends when the server closes, or after 2 s, long past a test's timeout."""

    daemon_threads = False  # server_close joins the handler threads

    def __init__(self):
        super().__init__(("127.0.0.1", 0), LoopbackHandler)
        self.url = f"http://127.0.0.1:{self.server_port}/v1/chat/completions"
        self.replies: list = []
        self.received: list[tuple[str, str, Message, dict | None]] = []
        self.closing = threading.Event()


class LoopbackHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        self.answer(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))

    def do_GET(self):  # a followed redirect
        self.answer(None)

    def answer(self, body):
        self.server.received.append((self.command, self.path, self.headers, body))
        reply = self.server.replies.pop(0)
        if reply == "stall":
            self.server.closing.wait(2)
        if reply in ("drop", "stall"):
            return
        headers: dict[str, str] = {}
        short = isinstance(reply, str) and reply in SHORT_BODIES
        if isinstance(reply, tuple):
            status, data, *more = reply
            headers = more[0] if more else headers
        elif short:
            status, data = SHORT_BODIES[reply]
        else:
            status, data = reply, OK if reply == 200 else b"busy"
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data) + 10 * short))
        self.end_headers()
        self.wfile.write(data)
        if reply == "stall_in_body":
            self.server.closing.wait(2)

    def log_message(self, *args):
        pass


@pytest.fixture
def server():
    httpd = Loopback()
    thread = threading.Thread(target=httpd.serve_forever, args=(0.01,))
    thread.start()
    yield httpd
    httpd.closing.set()
    httpd.shutdown()
    thread.join()
    httpd.server_close()


@pytest.fixture
def sleeps(monkeypatch) -> list[float]:
    """The backoff delays, recorded instead of slept."""
    delays: list[float] = []
    monkeypatch.setattr(gateway.time, "sleep", delays.append)
    return delays


def http_spec(server, **fields) -> BackendSpec:
    return BackendSpec(kind="http", endpoint=server.url, model="m", **fields)


class TestHttp:
    """The HTTP backend against a loopback server: every request, retry and
    failure goes over a real socket."""

    def test_stub_server_body(self, server, monkeypatch):
        monkeypatch.delenv("COGRULES_API_KEY", raising=False)
        server.replies.append((200, json.dumps(
            {"choices": [{"message": {"content": "stubbed"}}]}).encode()))
        spec = http_spec(server, temperature=0.25)
        messages = [ChatMessage("system", "be brief"), ChatMessage("user", "x")]
        assert Session().backend(spec).complete(messages).content == "stubbed"
        [(method, path, headers, body)] = server.received
        assert (method, path) == ("POST", "/v1/chat/completions")
        assert headers["Content-Type"] == "application/json"
        assert body == {"model": "m", "temperature": 0.25,
                        "messages": [{"role": "system", "content": "be brief"},
                                     {"role": "user", "content": "x"}]}
        assert list(body) == ["model", "messages", "temperature"]

    def test_malformed_reply_is_protocol_error(self, server, sleeps):
        bodies = [b'{"unexpected": true}', b"not json", b'{"choices": []}',
                  b'{"choices": [{"message": "ok"}]}', b"\xff\xfe"]
        server.replies.extend((200, body) for body in bodies)
        backend = Session().backend(http_spec(server))
        for _ in bodies:
            with pytest.raises(ProtocolError, match="^malformed completion body: "):
                backend.complete(msgs("x"))
        assert len(server.received) == len(bodies) and sleeps == []

    @pytest.mark.parametrize("content", ["", None])
    def test_empty_content_is_protocol_error(self, server, content):
        server.replies.append((200, json.dumps(
            {"choices": [{"message": {"content": content}}]}).encode()))
        with pytest.raises(ProtocolError, match="^malformed completion body: "):
            Session().backend(http_spec(server)).complete(msgs("x"))

    @pytest.mark.parametrize("content", [5, True, ["G a"], {"text": "G a"}])
    def test_content_that_is_no_string_is_protocol_error(self, server, content):
        # was accepted, and the run died later on `.content.strip()`
        server.replies.append((200, json.dumps(
            {"choices": [{"message": {"content": content}}]}).encode()))
        with pytest.raises(ProtocolError, match="^malformed completion body: content must be "
                           f"a string, not {type(content).__name__}$"):
            Session().backend(http_spec(server)).complete(msgs("x"))

    def test_rate_limit_then_success(self, server, sleeps):
        server.replies += [429, 200]
        assert Session().backend(http_spec(server)).complete(msgs("x")).content == "ok"
        assert len(server.received) == 2
        assert sleeps == [gateway.RETRY_BACKOFF_S]

    def test_backoff_doubles_up_to_cap(self, server, sleeps):
        statuses = [503, 429, 500, 502, 429, 503, 504, 200]
        server.replies += statuses
        spec = http_spec(server, retries=len(statuses) - 1)
        assert Session().backend(spec).complete(msgs("x")).content == "ok"
        assert len(server.received) == len(statuses)
        expected = [min(gateway.RETRY_BACKOFF_S * 2 ** i, gateway.RETRY_BACKOFF_MAX_S)
                    for i in range(len(statuses) - 1)]
        assert sleeps == expected
        assert sleeps[-1] == gateway.RETRY_BACKOFF_MAX_S
        assert all(b in (2 * a, gateway.RETRY_BACKOFF_MAX_S)
                   for a, b in zip(sleeps, sleeps[1:]))

    def test_persistent_server_errors_are_transport_error(self, server, sleeps):
        server.replies += [500, 503, 502, 200]
        with pytest.raises(gateway.TransportError,
                           match="^giving up after 3 attempts: retryable HTTP 502$"):
            Session().backend(http_spec(server, retries=2)).complete(msgs("x"))
        assert len(server.received) == 3
        assert sleeps == [0.5, 1.0]

    def test_zero_retries_is_one_attempt(self, server, sleeps):
        server.replies += [503, 200]
        with pytest.raises(gateway.TransportError, match="after 1 attempts"):
            Session().backend(http_spec(server, retries=0)).complete(msgs("x"))
        assert len(server.received) == 1 and sleeps == []

    def test_client_error_is_not_retried(self, server, sleeps):
        server.replies += [400, 200]
        with pytest.raises(ProtocolError, match="^HTTP 400: busy$"):
            Session().backend(http_spec(server)).complete(msgs("x"))
        assert len(server.received) == 1
        assert sleeps == []

    @pytest.mark.parametrize("status", [201, 204, 304, 401, 404])
    def test_only_200_is_success(self, server, sleeps, status):
        server.replies += [status, 200]
        with pytest.raises(ProtocolError, match=f"^HTTP {status}: "):
            Session().backend(http_spec(server)).complete(msgs("x"))
        assert len(server.received) == 1 and sleeps == []

    def test_an_error_body_is_cut_to_200_characters(self, server):
        server.replies.append((400, "é".encode() * 300))
        with pytest.raises(ProtocolError) as raised:
            Session().backend(http_spec(server)).complete(msgs("x"))
        assert str(raised.value) == "HTTP 400: " + "é" * 200

    @pytest.mark.parametrize("breakage,error", [
        ("drop", "Remote end closed connection without response"),
        ("cut", r"IncompleteRead\(\d+ bytes read, 10 more expected\)"),  # not an OSError
        ("stall", "timed out"), ("stall_in_body", "timed out")],
        ids=["drop", "cut", "stall", "stall_in_body"])
    def test_a_broken_reply_is_retried(self, server, sleeps, breakage, error):
        server.replies += [breakage, 200, breakage]
        spec = http_spec(server, timeout_ms=200)
        assert Session().backend(spec).complete(msgs("x")).content == "ok"
        assert len(server.received) == 2 and sleeps == [gateway.RETRY_BACKOFF_S]
        once = Session().backend(http_spec(server, timeout_ms=200, retries=0))
        with pytest.raises(gateway.TransportError, match=f"^giving up after 1 attempts: {error}$"):
            once.complete(msgs("x"))

    def test_a_transport_exception_is_retried_and_named(self, server, sleeps):
        # the last attempt's failure is named: each earlier one fails otherwise
        server.replies += ["drop", "cut", "stall"]
        spec = http_spec(server, retries=2, timeout_ms=200)
        with pytest.raises(gateway.TransportError,
                           match="^giving up after 3 attempts: timed out$"):
            Session().backend(spec).complete(msgs("x"))
        assert len(server.received) == 3 and sleeps == [0.5, 1.0]

    def test_a_port_without_a_listener_is_a_transport_error(self, sleeps):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        spec = BackendSpec(kind="http", endpoint=f"http://127.0.0.1:{port}/v1", model="m")
        with pytest.raises(gateway.TransportError,
                           match="^giving up after 3 attempts: <urlopen error .*refused"):
            Session().backend(spec).complete(msgs("x"))
        assert sleeps == [0.5, 1.0]

    @pytest.mark.parametrize("key", ["secret", None])
    def test_the_api_key_is_sent_as_a_bearer_token(self, server, monkeypatch, key):
        if key is None:
            monkeypatch.delenv("COGRULES_API_KEY", raising=False)
        else:
            monkeypatch.setenv("COGRULES_API_KEY", key)
        server.replies.append(200)
        assert Session().backend(http_spec(server)).complete(msgs("x")).content == "ok"
        [(_, _, headers, _)] = server.received
        assert headers["Authorization"] == (key and f"Bearer {key}")

    @pytest.mark.parametrize("status", [301, 302, 303])
    def test_the_api_key_is_not_sent_where_a_redirect_points(self, server, monkeypatch, status):
        # the target may be another host, or plain http
        monkeypatch.setenv("COGRULES_API_KEY", "secret")
        server.replies += [(status, b"", {"Location": "/elsewhere"}), 200]
        assert Session().backend(http_spec(server)).complete(msgs("x")).content == "ok"
        [(method, path, headers, _), (method2, path2, headers2, body2)] = server.received
        assert (method, path, headers["Authorization"]) == (
            "POST", "/v1/chat/completions", "Bearer secret")
        assert (method2, path2, headers2["Authorization"], body2) == (
            "GET", "/elsewhere", None, None)

    def test_every_response_is_closed(self, server, sleeps, monkeypatch):
        # an HTTPError is also the open error response; keeping each response
        # alive here shows whether the backend closed it, not the collector
        responses = []

        class Kept(http.client.HTTPResponse):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                responses.append(self)
        monkeypatch.setattr(http.client.HTTPConnection, "response_class", Kept)
        server.replies += [503, "stall_in_body", 400, 200, "stall_in_body", 404]
        backend = Session().backend(http_spec(server, timeout_ms=200))
        with pytest.raises(ProtocolError, match="^HTTP 400"):
            backend.complete(msgs("x"))
        assert backend.complete(msgs("x")).content == "ok"
        with pytest.raises(ProtocolError, match="^HTTP 404"):
            backend.complete(msgs("x"))
        assert len(responses) == 6 and all(r.closed for r in responses)

    def test_gateway_errors_share_one_base(self):
        for cls in (gateway.TransportError, ProtocolError, ReplayMiss):
            assert issubclass(cls, gateway.GatewayError)

    def test_the_network_guard_stops_an_http_call(self, no_network):
        spec = BackendSpec(kind="http", endpoint="http://127.0.0.1:9/v1", model="m")
        with pytest.raises(AssertionError, match="network access attempted"):
            Session().backend(spec).complete(msgs("x"))

    def test_non_http_never_touches_network(self, no_network):
        spec = scripted_spec(lambda m: "offline")
        assert Session().backend(spec).complete(msgs("x")).content == "offline"
