import hashlib
import json
import random

import pytest
import requests

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


class TestRecording:
    def test_record_then_replay(self, tmp_path):
        inner = ScriptedBackend(scripted_spec(lambda m: f"echo:{m[-1].content}"))
        path = tmp_path / "rec.jsonl"
        rec = RecordingBackend(inner, model="", path=path)
        out1 = rec.complete(msgs("one")).content
        replay = Session().backend(BackendSpec(kind="replay", transcript_path=str(path)))
        assert replay.complete(msgs("one")).content == out1


class TestHttp:
    def test_stub_server_body(self, monkeypatch):
        class Resp:
            status_code = 200
            text = ""
            def json(self):
                return {"choices": [{"message": {"content": "stubbed"}}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        spec = BackendSpec(kind="http", endpoint="http://stub/v1/chat/completions",
                           model="m")
        assert Session().backend(spec).complete(msgs("x")).content == "stubbed"

    def test_malformed_reply_is_protocol_error(self, monkeypatch):
        class Resp:
            status_code = 200
            text = ""
            def json(self):
                return {"unexpected": True}
        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m")
        with pytest.raises(ProtocolError):
            Session().backend(spec).complete(msgs("x"))

    @pytest.mark.parametrize("content", ["", None])
    def test_empty_content_is_protocol_error(self, monkeypatch, content):
        class Resp:
            status_code = 200
            text = ""
            def json(self):
                return {"choices": [{"message": {"content": content}}]}
        monkeypatch.setattr(requests, "post", lambda *a, **k: Resp())
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m")
        with pytest.raises(ProtocolError):
            Session().backend(spec).complete(msgs("x"))

    @staticmethod
    def _serve(monkeypatch, statuses):
        """requests.post answers with each status in turn; time.sleep only
        records its delays. Returns (posted statuses, sleeps)."""
        class Resp:
            text = "busy"
            def __init__(self, status):
                self.status_code = status
            def json(self):
                return {"choices": [{"message": {"content": "ok"}}]}
        replies = iter(statuses)
        posted, sleeps = [], []

        def post(*a, **k):
            posted.append(next(replies))
            return Resp(posted[-1])
        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
        return posted, sleeps

    def test_rate_limit_then_success(self, monkeypatch):
        posted, sleeps = self._serve(monkeypatch, [429, 200])
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m")
        assert Session().backend(spec).complete(msgs("x")).content == "ok"
        assert posted == [429, 200]
        assert sleeps == [gateway.RETRY_BACKOFF_S]

    def test_backoff_doubles_up_to_cap(self, monkeypatch):
        statuses = [503, 429, 500, 502, 429, 503, 504, 200]
        posted, sleeps = self._serve(monkeypatch, statuses)
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m",
                           retries=len(statuses) - 1)
        assert Session().backend(spec).complete(msgs("x")).content == "ok"
        assert posted == statuses
        expected = [min(gateway.RETRY_BACKOFF_S * 2 ** i, gateway.RETRY_BACKOFF_MAX_S)
                    for i in range(len(statuses) - 1)]
        assert sleeps == expected
        assert sleeps[-1] == gateway.RETRY_BACKOFF_MAX_S
        assert all(b in (2 * a, gateway.RETRY_BACKOFF_MAX_S)
                   for a, b in zip(sleeps, sleeps[1:]))

    def test_persistent_server_errors_are_transport_error(self, monkeypatch):
        posted, sleeps = self._serve(monkeypatch, [500, 503, 502, 200])
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m", retries=2)
        with pytest.raises(gateway.TransportError):
            Session().backend(spec).complete(msgs("x"))
        assert posted == [500, 503, 502]
        assert len(sleeps) == 2

    def test_zero_retries_is_one_attempt(self, monkeypatch):
        posted, sleeps = self._serve(monkeypatch, [503, 200])
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m", retries=0)
        with pytest.raises(gateway.TransportError, match="after 1 attempts"):
            Session().backend(spec).complete(msgs("x"))
        assert posted == [503] and sleeps == []

    def test_client_error_is_not_retried(self, monkeypatch):
        posted, sleeps = self._serve(monkeypatch, [400, 200])
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m")
        with pytest.raises(ProtocolError):
            Session().backend(spec).complete(msgs("x"))
        assert posted == [400]
        assert sleeps == []

    def test_a_transport_exception_is_retried_and_named(self, monkeypatch):
        attempts, sleeps = [], []

        def post(*a, **k):
            attempts.append(k["timeout"])
            raise requests.ConnectionError(f"refused {len(attempts)}")
        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(gateway.time, "sleep", sleeps.append)
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m", retries=2)
        with pytest.raises(gateway.TransportError,
                           match="^giving up after 3 attempts: refused 3$"):
            Session().backend(spec).complete(msgs("x"))
        assert len(attempts) == 3 and len(sleeps) == 2

    @pytest.mark.parametrize("key", ["secret", None])
    def test_the_api_key_is_sent_as_a_bearer_token(self, monkeypatch, key):
        headers = []

        class Resp:
            status_code = 200
            def json(self):
                return {"choices": [{"message": {"content": "ok"}}]}

        def post(*a, **k):
            headers.append(k["headers"])
            return Resp()
        monkeypatch.setattr(requests, "post", post)
        if key is None:
            monkeypatch.delenv("COGRULES_API_KEY", raising=False)
        else:
            monkeypatch.setenv("COGRULES_API_KEY", key)
        spec = BackendSpec(kind="http", endpoint="http://stub", model="m")
        assert Session().backend(spec).complete(msgs("x")).content == "ok"
        assert headers[0].get("Authorization") == (key and f"Bearer {key}")

    def test_gateway_errors_share_one_base(self):
        for cls in (gateway.TransportError, ProtocolError, ReplayMiss):
            assert issubclass(cls, gateway.GatewayError)

    def test_non_http_never_touches_network(self, no_network):
        spec = scripted_spec(lambda m: "offline")
        assert Session().backend(spec).complete(msgs("x")).content == "offline"
