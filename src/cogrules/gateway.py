"""Chat-completion gateway: backends with one `complete` method over HTTP
(OpenAI-style /v1/chat/completions), deterministic JSONL replay, and
in-process scripted functions, all built by one `Session` per run.
Backends keep unlocked state and are meant for one thread.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

from .knowledge import read_jsonl


@dataclass(frozen=True)
class ChatMessage:
    role: str  # system | user | assistant
    content: str

    def __post_init__(self):
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role {self.role!r}")
        if not isinstance(self.content, str):
            raise ValueError(f"content must be a string, not {type(self.content).__name__}")
        if self.role in ("user", "assistant") and not self.content:
            raise ValueError("user/assistant content must be nonempty")


ScriptFn = Callable[[list[ChatMessage]], str]

# scripted backends referencable by name from JSON configs
SCRIPT_REGISTRY: dict[str, ScriptFn] = {}


def register_script(name: str, fn: ScriptFn) -> None:
    SCRIPT_REGISTRY[name] = fn


@dataclass(frozen=True)
class BackendSpec:
    kind: str  # http | replay | scripted
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    timeout_ms: int = 30_000
    retries: int = 2
    transcript_path: str = ""
    script: str = ""  # SCRIPT_REGISTRY key for scripted backends
    record_path: str = ""  # when set, append replayable records here

    def __post_init__(self):
        if self.kind not in ("http", "replay", "scripted"):
            raise ValueError(f"unknown backend kind {self.kind!r}")
        if self.kind == "http":
            url = urlsplit(self.endpoint)
            try:
                port_ok = url.port != 0  # None when absent
            except ValueError:  # not a number, or past 65535
                port_ok = False
            # http.client takes a user part for the host; it sends printable ASCII, no space
            if not (self.model and url.scheme in ("http", "https") and url.hostname and port_ok
                    and url.username is None and all("!" <= c <= "~" for c in self.endpoint)):
                raise ValueError(f"http backend needs a model and an http(s) URL: {self.endpoint!r}")
        if self.kind == "replay" and not self.transcript_path:
            raise ValueError("replay backend requires a transcript path")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if self.timeout_ms <= 0:
            raise ValueError("timeout_ms must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")


class GatewayError(RuntimeError):
    """A model call failed: transport, protocol or replay."""


class TransportError(GatewayError):
    pass


class ReplayMiss(GatewayError):
    pass


class ProtocolError(GatewayError):
    pass


def _message_json(m: ChatMessage) -> str:
    return f'{{"content":{_json_string(m.content)},"role":{_json_string(m.role)}}}'


def request_hash(model: str, messages: list[ChatMessage]) -> str:
    """The replay key: sha256 of the compact, sorted-key, ASCII-escaped JSON
    `{"messages":[{"content":…,"role":…},…],"model":…}`, the bytes
    `json.dumps(..., sort_keys=True, separators=(",", ":"))` writes, built
    here by concatenation."""
    body = ",".join(map(_message_json, messages))
    payload = f'{{"messages":[{body}],"model":{_json_string(model)}}}'
    return hashlib.sha256(payload.encode()).hexdigest()


class Backend:
    def complete(self, messages: list[ChatMessage]) -> ChatMessage:
        raise NotImplementedError


# delay before the first retry; each further retry doubles it, up to the cap
RETRY_BACKOFF_S = 0.5
RETRY_BACKOFF_MAX_S = 8.0


class HttpBackend(Backend):
    """Retries a transport failure, a 5xx or a 429 up to `spec.retries`
    times, sleeping with bounded exponential backoff before each retry."""

    def __init__(self, spec: BackendSpec):
        self.spec = spec

    def complete(self, messages: list[ChatMessage]) -> ChatMessage:
        from http.client import HTTPException  # loaded only by runs that make HTTP calls
        from urllib.error import HTTPError
        from urllib.request import Request, urlopen

        body = {
            "model": self.spec.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.spec.temperature,
        }
        request = Request(self.spec.endpoint, json.dumps(body).encode(),
                          {"Content-Type": "application/json"})  # a POST
        if api_key := os.environ.get("COGRULES_API_KEY"):
            # sent to the endpoint only, not to where a redirect points
            request.add_unredirected_header("Authorization", f"Bearer {api_key}")
        last_err: Exception | None = None
        for attempt in range(self.spec.retries + 1):
            if attempt:
                time.sleep(min(RETRY_BACKOFF_S * 2 ** (attempt - 1), RETRY_BACKOFF_MAX_S))
            try:
                try:
                    with urlopen(request, timeout=self.spec.timeout_ms / 1000.0) as resp:
                        status, reply = resp.status, resp.read()
                except HTTPError as e:  # a status urllib does not pass; holds the open response
                    with e:
                        status, reply = e.code, e.read()
            except (OSError, HTTPException) as e:  # IncompleteRead is no OSError
                last_err = e
                continue
            if status >= 500 or status == 429:
                last_err = TransportError(f"retryable HTTP {status}")
                continue
            if status != 200:
                raise ProtocolError(f"HTTP {status}: {reply.decode(errors='replace')[:200]}")
            try:
                return ChatMessage("assistant", json.loads(reply)["choices"][0]["message"]["content"])
            except (ValueError, KeyError, IndexError, TypeError) as e:
                raise ProtocolError(f"malformed completion body: {e}") from e
        raise TransportError(f"giving up after {self.spec.retries + 1} attempts: {last_err}")


class ReplayBackend(Backend):
    """Serves recorded responses keyed by request hash, in recorded order
    for repeated identical requests. Misses fail loudly. `queues` is the
    transcript's parse, shared with every replay backend of the session,
    and `key(model, messages)` is a request's `request_hash`."""

    def __init__(self, spec: BackendSpec, queues: dict[str, list[str]],
                 key: Callable[[str, list[ChatMessage]], str]):
        self.spec = spec
        self._queues = queues
        self._key = key

    def complete(self, messages: list[ChatMessage]) -> ChatMessage:
        h = self._key(self.spec.model, messages)
        queue = self._queues.get(h)
        if not queue:
            preview = messages[-1].content[:120]
            raise ReplayMiss(f"no recorded response for hash {h[:12]} ({preview!r})")
        return ChatMessage("assistant", queue.pop(0))


class ScriptedBackend(Backend):
    def __init__(self, spec: BackendSpec):
        if spec.script not in SCRIPT_REGISTRY:
            raise ValueError(f"unregistered script {spec.script!r}")
        self.spec = spec
        self.fn = SCRIPT_REGISTRY[spec.script]

    def complete(self, messages: list[ChatMessage]) -> ChatMessage:
        return ChatMessage("assistant", self.fn(messages))


class RecordingBackend(Backend):
    """Wraps another backend, appending (hash, request, response) JSONL
    records suitable for later replay."""

    def __init__(self, inner: Backend, model: str, path: str | Path):
        self.inner = inner
        self.model = model
        self.path = Path(path)

    def complete(self, messages: list[ChatMessage]) -> ChatMessage:
        reply = self.inner.complete(messages)
        rec = {
            "request_hash": request_hash(self.model, messages),
            "request": [{"role": m.role, "content": m.content} for m in messages],
            "response": reply.content,
        }
        with self.path.open("a") as fh:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return reply


class Session:
    """Builds every backend of one run. Each transcript is read once, and
    all replay backends over it pop from the same queues, so a run replays
    its calls in the order they were recorded, even when roles share a
    model name. Replay keys come from the session's `request_hash`."""

    def __init__(self):
        self._transcripts: dict[Path, dict[str, list[str]]] = {}
        # (role, content) of a request's first message -> sha256 of the key's bytes up to it
        self._openings: dict[tuple[str, str], hashlib._Hash] = {}

    def request_hash(self, model: str, messages: list[ChatMessage]) -> str:
        """`request_hash(model, messages)`. The hash of a key's bytes up to the
        first message of a request of two or more is computed once per distinct
        first message, and copied for each request that opens with it."""
        if len(messages) < 2:
            return request_hash(model, messages)
        first = messages[0]
        opening = self._openings.get((first.role, first.content))
        if opening is None:
            opening = self._openings[first.role, first.content] = hashlib.sha256(
                f'{{"messages":[{_message_json(first)}'.encode())
        state = opening.copy()
        rest = "".join([f",{_message_json(m)}" for m in messages[1:]])
        state.update(f'{rest}],"model":{_json_string(model)}}}'.encode())
        return state.hexdigest()

    def _queues(self, path: Path) -> dict[str, list[str]]:
        if path not in self._transcripts:
            queues: dict[str, list[str]] = {}
            for n, rec in read_jsonl(path):
                if not (isinstance(rec, dict) and type(rec.get("request_hash")) is str
                        and type(rec.get("response")) is str):
                    raise ValueError(
                        f"{path} line {n}: needs strings 'request_hash' and 'response'")
                if not rec["response"]:
                    raise ValueError(f"{path} line {n}: 'response' may not be empty")
                queues.setdefault(rec["request_hash"], []).append(rec["response"])
            self._transcripts[path] = queues
        return self._transcripts[path]

    def backend(self, spec: BackendSpec) -> Backend:
        backend: Backend
        if spec.kind == "http":
            backend = HttpBackend(spec)
        elif spec.kind == "replay":
            backend = ReplayBackend(spec, self._queues(Path(spec.transcript_path).resolve()),
                                    self.request_hash)
        else:
            backend = ScriptedBackend(spec)
        if spec.record_path:
            backend = RecordingBackend(backend, spec.model, spec.record_path)
        return backend


@dataclass
class CriticEnsembleSpec:
    members: list[tuple[BackendSpec, float]]
    seed: int = 0

    def __post_init__(self):
        if any(p < 0 for _, p in self.members):
            raise ValueError("selection probabilities must be >= 0")
        total = sum(p for _, p in self.members)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"selection probabilities sum to {total}, expected 1")
