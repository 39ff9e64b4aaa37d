"""Generation backend: live HTTP, and stored completions for cache and replay.

All nondeterminism in the toolkit lives behind this boundary. Tests and
reproduction runs use Replay mode, which never touches the network.
Generations are stored in one format, the replay store: JSON lines keyed by
a hash of model+params+prompt, appended one record at a time.

Environment: ``PSMITH_API_BASE``, ``PSMITH_MODEL``, ``PSMITH_API_KEY``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BudgetRefused, RateLimited, ReplayMiss, TransportError
from .promptforge.budget import count_tokens
from .records import read_records, write_records

logger = logging.getLogger(__name__)

DEFAULT_STOP = ["#", ";", "\n\n"]
MAX_RETRIES = 4
# conservative live-mode spend cap (total tokens per client instance)
DEFAULT_SPEND_CAP = 200_000


def default_model() -> str:
    return os.environ.get("PSMITH_MODEL", "offline-model")


@dataclass(frozen=True)
class GenerationRequest:
    prompt: str
    model: str
    temperature: float = 0.0
    max_output_tokens: int = 256
    n_samples: int = 1
    stop: tuple[str, ...] = tuple(DEFAULT_STOP)

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be at least 1")

    def params(self) -> dict:
        return {
            "temperature": self.temperature,
            "max_output_tokens": self.max_output_tokens,
            "n_samples": self.n_samples,
            "stop": list(self.stop),
        }

    def payload(self) -> str:
        """What the key hashes: model, parameters and prompt as sorted-key
        JSON, the prompt last."""
        return json.dumps(
            {"model": self.model, "params": self.params(), "prompt": self.prompt},
            sort_keys=True, ensure_ascii=False,
        )

    @cached_property
    def key(self) -> str:
        return hashlib.sha256(self.payload().encode("utf-8")).hexdigest()

    @cached_property
    def prompt_digest(self) -> str:
        return hashlib.sha256(self.prompt.encode("utf-8")).hexdigest()


def _escaped(text: str) -> str:
    """*text* as the body of a JSON string, as the key's payload holds it."""
    return json.dumps(text, ensure_ascii=False)[1:-1]


class SharedPrefix:
    """Requests like *template* whose prompts all open with *prefix*. The
    sha256 state of their keys' payload through the prefix is computed once,
    and each request's key hashes only what follows it. The keys are those
    of ``GenerationRequest.key`` byte for byte: the prompt ends the payload,
    and JSON escapes a string one character at a time."""

    def __init__(self, template: GenerationRequest, prefix: str):
        self.template = replace(template, prompt="")
        self.prefix = prefix
        head = self.template.payload()[:-2]  # cut the empty prompt's closing '"}'
        self._state = hashlib.sha256((head + _escaped(prefix)).encode("utf-8"))

    def request(self, suffix: str) -> GenerationRequest:
        request = replace(self.template, prompt=self.prefix + suffix)
        state = self._state.copy()
        state.update((_escaped(suffix) + '"}').encode("utf-8"))
        request.__dict__["key"] = state.hexdigest()  # the cached property's slot
        return request


@dataclass(frozen=True)
class GenerationResult:
    completions: tuple[str, ...]
    usage: tuple[int, int]  # (prompt tokens, completion tokens)
    source: str             # live | cache | replay

    def __post_init__(self):
        if not self.completions:
            raise ValueError("a successful generation has at least one completion")

    @property
    def text(self) -> str:
        return self.completions[0]


# the generation store of a cache directory
STORE_NAME = "store.jsonl"


def _store_record(key: str, completions: tuple[str, ...], **_) -> tuple[str, tuple[str, ...]]:
    if not completions:
        raise ValueError("bad value [] for 'completions'")
    return key, completions


class ReplayStore:
    """Stored completions by request key, from records {key, model, params,
    prompt_digest, completions}. The first record of a key wins, so stores
    merge by concatenation."""

    def __init__(self, records: Iterable[tuple[str, Sequence[str]]] = ()):
        self._records: dict[str, list[str]] = {}
        for key, completions in records:
            self.add(key, completions)

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        """The store a file holds, read without writing to it."""
        return cls(read_records(path, _store_record, torn="skip"))

    def add(self, key: str, completions: Sequence[str]) -> None:
        self._records.setdefault(key, list(completions))

    def get(self, key: str) -> list[str] | None:
        return self._records.get(key)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records


def _record(request: GenerationRequest, completions: Sequence[str]) -> dict:
    return {
        "key": request.key,
        "model": request.model,
        "params": request.params(),
        "prompt_digest": request.prompt_digest,
        "completions": list(completions),
    }


# --- transports -----------------------------------------------------------------

def http_transport(url: str, payload: dict, headers: dict, timeout: float):
    """Default live transport: one POST to an OpenAI-compatible endpoint.

    Returns (status_code, parsed json, retry-after seconds or None).
    """
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    try:
        retry_after = float(response.headers.get("Retry-After") or "")
    except ValueError:
        retry_after = None  # absent, or an HTTP-date
    try:
        body = response.json()
    except ValueError:
        body = {"error": response.text[:500]}
    return response.status_code, body, retry_after


def forbidden_transport(url, payload, headers, timeout):
    """Transport that fails the test if anything tries the network."""
    raise AssertionError("network transport invoked in replay mode")


# --- the client -------------------------------------------------------------------

class LlmClient:
    """Uniform generation front-end: stored completions, else a live call,
    else ``ReplayMiss``. Modes: ``live`` (HTTP with retry/backoff under a
    spend cap), ``cache`` (the store ``<cache_dir>/store.jsonl``, loaded here
    and appended each live result) and ``replay`` (``replay_store`` only).
    ``record_path`` appends every generation to a store of its own. One
    client may serve concurrent workers; it appends under its lock, and in
    cache mode makes one live call per missing key, however many workers
    ask for it at once.
    """

    def __init__(self, mode: str = "replay",
                 replay_store: ReplayStore | None = None,
                 cache_dir: str | Path | None = None,
                 api_base: str | None = None,
                 api_key: str | None = None,
                 model: str | None = None,
                 spend_cap: int = DEFAULT_SPEND_CAP,
                 transport: Callable = http_transport,
                 record_path: str | Path | None = None,
                 api_surface: str = "completions"):
        if mode not in ("live", "cache", "replay"):
            raise ValueError(f"unknown client mode {mode!r}")
        if api_surface not in ("completions", "chat"):
            raise ValueError(f"unknown api surface {api_surface!r}")
        if mode == "replay" and replay_store is None:
            raise ValueError("replay mode needs a replay store")
        if mode == "cache" and not cache_dir:
            raise ValueError("cache mode needs a cache directory")
        self.mode = mode
        self.api_surface = api_surface
        self.cache_path = Path(cache_dir) / STORE_NAME if mode == "cache" else None
        if self.cache_path is not None:  # cut a torn last line before appending
            replay_store = ReplayStore(read_records(self.cache_path, _store_record, torn="cut"))
        self.replay_store = replay_store if mode != "live" else None
        self.api_base = (api_base or os.environ.get("PSMITH_API_BASE", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("PSMITH_API_KEY", "")
        self.model = model or default_model()
        self.spend_cap = spend_cap
        self.transport = transport
        self.record_path = Path(record_path) if record_path else None
        self._lock = threading.Lock()
        # cache mode: the keys whose live call is in flight, each with the
        # event that its call has ended
        self._calls: dict[str, threading.Event] = {}
        # tokens spent, plus the estimates of live calls still in flight
        self._spent_tokens = 0

    # -- public API --

    def request(self, prompt: str, *, max_output_tokens: int = 256,
                n_samples: int = 1,
                stop: Sequence[str] | None = None) -> GenerationRequest:
        return GenerationRequest(
            prompt=prompt,
            model=self.model,
            max_output_tokens=max_output_tokens,
            n_samples=n_samples,
            stop=tuple(DEFAULT_STOP if stop is None else stop),
        )

    def generate(self, request: GenerationRequest) -> GenerationResult:
        if self.mode == "live":
            result = self._live(request)
        elif self.mode == "cache":
            result = self._cached(request)
        else:
            result = self._stored(request)
            if result is None:
                raise ReplayMiss(request.key)
        if self.record_path is not None:
            record = _record(request, result.completions)
            with self._lock:
                write_records(self.record_path, [record], append=True)
        return result

    def _stored(self, request: GenerationRequest) -> GenerationResult | None:
        stored = self.replay_store.get(request.key)
        if stored is None:
            return None
        return GenerationResult(tuple(stored), self._usage(request, stored), self.mode)

    def _cached(self, request: GenerationRequest) -> GenerationResult:
        """The stored result, else a live one appended to the store. The
        first request for a missing key makes the call; concurrent requests
        for it wait for that call, then read the store (and if the call
        failed, the first of them calls again)."""
        key = request.key
        while True:
            with self._lock:
                stored = self._stored(request)
                if stored is not None:
                    return stored
                call = self._calls.get(key)
                if call is None:
                    call = self._calls[key] = threading.Event()
                    break
            call.wait()
        try:
            result = self._live(request)
            record = _record(request, result.completions)
            with self._lock:
                write_records(self.cache_path, [record], append=True)
                self.replay_store.add(key, result.completions)
            return result
        finally:
            with self._lock:
                del self._calls[key]
            call.set()

    # -- backends --

    def _live(self, request: GenerationRequest) -> GenerationResult:
        """Reserve the request's estimate against the spend cap, so calls in
        flight on other workers count, then settle it to the reported usage
        (to nothing if the call fails)."""
        estimate = count_tokens(request.prompt) \
            + request.max_output_tokens * request.n_samples
        with self._lock:
            if self._spent_tokens + estimate > self.spend_cap:
                raise BudgetRefused(
                    f"request (~{estimate} tokens) would exceed the spend cap "
                    f"({self._spent_tokens}/{self.spend_cap} spent or reserved)")
            self._spent_tokens += estimate
        used = 0
        try:
            result = self._post(request)
            used = sum(result.usage)
            return result
        finally:
            with self._lock:
                self._spent_tokens += used - estimate

    def _post(self, request: GenerationRequest) -> GenerationResult:
        if self.transport is http_transport and not self.api_base:
            raise TransportError("no API base for a live call: set PSMITH_API_BASE")
        payload = {
            "model": request.model,
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
            "n": request.n_samples,
            "stop": list(request.stop) or None,
        }
        if self.api_surface == "chat":
            payload["messages"] = [{"role": "user", "content": request.prompt}]
            url = f"{self.api_base}/chat/completions"
        else:
            payload["prompt"] = request.prompt
            url = f"{self.api_base}/completions"
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        backoff = 1.0
        last_error: Exception | None = None
        for attempt in range(MAX_RETRIES + 1):
            if attempt:
                time.sleep(backoff)
                backoff *= 2
            try:
                status, body, retry_after = self.transport(url, payload, headers, 120.0)
            except OSError as exc:  # requests' errors too; anything else is a bug
                last_error = exc
                logger.warning("transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if status == 429:
                last_error = RateLimited(str(body)[:200])
                if retry_after:
                    backoff = max(backoff, retry_after)
                logger.warning("rate limited; backing off %.1fs", backoff)
                continue
            if status >= 500:
                last_error = TransportError(f"server error {status}")
                continue
            if status != 200:
                raise TransportError(f"endpoint returned {status}: {str(body)[:200]}")
            if self.api_surface == "chat":
                completions = tuple(
                    choice.get("message", {}).get("content", "")
                    for choice in body.get("choices", []))
            else:
                completions = tuple(
                    choice.get("text", "") for choice in body.get("choices", []))
            if not completions:
                raise TransportError(f"endpoint returned no choices: {str(body)[:200]}")
            usage = body.get("usage", {})
            used = (usage.get("prompt_tokens", count_tokens(request.prompt)),
                    usage.get("completion_tokens",
                              sum(count_tokens(c) for c in completions)))
            return GenerationResult(completions, used, "live")
        if isinstance(last_error, RateLimited):
            raise last_error
        raise TransportError(f"giving up after {MAX_RETRIES + 1} attempts: {last_error}")

    @staticmethod
    def _usage(request: GenerationRequest, completions: Sequence[str]) -> tuple[int, int]:
        return (count_tokens(request.prompt),
                sum(count_tokens(c) for c in completions))

