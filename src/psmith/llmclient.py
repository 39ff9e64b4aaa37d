"""Generation backend: live HTTP, content-addressed cache, deterministic replay.

All nondeterminism in the toolkit lives behind this boundary. Tests and
reproduction runs use Replay mode, which never touches the network.

Environment: ``PSMITH_API_BASE``, ``PSMITH_MODEL``, ``PSMITH_API_KEY``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import BudgetRefused, RateLimited, ReplayMiss, TransportError
from .promptforge.budget import count_tokens

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

    @property
    def key(self) -> str:
        payload = json.dumps(
            {"model": self.model, "params": self.params(), "prompt": self.prompt},
            sort_keys=True, ensure_ascii=False,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def prompt_digest(self) -> str:
        return hashlib.sha256(self.prompt.encode("utf-8")).hexdigest()


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


# --- replay / cache stores ----------------------------------------------------

class ReplayStore:
    """Newline-delimited records {key, model, params, prompt_digest, completions}."""

    def __init__(self, records: dict[str, list[str]] | None = None):
        self._records: dict[str, list[str]] = dict(records or {})

    @classmethod
    def load(cls, path: str | Path) -> "ReplayStore":
        records: dict[str, list[str]] = {}
        path = Path(path)
        if path.exists():
            with open(path, encoding="utf-8") as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    records[record["key"]] = list(record["completions"])
        return cls(records)

    def get(self, key: str) -> list[str] | None:
        return self._records.get(key)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records


def write_records(path: str | Path, records: Iterable[dict], append: bool = True) -> None:
    """The one writer of replay records: one sorted-key JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a" if append else "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")


def _record(request: GenerationRequest, completions: Sequence[str]) -> dict:
    return {
        "key": request.key,
        "model": request.model,
        "params": request.params(),
        "prompt_digest": request.prompt_digest,
        "completions": list(completions),
    }


def append_record(path: str | Path, request: GenerationRequest,
                  completions: Sequence[str]) -> None:
    write_records(path, [_record(request, completions)])


# --- transports -----------------------------------------------------------------

def http_transport(url: str, payload: dict, headers: dict, timeout: float):
    """Default live transport: one POST to an OpenAI-compatible endpoint.

    Returns (status_code, parsed json, retry-after seconds or None).
    """
    import requests

    response = requests.post(url, json=payload, headers=headers, timeout=timeout)
    retry_after = response.headers.get("Retry-After")
    try:
        body = response.json()
    except ValueError:
        body = {"error": response.text[:500]}
    return response.status_code, body, float(retry_after) if retry_after else None


def forbidden_transport(url, payload, headers, timeout):
    """Transport that fails the test if anything tries the network."""
    raise AssertionError("network transport invoked in replay mode")


# --- the client -------------------------------------------------------------------

class LlmClient:
    """Uniform generation front-end.

    Modes: ``live`` (HTTP with retry/backoff under a spend cap), ``cache``
    (live calls memoized on a content hash of model+params+prompt), and
    ``replay`` (recorded completions only; zero network operations).
    One client may serve concurrent workers.
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
        self.mode = mode
        self.api_surface = api_surface
        self.replay_store = replay_store
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.api_base = (api_base or os.environ.get("PSMITH_API_BASE", "")).rstrip("/")
        self.api_key = api_key or os.environ.get("PSMITH_API_KEY", "")
        self.model = model or default_model()
        self.spend_cap = spend_cap
        self.transport = transport
        self.record_path = Path(record_path) if record_path else None
        self._lock = threading.Lock()
        # tokens spent, plus the estimates of live calls still in flight
        self._spent_tokens = 0
        if mode == "replay" and self.replay_store is None:
            raise ValueError("replay mode needs a replay store")

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
        if self.mode == "replay":
            result = self._from_replay(request)
        elif self.mode == "cache":
            result = self._from_cache(request)
        else:
            result = self._live(request)
        if self.record_path is not None:
            with self._lock:
                append_record(self.record_path, request, result.completions)
        return result

    # -- backends --

    def _from_replay(self, request: GenerationRequest) -> GenerationResult:
        completions = self.replay_store.get(request.key)
        if completions is None:
            raise ReplayMiss(request.key)
        return GenerationResult(tuple(completions), self._usage(request, completions), "replay")

    def _cache_file(self, key: str) -> Path:
        return self.cache_dir / f"{key}.json"

    def _from_cache(self, request: GenerationRequest) -> GenerationResult:
        if self.cache_dir is None:
            raise ValueError("cache mode needs a cache directory")
        path = self._cache_file(request.key)
        if path.exists():
            record = json.loads(path.read_text(encoding="utf-8"))
            completions = record["completions"]
            return GenerationResult(tuple(completions), self._usage(request, completions), "cache")
        result = self._live(request)
        # a cache file is a one-record replay store, written whole then renamed
        tmp = path.with_suffix(".tmp")
        write_records(tmp, [_record(request, result.completions)], append=False)
        tmp.replace(path)
        return result

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
            except Exception as exc:  # noqa: BLE001 - transport errors are retryable
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


def replay_client(store_path: str | Path, model: str | None = None) -> LlmClient:
    """Convenience constructor: replay-only client whose transport refuses
    any network call outright."""
    return LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                     model=model, transport=forbidden_transport)
