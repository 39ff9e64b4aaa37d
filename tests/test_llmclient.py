from __future__ import annotations

import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixturelib import append_record, replay_client
from psmith import llmclient
from psmith.errors import BudgetRefused, RateLimited, ReplayMiss, TransportError
from psmith.llmclient import (
    GenerationRequest,
    GenerationResult,
    LlmClient,
    ReplayStore,
    SharedPrefix,
    forbidden_transport,
)


def make_request(prompt="SELECT cue prompt", **kwargs) -> GenerationRequest:
    return GenerationRequest(prompt=prompt, model="test-model", **kwargs)


def test_request_validation():
    with pytest.raises(ValueError):
        make_request(temperature=-1)
    with pytest.raises(ValueError):
        make_request(n_samples=0)


def test_key_is_stable_and_binds_all_parts():
    base = make_request()
    assert base.key == make_request().key
    assert base.key != make_request(prompt="other").key
    assert base.key != make_request(temperature=0.5).key
    assert base.key != GenerationRequest(prompt=base.prompt, model="another").key
    assert len(base.key) == 64  # sha-256 hex


@settings(max_examples=300, deadline=None)
@given(prefix=st.text(max_size=60), suffixes=st.lists(st.text(max_size=30), max_size=4),
       stop=st.lists(st.text(max_size=3), max_size=2), model=st.text(max_size=8))
def test_shared_prefix_keys_are_the_whole_prompt_keys(prefix, suffixes, stop, model):
    shared = SharedPrefix(GenerationRequest(prompt="", model=model, stop=tuple(stop)),
                          prefix)
    for suffix in suffixes:
        request = shared.request(suffix)
        whole = GenerationRequest(prompt=prefix + suffix, model=model, stop=tuple(stop))
        assert request == whole
        assert request.key == whole.key


def test_result_requires_completions():
    with pytest.raises(ValueError):
        GenerationResult((), (0, 0), "replay")


# --- replay mode ----------------------------------------------------------------

def test_replay_lookup(tmp_path):
    request = make_request()
    store_path = tmp_path / "store.jsonl"
    append_record(store_path, request, ["SELECT 1"])
    client = replay_client(store_path)
    result = client.generate(request)
    assert result.completions == ("SELECT 1",)
    assert result.source == "replay"


def test_replay_miss(tmp_path):
    store_path = tmp_path / "store.jsonl"
    store_path.write_text("")
    client = replay_client(store_path)
    with pytest.raises(ReplayMiss):
        client.generate(make_request())


def test_replay_never_touches_network(tmp_path):
    request = make_request()
    store_path = tmp_path / "store.jsonl"
    append_record(store_path, request, ["SELECT 1"])
    client = LlmClient(mode="replay", replay_store=ReplayStore.load(store_path),
                       transport=forbidden_transport, model="test-model")
    client.generate(request)  # must not raise the transport assertion


def test_replay_mode_requires_store():
    with pytest.raises(ValueError):
        LlmClient(mode="replay")


def test_store_round_trip(tmp_path):
    request = make_request()
    path = tmp_path / "session.jsonl"
    append_record(path, request, ["SELECT 42"])
    store = ReplayStore.load(path)
    assert store.get(request.key) == ["SELECT 42"]
    record = json.loads(path.read_text().strip())
    assert set(record) == {"key", "model", "params", "prompt_digest", "completions"}


# --- cache mode -------------------------------------------------------------------

def fake_transport(completions):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload)
        return 200, {
            "choices": [{"text": c} for c in completions],
            "usage": {"prompt_tokens": 5, "completion_tokens": 2},
        }, None
    transport.calls = calls
    return transport


def test_cache_hits_skip_network(tmp_path):
    transport = fake_transport(["SELECT 7"])
    client = LlmClient(mode="cache", cache_dir=tmp_path / "cache",
                       transport=transport, model="test-model",
                       api_base="http://example.invalid")
    request = make_request()
    first = client.generate(request)
    assert first.source == "live"
    second = client.generate(request)
    assert second.source == "cache"
    assert len(transport.calls) == 1

    # even a client whose transport always fails serves from a warm cache
    bomb = LlmClient(mode="cache", cache_dir=tmp_path / "cache",
                     transport=forbidden_transport, model="test-model")
    assert bomb.generate(request).source == "cache"
    # its store is a replay store
    assert replay_client(tmp_path / "cache" / "store.jsonl").generate(request).text \
        == "SELECT 7"


def _cache_session(cache_dir, threads: int):
    """Generate 48 distinct keys and one key that every worker requests at
    once, from *threads* workers of one cache-mode client, switching threads
    as often as the interpreter allows; return the transport's calls."""
    shared = make_request(prompt="shared question")
    requests = [shared] * threads + [make_request(prompt=f"question {i:02d}")
                                     for i in range(48)]
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload["prompt"])
        if payload["prompt"] == shared.prompt:
            time.sleep(0.05)  # the other workers ask for the key meanwhile
        return 200, {"choices": [{"text": f"SELECT '{payload['prompt']}'"}],
                     "usage": {}}, None

    client = LlmClient(mode="cache", cache_dir=cache_dir, transport=transport,
                       model="test-model", api_base="http://example.invalid")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(client.generate, requests))
    finally:
        sys.setswitchinterval(interval)
    # one live generation per key; a worker that waited on the shared key's
    # call is served from the store
    assert sum(r.source == "live" for r in results) == len(calls)
    assert {r.text for r in results[:threads]} == {"SELECT 'shared question'"}
    # a second pass is served from the loaded copy, which each append extends
    assert {client.generate(r).source for r in requests} == {"cache"}
    return calls


@pytest.mark.parametrize("threads", [2, 4, 8, 16])
def test_concurrent_writers_append_whole_records(tmp_path, threads):
    calls = _cache_session(tmp_path / "cache", threads)
    assert len(calls) == 49  # one call per key, the shared one included
    lines = (tmp_path / "cache" / llmclient.STORE_NAME).read_bytes().split(b"\n")
    assert lines.pop() == b""
    assert len(lines) == len(calls)
    assert all(set(json.loads(line)) == {"key", "model", "params", "prompt_digest",
                                         "completions"} for line in lines)
    _cache_session(tmp_path / "oracle", 1)
    store = ReplayStore.load(tmp_path / "cache" / llmclient.STORE_NAME)
    oracle = ReplayStore.load(tmp_path / "oracle" / llmclient.STORE_NAME)
    assert store._records == oracle._records and len(store) == 49


def test_concurrent_requests_for_one_missing_key_make_one_call(tmp_path):
    calls = []

    def transport(url, payload, headers, timeout):
        calls.append(payload["prompt"])
        time.sleep(0.2)  # every worker asks while the call is in flight
        return 200, {"choices": [{"text": "SELECT 1"}, {"text": "SELECT 2"}],
                     "usage": {}}, None

    client = LlmClient(mode="cache", cache_dir=tmp_path / "cache", transport=transport,
                       model="test-model", api_base="http://example.invalid")
    request = make_request(n_samples=2)
    barrier = threading.Barrier(16, timeout=10)

    def ask(_):
        barrier.wait()
        return client.generate(request)

    with ThreadPoolExecutor(max_workers=16) as pool:
        results = list(pool.map(ask, range(16)))
    assert calls == [request.prompt]
    assert {r.completions for r in results} == {("SELECT 1", "SELECT 2")}
    assert sorted(r.source for r in results) == ["cache"] * 15 + ["live"]


def test_a_failed_call_leaves_the_key_to_the_next_request(tmp_path):
    outcomes = iter([(400, {"error": "bad request"}), (200, {"choices": [{"text": "SELECT 3"}]})])

    def transport(url, payload, headers, timeout):
        status, body = next(outcomes)
        return status, body, None

    client = LlmClient(mode="cache", cache_dir=tmp_path / "cache", transport=transport,
                       model="test-model", api_base="http://example.invalid")
    request = make_request()
    with pytest.raises(TransportError):
        client.generate(request)
    assert client.generate(request).text == "SELECT 3"


def test_cache_mode_requires_a_directory():
    with pytest.raises(ValueError, match="cache directory"):
        LlmClient(mode="cache")


def _torn_store(path, request):
    """A store whose last append was interrupted mid-line."""
    append_record(path, request, ["SELECT 1"])
    with open(path, "ab") as f:
        f.write(b'{"completions": ["SELECT 2"], "key": "')


def test_replay_skips_a_torn_last_line(tmp_path):
    request = make_request()
    path = tmp_path / "store.jsonl"
    _torn_store(path, request)
    torn = path.read_bytes()
    store = ReplayStore.load(path)
    assert len(store) == 1 and store.get(request.key) == ["SELECT 1"]
    assert replay_client(path).generate(request).text == "SELECT 1"
    assert path.read_bytes() == torn  # a replay never writes its store


def test_cache_cuts_a_torn_last_line(tmp_path):
    request, other = make_request(), make_request(prompt="other")
    path = tmp_path / "cache" / llmclient.STORE_NAME
    path.parent.mkdir()
    _torn_store(path, request)
    client = LlmClient(mode="cache", cache_dir=tmp_path / "cache",
                       transport=fake_transport(["SELECT 7"]), model="test-model",
                       api_base="http://example.invalid")
    assert client.generate(request).source == "cache"
    assert client.generate(other).source == "live"
    assert [json.loads(line)["key"] for line in path.read_text().splitlines()] \
        == [request.key, other.key]


def test_first_record_of_a_key_wins(tmp_path):
    request, other = make_request(), make_request(prompt="other")
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    append_record(first, request, ["SELECT 1"])
    append_record(second, other, ["SELECT 3"])
    append_record(second, request, ["SELECT 2"])
    # stores merge by concatenation
    for order, expected in (((first, second), "SELECT 1"), ((second, first), "SELECT 2")):
        merged = tmp_path / "merged.jsonl"
        merged.write_bytes(b"".join(path.read_bytes() for path in order))
        store = ReplayStore.load(merged)
        assert len(store) == 2 and store.get(other.key) == ["SELECT 3"]
        assert store.get(request.key) == [expected]


def test_record_path_appends(tmp_path):
    transport = fake_transport(["SELECT 9"])
    client = LlmClient(mode="cache", cache_dir=tmp_path / "cache",
                       transport=transport, model="test-model",
                       api_base="http://example.invalid",
                       record_path=tmp_path / "recorded.jsonl")
    request = make_request()
    client.generate(request)
    store = ReplayStore.load(tmp_path / "recorded.jsonl")
    assert request.key in store


# --- live mode --------------------------------------------------------------------

def test_live_shape_temperature_zero(tmp_path):
    transport = fake_transport(["SELECT 1"])
    client = LlmClient(mode="live", transport=transport, model="test-model",
                       api_base="http://example.invalid")
    result = client.generate(make_request(temperature=0.0, n_samples=1))
    assert len(result.completions) == 1
    assert transport.calls[0]["temperature"] == 0.0
    assert transport.calls[0]["n"] == 1


def test_live_retries_then_succeeds(monkeypatch, tmp_path):
    monkeypatch.setattr("time.sleep", lambda s: None)
    attempts = []

    def flaky(url, payload, headers, timeout):
        attempts.append(1)
        if len(attempts) < 3:
            raise OSError("connection reset")
        return 200, {"choices": [{"text": "SELECT ok"}], "usage": {}}, None

    client = LlmClient(mode="live", transport=flaky, model="test-model",
                       api_base="http://example.invalid")
    result = client.generate(make_request())
    assert result.text == "SELECT ok"
    assert len(attempts) == 3


def test_live_retries_a_server_error_then_serves(monkeypatch):
    sleeps = []
    monkeypatch.setattr("psmith.llmclient.time.sleep", sleeps.append)
    statuses = [503, 200]

    def failing_once(url, payload, headers, timeout):
        return statuses.pop(0), {"choices": [{"text": "SELECT ok"}], "usage": {}}, None

    client = LlmClient(mode="live", transport=failing_once, model="test-model",
                       api_base="http://example.invalid")
    assert client.generate(make_request()).text == "SELECT ok"
    assert statuses == [] and sleeps == [1.0]


def test_live_gives_up_after_bounded_retries(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)

    def always_down(url, payload, headers, timeout):
        raise OSError("no route to host")

    client = LlmClient(mode="live", transport=always_down, model="test-model",
                       api_base="http://example.invalid")
    with pytest.raises(TransportError):
        client.generate(make_request())


def test_live_does_not_retry_a_programming_error(monkeypatch):
    """Only OSError (requests' errors included), 429 and 5xx are retried:
    an exception no retry can mend propagates from the first attempt."""
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    attempts = []

    def broken(url, payload, headers, timeout):
        attempts.append(1)
        raise AssertionError("unscripted prompt")

    client = LlmClient(mode="live", transport=broken, model="test-model",
                       api_base="http://example.invalid")
    with pytest.raises(AssertionError, match="unscripted prompt"):
        client.generate(make_request())
    assert len(attempts) == 1
    assert sleeps == []


def test_a_live_call_without_an_api_base_fails_at_once(monkeypatch):
    """The default transport with no API base is refused before the first
    attempt, with no sleep; a client whose transport is another needs none."""
    import requests

    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)
    monkeypatch.setattr(requests, "post",
                        lambda *args, **kwargs: pytest.fail("posted without an API base"))
    monkeypatch.delenv("PSMITH_API_BASE", raising=False)
    client = LlmClient(mode="live", model="test-model")
    with pytest.raises(TransportError, match="PSMITH_API_BASE"):
        client.generate(make_request())
    assert sleeps == []
    client.transport = fake_transport(["SELECT 1"])
    assert client.generate(make_request()).text == "SELECT 1"


@pytest.mark.parametrize("header, expected", [
    ("7", 7.0), (None, None), ("Wed, 21 Oct 2015 07:28:00 GMT", None)])
def test_http_transport_reads_retry_after_seconds_only(monkeypatch, header, expected):
    import requests

    class Response:
        status_code = 429
        headers = {} if header is None else {"Retry-After": header}
        text = "slow down"

        def json(self):
            return {"error": "slow down"}

    monkeypatch.setattr(requests, "post", lambda *args, **kwargs: Response())
    assert llmclient.http_transport("http://example.invalid", {}, {}, 1.0) == (
        429, {"error": "slow down"}, expected)


def test_live_rate_limit_honors_hint(monkeypatch):
    sleeps = []
    monkeypatch.setattr("time.sleep", sleeps.append)

    def limited(url, payload, headers, timeout):
        return 429, {"error": "slow down"}, 7.0

    client = LlmClient(mode="live", transport=limited, model="test-model",
                       api_base="http://example.invalid")
    with pytest.raises(RateLimited):
        client.generate(make_request())
    assert any(s >= 7.0 for s in sleeps)


def test_spend_cap_refuses_before_network():
    client = LlmClient(mode="live", transport=forbidden_transport,
                       model="test-model", api_base="http://example.invalid",
                       spend_cap=10)
    with pytest.raises(BudgetRefused):
        client.generate(make_request(max_output_tokens=1000))


def test_chat_surface(tmp_path):
    captured = {}

    def chat_transport(url, payload, headers, timeout):
        captured["url"] = url
        captured["payload"] = payload
        return 200, {"choices": [{"message": {"content": "SELECT 5"}}],
                     "usage": {}}, None

    client = LlmClient(mode="live", transport=chat_transport, model="test-model",
                       api_base="http://example.invalid", api_surface="chat")
    result = client.generate(make_request())
    assert result.text == "SELECT 5"
    assert captured["url"].endswith("/chat/completions")
    assert captured["payload"]["messages"][0]["role"] == "user"
    assert "prompt" not in captured["payload"]


def test_unknown_surface_rejected():
    with pytest.raises(ValueError):
        LlmClient(mode="live", api_surface="telepathy")


# --- the spend cap under concurrent workers ------------------------------------------

def _spend_ledger(threads: int, cap: int, usage: int):
    """Send 64 equal-sized requests from *threads* workers; return (calls,
    tokens spent, refusals). The transport reports *usage* tokens a call.
    Each worker's first request waits on a barrier, in the transport or
    after its refusal, so every worker decides before any call settles."""
    calls = []
    barrier = threading.Barrier(threads, timeout=10)
    first_round = threading.local()

    def transport(url, payload, headers, timeout):
        calls.append(payload["prompt"])
        if first_round.value:
            barrier.wait()
        return 200, {"choices": [{"text": "SELECT 1"}],
                     "usage": {"prompt_tokens": usage - 1, "completion_tokens": 1}}, None

    client = LlmClient(mode="live", transport=transport, model="test-model",
                       api_base="http://example.invalid", spend_cap=cap)

    def one(i):
        first_round.value = i < threads
        try:
            client.generate(make_request(prompt=f"question {i:02d}", max_output_tokens=96))
        except BudgetRefused:
            if first_round.value:
                barrier.wait()
            return 1
        return 0

    with ThreadPoolExecutor(max_workers=threads) as pool:
        refused = sum(pool.map(one, range(64)))
    return len(calls), client._spent_tokens, refused


@pytest.mark.parametrize("threads", [2, 4, 8, 16])
@pytest.mark.parametrize("admitted", [1, 2, 4])
def test_spend_cap_holds_across_workers(monkeypatch, threads, admitted):
    monkeypatch.setattr("time.sleep", lambda s: None)
    # each request is estimated at 3 prompt + 96 output tokens
    estimate = 99
    cap = admitted * estimate + estimate // 2
    ledger = _spend_ledger(threads, cap, estimate)
    assert ledger[1] <= cap
    assert ledger == _spend_ledger(1, cap, estimate)
    assert ledger == (admitted, admitted * estimate, 64 - admitted)


def test_spend_ledger_under_thread_switching_stress():
    """Unequal requests from more workers than cores, switching threads as
    often as the interpreter allows: a lost update of the ledger would leave
    it unequal to the usage of the calls that were made."""
    made = []

    def transport(url, payload, headers, timeout):
        used = len(payload["prompt"]) // 4 + payload["max_tokens"]
        made.append(used)
        return 200, {"choices": [{"text": "SELECT 1"}],
                     "usage": {"prompt_tokens": used - 1, "completion_tokens": 1}}, None

    client = LlmClient(mode="live", transport=transport, model="test-model",
                       api_base="http://example.invalid", spend_cap=5_000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def one(i):
            try:
                client.generate(make_request(prompt="x" * (4 * (i % 7)),
                                             max_output_tokens=10 + i % 5))
            except BudgetRefused:
                pass

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(one, range(2_000)))
    finally:
        sys.setswitchinterval(interval)
    assert client._spent_tokens == sum(made) <= 5_000
    assert len(made) < 2_000


def test_spend_cap_settles_to_reported_usage():
    # each call reserves 99 tokens and spends 20, so a 100-token cap admits
    # calls until 20 * n + 99 > 100: a reservation is released, not kept
    assert _spend_ledger(1, 100, 20) == (1, 20, 63)
    assert _spend_ledger(1, 1000, 20) == (46, 920, 18)


def test_spend_cap_releases_a_failed_call(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)

    def always_down(url, payload, headers, timeout):
        raise OSError("no route to host")

    client = LlmClient(mode="live", transport=always_down, model="test-model",
                       api_base="http://example.invalid", spend_cap=300)
    for _ in range(3):
        with pytest.raises(TransportError):
            client.generate(make_request(max_output_tokens=200))
    assert client._spent_tokens == 0
