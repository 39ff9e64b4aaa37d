from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from psmith.errors import BudgetRefused, RateLimited, ReplayMiss, TransportError
from psmith.llmclient import (
    GenerationRequest,
    GenerationResult,
    LlmClient,
    ReplayStore,
    append_record,
    forbidden_transport,
    replay_client,
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


def test_live_gives_up_after_bounded_retries(monkeypatch):
    monkeypatch.setattr("time.sleep", lambda s: None)

    def always_down(url, payload, headers, timeout):
        raise OSError("no route to host")

    client = LlmClient(mode="live", transport=always_down, model="test-model",
                       api_base="http://example.invalid")
    with pytest.raises(TransportError):
        client.generate(make_request())


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
