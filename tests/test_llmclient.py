from __future__ import annotations

import json

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


def test_token_bucket_admission():
    from psmith.llmclient import TokenBucket

    clock = [0.0]
    sleeps = []

    def fake_sleep(s):
        sleeps.append(s)
        clock[0] += s

    bucket = TokenBucket(rate=2.0, capacity=1.0, clock=lambda: clock[0],
                         sleep=fake_sleep)
    bucket.acquire()          # takes the initial token instantly
    bucket.acquire()          # must wait for a refill at 2 tokens/sec
    assert sleeps and abs(sum(sleeps) - 0.5) < 1e-9


def test_limiter_gates_live_calls():
    from psmith.llmclient import TokenBucket

    clock = [0.0]
    waited = []
    bucket = TokenBucket(rate=1.0, capacity=1.0, clock=lambda: clock[0],
                         sleep=lambda s: (waited.append(s), clock.__setitem__(0, clock[0] + s)))
    transport = fake_transport(["SELECT 1"])
    client = LlmClient(mode="live", transport=transport, model="test-model",
                       api_base="http://example.invalid", limiter=bucket)
    client.generate(make_request())
    client.generate(make_request(prompt="another"))
    assert waited, "second live call should have waited on the bucket"
