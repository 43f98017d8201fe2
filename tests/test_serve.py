"""Tests for the simulation server (:mod:`repro.serve`) and the shared
infrastructure it rides on (keyed in-flight coalescing, warm pools,
concurrent-safe cache publication).

The load-bearing invariant: a served result is **byte-identical** to the
same config run through the CLI path — asserted here against an
independent :func:`repro.sim.runner.run_trace` reference that bypasses
every cache the server could have consulted.
"""

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

import repro.sim.diskcache as diskcache
import repro.sim.runner as runner
from repro.serve import ServeClient, start_background
from repro.serve.client import ServeError
from repro.serve.protocol import (
    ProtocolError,
    config_from_wire,
    config_to_wire,
    parse_matrix_body,
    parse_run_body,
    run_key,
)
from repro.sim.config import fast_config, paper_config
from repro.sim.inflight import (
    KeyedInflight,
    global_inflight,
    reset_global_inflight,
)
from repro.sim.parallel import (
    RunRequest,
    WarmPool,
    close_shared_pool,
    run_matrix,
    shared_warm_pool,
)
from repro.sim.results import SimResult, wire_bytes
from repro.sim.runner import (
    clear_run_cache,
    machine_seed_for,
    run_trace,
)
from repro.workloads.suite import clear_trace_cache, get_trace

BUDGET = 3000


@pytest.fixture(autouse=True)
def _fresh_run_state():
    """Isolate the process-wide run cache and in-flight registry: several
    tests prime them (one with a sentinel result that must not leak)."""
    clear_run_cache()
    reset_global_inflight()
    yield
    clear_run_cache()
    reset_global_inflight()


def reference_result(workload, config, budget=BUDGET, seed=42):
    """The CLI-path ground truth, bypassing every cache layer."""
    return run_trace(
        get_trace(workload, budget, seed), config,
        seed=machine_seed_for(seed),
    )


# --------------------------------------------------------------------- #
# Protocol (wire forms)
# --------------------------------------------------------------------- #
class TestProtocol:
    def test_profile_names(self):
        assert config_from_wire("fast") == fast_config()
        assert config_from_wire("paper") == paper_config()

    def test_flat_overrides(self):
        cfg = config_from_wire({"tlb_predictor": "dppred"})
        assert cfg == fast_config(tlb_predictor="dppred")

    def test_full_round_trip(self):
        cfg = paper_config(
            tlb_predictor="dppred", llc_predictor="cbpred"
        )
        # JSON round trip degrades tuples to lists and dataclasses to
        # dicts; the wire parser must rebuild an *equal* frozen config,
        # or content-addressed keys would diverge between client and CLI.
        wire = json.loads(json.dumps(config_to_wire(cfg)))
        assert config_from_wire(wire) == cfg

    def test_nested_geometry_override(self):
        cfg = config_from_wire(
            {"l2_tlb": {"entries": 64, "assoc": 8, "latency": 8}}
        )
        assert cfg.l2_tlb.entries == 64

    def test_rejects_unknown_profile_and_fields(self):
        with pytest.raises(ProtocolError):
            config_from_wire("turbo")
        with pytest.raises(ProtocolError):
            config_from_wire({"tlb_size": 64})

    def test_rejects_invalid_predictor_coupling(self):
        # cbPred without dpPred fails SystemConfig.validate -> 400 path.
        with pytest.raises(ProtocolError):
            config_from_wire({"llc_predictor": "cbpred"})

    def test_parse_run_body(self):
        request, spec, stream = parse_run_body(
            {"workload": "mcf", "budget": 5000, "seed": 7}
        )
        assert request == RunRequest("mcf", fast_config(), 5000, 7)
        assert spec is None and stream is False

    def test_parse_run_body_rejects_unknown_workload(self):
        with pytest.raises(ProtocolError):
            parse_run_body({"workload": "nonesuch"})

    def test_stream_implies_telemetry(self):
        _, spec, stream = parse_run_body(
            {"workload": "mcf", "stream": True}
        )
        assert stream is True and spec is not None and spec.timeline

    def test_parse_matrix_body(self):
        requests, jobs = parse_matrix_body(
            {"cells": [{"workload": "mcf"}, {"workload": "lbm"}], "jobs": 2}
        )
        assert [r.workload for r in requests] == ["mcf", "lbm"]
        assert jobs == 2
        with pytest.raises(ProtocolError):
            parse_matrix_body({"cells": []})

    def test_observed_key_never_matches_plain_key(self):
        request, spec, _ = parse_run_body(
            {"workload": "mcf", "telemetry": True}
        )
        assert run_key(request) != run_key(request, spec)
        assert run_key(request) == diskcache.result_key(
            "mcf", request.config, request.budget, request.seed
        )


# --------------------------------------------------------------------- #
# Keyed in-flight registry
# --------------------------------------------------------------------- #
class TestKeyedInflight:
    def test_leader_then_followers_share_one_future(self):
        registry = KeyedInflight()
        lead, f1 = registry.lead_or_follow("k")
        follow, f2 = registry.lead_or_follow("k")
        assert lead is True and follow is False and f1 is f2
        registry.resolve("k", 41)
        assert f2.result(timeout=1) == 41
        assert registry.snapshot() == {
            "inflight": 0, "led": 1, "coalesced": 1,
        }

    def test_resolved_key_leads_fresh_computation(self):
        registry = KeyedInflight()
        registry.lead_or_follow("k")
        registry.resolve("k", 1)
        lead, _ = registry.lead_or_follow("k")
        assert lead is True

    def test_fail_propagates_to_followers(self):
        registry = KeyedInflight()
        _, future = registry.lead_or_follow("k")
        registry.fail("k", RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            future.result(timeout=1)

    def test_abandon_is_noop_after_resolve(self):
        registry = KeyedInflight()
        _, future = registry.lead_or_follow("k")
        registry.resolve("k", 7)
        registry.abandon("k")
        assert future.result(timeout=1) == 7

    def test_run_matrix_follows_external_leader(self):
        """A matrix cell already being computed elsewhere (another thread,
        a server request) is awaited, not re-simulated."""
        registry = global_inflight()
        request = RunRequest("mcf", fast_config(), BUDGET, 42)
        key = diskcache.result_key("mcf", request.config, BUDGET, 42)
        lead, _ = registry.lead_or_follow(key)
        assert lead is True
        sentinel = SimResult(
            workload="mcf", config_name="fast",
            instructions=1, cycles=2.0,
        )
        out = {}
        thread = threading.Thread(
            target=lambda: out.update(run_matrix([request], jobs=1))
        )
        thread.start()
        time.sleep(0.1)  # let the matrix register as a follower
        registry.resolve(key, sentinel)
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert out[request].to_dict() == sentinel.to_dict()


# --------------------------------------------------------------------- #
# Warm pool
# --------------------------------------------------------------------- #
class TestWarmPool:
    def test_matrix_reuses_borrowed_pool_workers(self):
        configs = [fast_config(), fast_config(tlb_predictor="dppred")]
        pool = WarmPool(max_workers=2)
        try:
            first = [RunRequest("mcf", c, BUDGET) for c in configs]
            second = [RunRequest("lbm", c, BUDGET) for c in configs]
            run_matrix(first, jobs=2, pool=pool)
            assert pool.warm  # workers survived the matrix
            executor = pool.executor()
            run_matrix(second, jobs=2, pool=pool)
            assert pool.executor() is executor  # same warm workers
            for req in first + second:
                served = runner.run_cached(
                    req.workload, req.config, req.budget, req.seed
                )
                ref = reference_result(req.workload, req.config)
                assert served.to_wire() == ref.to_wire()
        finally:
            pool.close()

    def test_shared_pool_identity_and_settings_rebuild(self, tmp_path):
        close_shared_pool()
        try:
            pool = shared_warm_pool(1)
            assert shared_warm_pool(1) is pool
            pool.executor()  # bind current (disabled-cache) settings
            diskcache.enable(tmp_path / "cache")
            try:
                rebuilt = shared_warm_pool(1)
                assert rebuilt is not pool and pool.closed
            finally:
                diskcache.disable()
        finally:
            close_shared_pool()

    def test_closed_shared_pool_is_replaced(self):
        close_shared_pool()
        try:
            pool = shared_warm_pool(1)
            pool.close()
            assert shared_warm_pool(1) is not pool
        finally:
            close_shared_pool()

    def test_release_keeps_workers_warm(self):
        pool = WarmPool(max_workers=1)
        try:
            pool.acquire()
            pool.executor()
            pool.release()
            assert pool.warm and not pool.closed
            pool.acquire()
            pool.release(close_idle=True)
            assert pool.closed
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Concurrent-safe cache publication
# --------------------------------------------------------------------- #
class TestEntryLock:
    def test_concurrent_stores_publish_one_valid_envelope(self, tmp_path):
        diskcache.enable(tmp_path / "cache")
        try:
            config = fast_config()
            result = reference_result("mcf", config)
            with ThreadPoolExecutor(8) as pool:
                list(pool.map(
                    lambda _: diskcache.store_result(
                        "mcf", config, BUDGET, 42, result
                    ),
                    range(16),
                ))
            loaded = diskcache.load_result("mcf", config, BUDGET, 42)
            assert loaded is not None
            assert loaded.to_wire() == result.to_wire()
            # No torn envelope was quarantined along the way.
            assert not any(diskcache.quarantine_dir().glob("*"))
        finally:
            diskcache.disable()

    def test_store_skips_republish_when_entry_exists(self, tmp_path):
        diskcache.enable(tmp_path / "cache")
        try:
            config = fast_config()
            result = reference_result("mcf", config)
            diskcache.store_result("mcf", config, BUDGET, 42, result)
            key = diskcache.result_key("mcf", config, BUDGET, 42)
            path = tmp_path / "cache" / "results" / f"{key}.json"
            before = path.stat().st_mtime_ns
            diskcache.store_result("mcf", config, BUDGET, 42, result)
            assert path.stat().st_mtime_ns == before
        finally:
            diskcache.disable()


# --------------------------------------------------------------------- #
# The server
# --------------------------------------------------------------------- #
@pytest.fixture
def server(tmp_path):
    """A background server (in-thread execution) over a fresh cache."""
    diskcache.enable(tmp_path / "cache")
    clear_run_cache()
    clear_trace_cache()
    reset_global_inflight()
    handle = start_background(workers=0)
    client = ServeClient(port=handle.port)
    try:
        yield handle, client
    finally:
        handle.stop()
        diskcache.disable()
        clear_run_cache()
        reset_global_inflight()


SUITE_CONFIGS = [
    {"tlb_predictor": "dppred"},
    {"tlb_predictor": "dppred", "llc_predictor": "cbpred"},
]


class TestServer:
    def test_healthz_and_status(self, server):
        _, client = server
        assert client.healthz() is True
        status = client.status()
        assert status["ok"] and not status["draining"]
        assert status["cache"]["enabled"] is True
        assert status["pool"]["mode"] == "in-thread"

    @pytest.mark.parametrize("config", SUITE_CONFIGS)
    @pytest.mark.parametrize("telemetry", [False, True])
    def test_served_result_is_byte_identical_to_cli(
        self, server, config, telemetry
    ):
        _, client = server
        body = json.loads(client.run_bytes(
            "mcf", config, budget=BUDGET,
            telemetry=True if telemetry else None,
        ).decode())
        ref = reference_result("mcf", fast_config(**config))
        assert wire_bytes(body["result"]) == ref.to_wire()
        prov = body["provenance"]
        assert prov["schema"] == diskcache.CACHE_SCHEMA_VERSION
        assert prov["cached"] is False

    def test_second_request_is_a_cache_hit(self, server):
        _, client = server
        first = client.run("mcf", budget=BUDGET)
        second = client.run("mcf", budget=BUDGET)
        assert first["provenance"]["cached"] is False
        assert second["provenance"]["cached"] is True
        assert second["result"] == first["result"]
        counters = client.status()["counters"]
        assert counters["computed"] == 1 and counters["hits"] == 1

    def test_duplicate_concurrent_requests_run_one_simulation(
        self, server, monkeypatch
    ):
        _, client = server
        sim_calls = []
        real = runner.run_trace

        def slow_run_trace(*args, **kwargs):
            sim_calls.append(1)
            time.sleep(0.3)  # hold the key so duplicates overlap
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_trace", slow_run_trace)
        n = 6
        barrier = threading.Barrier(n)

        def fire():
            barrier.wait()
            return client.run_bytes(
                "mcf", {"tlb_predictor": "dppred"}, budget=BUDGET
            )

        with ThreadPoolExecutor(n) as pool:
            raws = list(pool.map(lambda _: fire(), range(n)))

        assert len(sim_calls) == 1
        results = {
            wire_bytes(json.loads(r.decode())["result"]) for r in raws
        }
        assert len(results) == 1
        counters = client.status()["counters"]
        assert counters["computed"] == 1
        # Everyone else either coalesced onto the leader or arrived after
        # it resolved and hit the cache.
        assert counters["coalesced"] + counters["hits"] == n - 1

    def test_result_endpoint_read_through(self, server):
        _, client = server
        body = client.run("mcf", budget=BUDGET)
        key = body["provenance"]["key"]
        stored = client.result_bytes(key)
        assert stored == wire_bytes(body["result"])
        assert client.result_bytes("0" * 64) is None

    def test_stream_run_ndjson_order_and_identity(self, server):
        _, client = server
        rows = list(client.stream_run(
            "mcf", {"tlb_predictor": "dppred"}, budget=BUDGET,
            telemetry={"interval": 500, "events": False},
        ))
        kinds = [row["kind"] for row in rows]
        assert kinds[0] == "provenance" and kinds[-1] == "result"
        intervals = [row for row in rows if row["kind"] == "interval"]
        assert len(intervals) == len(rows) - 2 and intervals
        assert [row["mark"] for row in intervals] == sorted(
            row["mark"] for row in intervals
        )
        ref = reference_result("mcf", fast_config(tlb_predictor="dppred"))
        assert wire_bytes(rows[-1]["result"]) == ref.to_wire()
        assert client.status()["counters"]["streams"] == 1

    def test_matrix_endpoint_orders_cells_and_flags_cached(self, server):
        _, client = server
        client.run("mcf", budget=BUDGET)  # pre-warm one cell
        body = client.matrix([
            {"workload": "mcf", "budget": BUDGET},
            {"workload": "mcf", "config": {"tlb_predictor": "dppred"},
             "budget": BUDGET},
        ])
        assert body["provenance"]["cells"] == 2
        cached = [cell["cached"] for cell in body["results"]]
        assert cached == [True, False]
        for cell, config in zip(
            body["results"], [{}, {"tlb_predictor": "dppred"}]
        ):
            ref = reference_result("mcf", fast_config(**config))
            assert wire_bytes(cell["result"]) == ref.to_wire()

    def test_bad_requests_get_400(self, server):
        _, client = server
        with pytest.raises(ServeError) as err:
            client.run("nonesuch", budget=BUDGET)
        assert err.value.status == 400
        with pytest.raises(ServeError) as err:
            client.matrix([])
        assert err.value.status == 400
        status, _ = client._request("GET", "/nowhere")
        assert status == 404

    @pytest.mark.parametrize("policy", ["fifo", "bogus"])
    def test_unknown_policy_gets_400(self, server, policy):
        _, client = server
        with pytest.raises(ServeError) as err:
            client.run("mcf", {"tlb_policy": policy}, budget=BUDGET)
        assert err.value.status == 400
        assert b"unknown tlb_policy" in err.value.body

    def test_graceful_stop_drains_inflight_request(
        self, server, monkeypatch
    ):
        handle, client = server
        release = threading.Event()
        real = runner.run_trace

        def gated_run_trace(*args, **kwargs):
            release.wait(timeout=10)
            return real(*args, **kwargs)

        monkeypatch.setattr(runner, "run_trace", gated_run_trace)
        out = {}

        def fire():
            out["body"] = client.run("mcf", budget=BUDGET)

        thread = threading.Thread(target=fire)
        thread.start()
        deadline = time.monotonic() + 5
        while not client.status()["inflight"]["inflight"]:
            assert time.monotonic() < deadline, "request never started"
            time.sleep(0.01)
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.1)
        release.set()
        stopper.join(timeout=15)
        thread.join(timeout=15)
        assert not stopper.is_alive() and not thread.is_alive()
        # The in-flight request completed despite the shutdown...
        ref = reference_result("mcf", fast_config())
        assert wire_bytes(out["body"]["result"]) == ref.to_wire()
        # ...and the server no longer accepts connections.
        assert client.healthz() is False

    def test_warm_cache_hit_is_fast_and_poolless(self, server):
        _, client = server
        client.run("mcf", budget=BUDGET)
        start = time.perf_counter()
        body = client.run("mcf", budget=BUDGET)
        elapsed = time.perf_counter() - start
        assert body["provenance"]["cached"] is True
        # The CI smoke gate is < 50 ms; under pytest parallel load be
        # lenient but still catch "hit accidentally re-simulates".
        assert elapsed < 0.5
        assert client.status()["counters"]["computed"] == 1
