"""Solve gateway: fingerprints, cache, end-to-end server, chaos drills.

The end-to-end tests run a real :class:`repro.gateway.GatewayThread`
against the Running Example (sub-second solves), including the CI chaos
mix: cache hit, delta-close warm-start, deadline expiry, and a worker
killed mid-request.  The subprocess test drives the actual
``repro serve`` / ``repro client`` CLI pair and asserts nothing leaks —
no processes, no socket.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.casestudies import all_case_studies
from repro.gateway import (
    CacheEntry,
    GatewayClient,
    GatewayConfig,
    GatewayThread,
    ResultCache,
    exact_key,
    family_key,
)
from repro.network.io import network_to_json
from repro.trains.io import schedule_to_json

pytestmark = pytest.mark.gateway


# -- scenario helpers ---------------------------------------------------


def _running_example() -> tuple[dict, dict, float, float]:
    study = next(
        s for s in all_case_studies() if s.name == "Running Example"
    )
    network = json.loads(network_to_json(study.network))
    schedule = json.loads(schedule_to_json(study.schedule))
    return network, schedule, study.r_s_km, study.r_t_min


def _inline_payload(task: str = "generate", **kwargs) -> dict:
    network, schedule, r_s, r_t = _running_example()
    payload = {
        "task": task, "network": network, "schedule": schedule,
        "r_s": r_s, "r_t": r_t,
    }
    payload.update(kwargs)
    return payload


def _micro_verify_payload(arrival_min: float) -> dict:
    """Single train on a 3-TTD line: verification is SAT on pure TTDs."""
    from repro.network.builder import NetworkBuilder

    line = (
        NetworkBuilder()
        .boundary("A")
        .link("m1")
        .link("m2")
        .boundary("B")
        .track("A", "m1", length_km=1.0, ttd="TTD1", name="staA")
        .track("m1", "m2", length_km=1.0, ttd="TTD2", name="mid")
        .track("m2", "B", length_km=1.0, ttd="TTD3", name="staB")
        .station("A", ["staA"])
        .station("B", ["staB"])
        .build()
    )
    return {
        "task": "verify",
        "network": json.loads(network_to_json(line)),
        # Deadline-independent variable space, so the relaxed copy can
        # replay the cached witness (see requests.py guarded_arrivals).
        "params": {"guarded_arrivals": True},
        "schedule": {
            "duration_min": 5.0,
            "trains": [{
                "name": "T", "length_m": 400, "max_speed_kmh": 120,
                "start": "A", "goal": "B", "departure_min": 0.0,
                "arrival_min": arrival_min, "stops": [],
            }],
        },
        "r_s": 0.5,
        "r_t": 1.0,
    }


def _relax_one_arrival(payload: dict, by_min: float) -> dict:
    """A delta-close copy: the tightest arrival deadline moved later.

    Picks the train with the earliest deadline so the relaxed value
    stays within the scenario duration.
    """
    close = json.loads(json.dumps(payload))
    train = min(
        (t for t in close["schedule"]["trains"]
         if t.get("arrival_min") is not None),
        key=lambda t: t["arrival_min"],
    )
    train["arrival_min"] = min(
        train["arrival_min"] + by_min, close["schedule"]["duration_min"]
    )
    return close


# -- fingerprint keys ---------------------------------------------------


class TestFingerprint:
    def test_reordering_does_not_change_exact_key(self):
        payload = _inline_payload()
        shuffled = json.loads(json.dumps(payload))
        shuffled["network"]["nodes"].reverse()
        shuffled["network"]["tracks"].reverse()
        shuffled["schedule"]["trains"].reverse()
        assert exact_key(shuffled) == exact_key(payload)
        assert family_key(shuffled) == family_key(payload)

    def test_semantic_change_changes_exact_key(self):
        payload = _inline_payload()
        finer = dict(payload, r_s=payload["r_s"] / 2)
        assert exact_key(finer) != exact_key(payload)
        assert family_key(finer) != family_key(payload)
        other_task = dict(payload, task="optimize")
        assert exact_key(other_task) != exact_key(payload)

    def test_volatile_params_do_not_change_keys(self):
        payload = _inline_payload(params={"strategy": "linear"})
        volatile = json.loads(json.dumps(payload))
        volatile["params"].update(
            parallel=4, timeout_s=3.0, profile=True
        )
        volatile["deadline_s"] = 1.0
        assert exact_key(volatile) == exact_key(payload)
        semantic = dict(payload, params={"strategy": "binary"})
        assert exact_key(semantic) != exact_key(payload)

    def test_family_ignores_arrivals_but_not_departures(self):
        payload = _inline_payload()
        relaxed = _relax_one_arrival(payload, 1.0)
        assert exact_key(relaxed) != exact_key(payload)
        assert family_key(relaxed) == family_key(payload)
        shifted = json.loads(json.dumps(payload))
        shifted["schedule"]["trains"][0]["departure_min"] += 1.0
        assert family_key(shifted) != family_key(payload)


# -- result cache -------------------------------------------------------


class TestResultCache:
    def test_exact_hit_and_miss_counters(self):
        cache = ResultCache(max_entries=4)
        assert cache.lookup_exact("k1") is None
        cache.put("k1", "f1", CacheEntry(response={"ok": True}))
        hit = cache.lookup_exact("k1")
        assert hit is not None and hit.hits == 1
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_lru_eviction_prefers_stale_entries(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", "f", CacheEntry(response={"n": 1}))
        cache.put("b", "f", CacheEntry(response={"n": 2}))
        cache.lookup_exact("a")  # refresh "a"; "b" is now LRU
        cache.put("c", "f", CacheEntry(response={"n": 3}))
        assert cache.lookup_exact("b") is None
        assert cache.lookup_exact("a") is not None
        assert cache.stats()["evictions"] == 1

    def test_family_lookup_skips_self_and_modelless(self):
        cache = ResultCache(max_entries=4)
        cache.put("a", "f", CacheEntry(response={}, model=[]))
        cache.put("b", "f", CacheEntry(response={}, model=[1, 2]))
        assert cache.lookup_family("f", exclude="b") is None
        found = cache.lookup_family("f", exclude="a")
        assert found is not None and found.model == [1, 2]
        assert cache.lookup_family("other") is None


# -- end-to-end over a live gateway -------------------------------------


@pytest.fixture
def gateway(tmp_path):
    os.environ["REPRO_GATEWAY_FAULTS"] = "1"
    config = GatewayConfig(
        socket_path=str(tmp_path / "gw.sock"),
        workers=1,
        cache_entries=16,
        max_inflight=2,
        max_queue=2,
        drain_s=5.0,
    )
    thread = GatewayThread(config)
    thread.start()
    try:
        yield GatewayClient(socket_path=config.socket_path, timeout_s=120)
    finally:
        thread.stop()
        os.environ.pop("REPRO_GATEWAY_FAULTS", None)


class TestGatewayEndToEnd:
    def test_cold_then_cached_then_warm(self, gateway):
        payload = _inline_payload(params={
            "strategy": "linear", "guarded_arrivals": True,
        })
        cold = gateway.request(payload)
        assert cold["ok"] and cold["satisfiable"]
        assert not cold["cached"] and not cold["warm_started"]
        assert cold["model"] and cold["fingerprint"]

        cached = gateway.request(payload)
        assert cached["cached"]
        assert cached["objective_value"] == cold["objective_value"]

        relaxed = _relax_one_arrival(payload, 1.0)
        warm = gateway.request(relaxed)
        assert warm["ok"] and not warm["cached"]
        assert warm["warm_started"]
        # Relaxing a deadline cannot make the optimum worse.
        assert warm["objective_value"] <= cold["objective_value"]

        status = gateway.status()
        assert status["cache"]["hits"] == 1
        assert status["cache"]["warm_hits"] == 1
        assert status["metrics"]["gateway.warm_starts"] == 1

    def test_warm_start_matches_cold_optimum(self, gateway):
        payload = _inline_payload(params={
            "strategy": "linear", "guarded_arrivals": True,
        })
        relaxed = _relax_one_arrival(payload, 1.0)
        gateway.request(payload)
        warm = gateway.request(relaxed)
        cold = gateway.request(dict(relaxed, no_cache=True))
        assert warm["warm_started"] and not cold["warm_started"]
        assert warm["objective_value"] == cold["objective_value"]

    def test_verify_witness_replay_skips_solver(self, gateway):
        cold = gateway.request(_micro_verify_payload(arrival_min=4.0))
        assert cold["ok"] and cold["satisfiable"] and cold["model"]
        assert cold["solve_calls"] >= 1
        # A relaxed deadline is a delta-close instance; the cached
        # witness satisfies its (weaker) clauses verbatim, so the
        # verdict comes from replay with zero solver calls.
        replay = gateway.request(_micro_verify_payload(arrival_min=5.0))
        assert replay["ok"] and replay["satisfiable"]
        assert not replay["cached"]
        assert replay["warm_started"]
        assert replay["solve_calls"] == 0

    def test_deadline_cut_answer_is_not_cached(self, gateway):
        payload = {"task": "generate", "case": "nordlandsbanen"}
        cut = gateway.request(dict(payload, deadline_s=0.05))
        assert cut["ok"] and cut["status"] == "timeout"
        # The same request without a deadline must get a full answer,
        # not the replayed deadline-cut one.
        full = gateway.request(payload)
        assert full["ok"] and not full["cached"]
        assert full["status"] == "optimal"
        assert gateway.request(payload)["cached"]

    def test_expired_deadline_is_rejected(self, gateway):
        payload = _inline_payload(no_cache=True, deadline_s=0.0)
        response = gateway.request(payload)
        assert not response["ok"] and response["kind"] == "deadline"
        status = gateway.status()
        assert status["metrics"]["gateway.rejected.deadline"] >= 1

    def test_worker_kill_falls_back_in_process(self, gateway):
        payload = _inline_payload(
            task="verify", no_cache=True, inject={"crash": True}
        )
        response = gateway.request(payload)
        assert response["ok"] and response["fallback"]
        status = gateway.status()
        assert status["workers"]["crashes"] == 1
        assert status["workers"]["alive"] == 1  # respawned
        assert status["metrics"]["gateway.worker_crashes"] == 1
        assert status["metrics"]["gateway.fallbacks"] == 1

    def test_bad_requests_keep_the_connection_alive(self, gateway):
        bad_task = gateway.request({"task": "summon"})
        assert not bad_task["ok"] and "unknown task" in bad_task["error"]
        bad_param = gateway.request(
            _inline_payload(params={"strategee": "linear"})
        )
        assert not bad_param["ok"]
        assert "strategee" in bad_param["error"]
        bad_scenario = gateway.request({"task": "verify"})
        assert not bad_scenario["ok"]
        assert gateway.status()["ok"]

    def test_persistent_param_is_rejected(self, gateway):
        # Descents have one parallel path and no switch to pick another,
        # and verification has no preprocessor: `persistent` and
        # `presimplify` are unknown parameters, and the connection that
        # sent them keeps serving.
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(120)
            sock.connect(gateway.socket_path)
            with sock.makefile("rwb") as stream:
                for task, param in (("generate", "persistent"),
                                    ("optimize", "persistent"),
                                    ("verify", "presimplify")):
                    payload = _inline_payload(task, params={param: True})
                    stream.write(json.dumps(payload).encode() + b"\n")
                    stream.flush()
                    response = json.loads(stream.readline())
                    assert not response["ok"]
                    assert response["kind"] == "request"
                    assert param in response["error"]
                stream.write(b'{"op": "status"}\n')
                stream.flush()
                assert json.loads(stream.readline())["ok"]

    def test_concurrent_clients_agree(self, gateway):
        import threading

        payload = _inline_payload(params={"strategy": "linear"})
        results: list[dict] = []
        lock = threading.Lock()

        def drive():
            response = gateway.request(payload)
            with lock:
                results.append(response)

        threads = [threading.Thread(target=drive) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == 4
        assert all(r["ok"] for r in results)
        costs = {r["objective_value"] for r in results}
        assert len(costs) == 1


class TestGatewayShutdown:
    def test_shutdown_op_drains_and_unlinks(self, tmp_path):
        config = GatewayConfig(
            socket_path=str(tmp_path / "down.sock"), workers=1
        )
        thread = GatewayThread(config)
        thread.start()
        client = GatewayClient(socket_path=config.socket_path)
        assert client.request({"task": "verify", "case": "running-example"})
        before = multiprocessing.active_children()
        assert before  # pool worker lives
        assert client.shutdown_server()["ok"]
        thread._thread.join(timeout=30)
        assert not os.path.exists(config.socket_path)
        deadline = time.monotonic() + 10
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, "pool worker leaked"
            time.sleep(0.05)


class TestServeCli:
    def test_serve_client_roundtrip_and_sigterm(self, tmp_path):
        import repro

        socket_path = str(tmp_path / "cli.sock")
        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src_dir)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", socket_path, "--workers", "1"],
            env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            deadline = time.monotonic() + 30
            while not os.path.exists(socket_path):
                assert proc.poll() is None, proc.stderr.read().decode()
                assert time.monotonic() < deadline, "socket never appeared"
                time.sleep(0.1)
            out = subprocess.run(
                [sys.executable, "-m", "repro", "client",
                 "--socket", socket_path, "--op", "status"],
                env=env, capture_output=True, timeout=60,
            )
            assert out.returncode == 0, out.stderr.decode()
            status = json.loads(out.stdout)
            assert status["ok"] and status["workers"]["alive"] == 1
            out = subprocess.run(
                [sys.executable, "-m", "repro", "client",
                 "--socket", socket_path,
                 "--task", "verify", "--case", "running-example"],
                env=env, capture_output=True, timeout=120,
            )
            # Running Example verification is UNSAT by design -> exit 0,
            # ok=true, satisfiable=false.
            assert out.returncode == 0, out.stderr.decode()
            verdict = json.loads(out.stdout)
            assert verdict["ok"] and verdict["satisfiable"] is False
            os.killpg(proc.pid, signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not os.path.exists(socket_path)
            # Nothing left in the server's process group.
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()
