"""Unit tests for the structured event stream (repro.obs.events)."""

from __future__ import annotations

import io

import pytest

from repro.obs import events


@pytest.fixture(autouse=True)
def _clean_events():
    events.reset()
    yield
    events.reset()


class TestEventLog:
    def test_emit_records_kind_source_args(self):
        log = events.install(events.EventLog(source="test"))
        events.emit("restart", restarts=3, interval=100)
        (record,) = log.export()
        assert record["kind"] == "restart"
        assert record["source"] == "test"
        assert record["args"] == {"restarts": 3, "interval": 100}

    def test_disabled_emit_is_a_noop(self):
        events.emit("restart", restarts=1)  # must not raise
        assert events.export_events() == []
        assert not events.enabled()

    def test_ring_bounds_and_drop_counter(self):
        log = events.install(events.EventLog(capacity=5))
        for index in range(8):
            events.emit("tick", index=index)
        assert len(log) == 5
        assert log.dropped == 3
        kept = [record["args"]["index"] for record in log.export()]
        assert kept == [3, 4, 5, 6, 7]  # oldest dropped first

    def test_export_resequences_merged_events_monotonically(self):
        log = events.install(events.EventLog(source="main"))
        events.emit("first")
        child = events.fork_child(source="worker")
        child.emit("child-event")
        events.emit("second")
        events.merge(child.drain())
        exported = log.export()
        assert [r["seq"] for r in exported] == [1, 2, 3]
        times = [r["t"] for r in exported]
        assert times == sorted(times)
        sources = {r["source"] for r in exported}
        assert sources == {"main", "worker"}

    def test_drain_clears_without_resequencing(self):
        log = events.EventLog(source="w")
        log.emit("a")
        log.emit("b")
        drained = log.drain()
        assert [r["kind"] for r in drained] == ["a", "b"]
        assert len(log) == 0
        assert log.drain() == []

    def test_counts_per_kind(self):
        log = events.EventLog()
        log.emit("restart")
        log.emit("restart")
        log.emit("deadline.hit")
        assert log.counts() == {"restart": 2, "deadline.hit": 1}

    def test_listener_sees_local_and_merged_events(self):
        seen = []
        events.install(events.EventLog(listener=seen.append))
        events.emit("local")
        child = events.fork_child(source="w")
        child.emit("remote")
        events.merge(child.drain())
        assert [r["kind"] for r in seen] == ["local", "remote"]

    def test_broken_listener_never_breaks_emission(self):
        def bad(record):
            raise RuntimeError("listener bug")

        log = events.install(events.EventLog(listener=bad))
        events.emit("survives")
        assert len(log) == 1

    def test_jsonl_round_trip(self, tmp_path):
        log = events.install(events.EventLog())
        events.emit("restart", restarts=1)
        events.emit("lazy.round", round=2, clauses=17)
        path = tmp_path / "events.jsonl"
        events.write_jsonl(log.export(), str(path))
        back = events.read_jsonl(str(path))
        assert [r["kind"] for r in back] == ["restart", "lazy.round"]
        assert back[1]["args"]["clauses"] == 17


class TestLiveLine:
    def test_updates_overwrite_and_close_newlines(self):
        stream = io.StringIO()
        line = events.LiveLine(stream=stream, min_interval_s=0.0)
        line.update("long progress line")
        line.update("short")
        line.close()
        out = stream.getvalue()
        assert out.startswith("\rlong progress line")
        # The shorter line is padded so it fully overwrites the longer.
        assert "\rshort" + " " * (len("long progress line") - 5) in out
        assert out.endswith("\n")

    def test_throttling_skips_rapid_updates(self):
        stream = io.StringIO()
        line = events.LiveLine(stream=stream, min_interval_s=3600.0)
        line.update("first")
        line.update("second")  # throttled away
        line.update("third", force=True)
        assert "second" not in stream.getvalue()
        assert "third" in stream.getvalue()

    def test_live_listener_renders_event_kinds(self):
        stream = io.StringIO()
        line = events.LiveLine(stream=stream, min_interval_s=0.0)
        listener = events.live_listener(line, label="verify")
        listener({"kind": "progress",
                  "args": {"conflicts": 1200, "propagations": 90000,
                           "restarts": 4}})
        listener({"kind": "descent.improved", "args": {"cost": 7}})
        listener({"kind": "lazy.round", "args": {"round": 3}})
        listener({"kind": "deadline.hit", "args": {}})
        out = stream.getvalue()
        assert "verify:" in out
        assert "conflicts 1,200" in out
        assert "best 7" in out
        assert "round 3" in out
        assert "[deadline.hit]" in out


class TestProgressCallback:
    def test_none_when_both_tracks_disabled(self):
        assert events.progress_callback() is None

    def test_forwards_snapshots_to_event_stream(self):
        log = events.install(events.EventLog())
        hook = events.progress_callback()
        assert hook is not None
        hook({"conflicts": 10, "propagations": 500})
        (record,) = log.export()
        assert record["kind"] == "progress"
        assert record["args"]["conflicts"] == 10


class TestInstrumentationPoints:
    def test_solver_restart_and_deadline_events(self):
        from repro.sat.solver import Solver
        from repro.sat.types import SolverConfig

        log = events.install(events.EventLog())
        holes = 5
        pigeons = holes + 1

        def var(p, h):
            return p * holes + h + 1

        solver = Solver(SolverConfig(restart_base=8))
        solver.on_event(events.emit)
        solver.ensure_var(pigeons * holes)
        for p in range(pigeons):
            solver.add_clause([var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var(p1, h), -var(p2, h)])
        solver.solve()
        counts = log.counts()
        assert counts.get("restart", 0) == solver.stats.restarts
        (first,) = [r for r in log.export() if r["seq"] == 1]
        assert "conflicts" in first["args"]

    def test_checkpoint_write_events(self, tmp_path):
        from repro.opt.checkpoint import DescentCheckpoint

        log = events.install(events.EventLog())
        ckpt = DescentCheckpoint(str(tmp_path / "d.ckpt"))
        ckpt.open({"version": 1}, resumed=False)
        ckpt.improved(cost=4, model=[1, -2], probe=1)
        ckpt.lower(bound=2, probe=2)
        ckpt.close()
        kinds = [r["args"]["type"] for r in log.export()
                 if r["kind"] == "checkpoint.write"]
        assert kinds == ["header", "improved", "lower"]

    def test_lazy_round_events(self, micro_net, single_train_schedule):
        from repro.encoding.lazy import LazyRefiner
        from repro.opt.minimize import minimize_sum
        from repro.tasks.common import build_encoding

        log = events.install(events.EventLog())
        encoding = build_encoding(
            micro_net, single_train_schedule, 1.0, None, lazy=True
        )
        refiner = LazyRefiner(encoding)
        minimize_sum(encoding.cnf, [], refine=refiner.refine)
        rounds = [r for r in log.export() if r["kind"] == "lazy.round"]
        assert len(rounds) == refiner.rounds

    def test_descent_improvement_events(self):
        from repro.logic import CNF, VarPool
        from repro.opt.minimize import minimize_sum

        log = events.install(events.EventLog())
        cnf = CNF(VarPool())
        lits = [cnf.pool.var(v) for v in range(1, 5)]
        cnf.add([lits[0], lits[1]])
        result = minimize_sum(cnf, lits)
        improved = [r for r in log.export()
                    if r["kind"] == "descent.improved"]
        assert improved, "descent found no improvement events"
        assert improved[-1]["args"]["cost"] == result.cost
