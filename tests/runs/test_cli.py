"""Tests for the ``python -m repro`` command line."""

import io

import pytest

from repro.runs import load_artifact
from repro.runs.cli import (
    main,
    parse_adc_bits_axis,
    parse_ebn0_axis,
    parse_shard_spec,
)
from repro.sim import SweepEngine, sweep_grid


def run_cli(*argv) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


SWEEP_ARGS = ("sweep", "--ebn0", "4:8:2", "--packets", "4",
              "--payload-bits", "32")


class TestParsers:
    def test_ebn0_range_is_inclusive(self):
        assert parse_ebn0_axis("0:12:1") == tuple(float(v)
                                                  for v in range(13))
        assert parse_ebn0_axis("4:8:2") == (4.0, 6.0, 8.0)
        assert parse_ebn0_axis("0:10") == tuple(float(v) for v in range(11))
        assert parse_ebn0_axis("1.5,3") == (1.5, 3.0)

    def test_ebn0_rejects_bad_specs(self):
        import argparse
        for bad in ("5:1:1", "0:10:0", "0:10:-1", "a:b:c", "nan", "1:2:3:4"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_ebn0_axis(bad)

    def test_adc_bits_axis(self):
        assert parse_adc_bits_axis("none") == (None,)
        assert parse_adc_bits_axis("1,4,none") == (1, 4, None)

    def test_shard_spec(self):
        import argparse
        assert parse_shard_spec("0/4") == (0, 4)
        assert parse_shard_spec("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "0/0", "1", "a/b"):
            with pytest.raises(argparse.ArgumentTypeError):
                parse_shard_spec(bad)


class TestSweepCommand:
    def test_sweep_then_cached_rerun(self, tmp_path):
        code, first = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                              "--name", "demo")
        assert code == 0
        assert "3 simulated, 0 cached" in first
        assert "run complete" in first

        code, second = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                               "--name", "demo")
        assert code == 0
        assert "0 simulated, 3 cached" in second
        assert "all points served from cache" in second

    def test_auto_name_is_digest_stable(self, tmp_path):
        code, first = run_cli(*SWEEP_ARGS, "--out", str(tmp_path))
        code, second = run_cli(*SWEEP_ARGS, "--out", str(tmp_path))
        assert "0 simulated, 3 cached" in second
        runs = [path.name for path in tmp_path.iterdir()]
        assert len(runs) == 1 and runs[0].startswith("sweep-")

    def test_packet_escalation_tops_up_cache(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        # Same grid, higher --packets: only the missing tails simulate.
        code, out = run_cli("sweep", "--ebn0", "4:8:2", "--packets", "10",
                            "--payload-bits", "32", "--out", str(tmp_path),
                            "--name", "demo")
        assert code == 0
        assert "10 packets/point" in out
        assert "3 simulated, 0 cached" in out
        assert "18 packets simulated in 3 chunk(s), " \
               "12 served from cache" in out
        code, out = run_cli("merge", "--run", str(tmp_path / "demo"))
        assert "merged 3 of 3 point(s)" in out

    def test_conflicting_reuse_fails_cleanly(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, _ = run_cli("sweep", "--ebn0", "0:2:2", "--packets", "4",
                          "--out", str(tmp_path), "--name", "demo")
        assert code == 2
        assert "different run" in capsys.readouterr().err


class TestShardedFlow:
    def test_shard_resume_merge_show(self, tmp_path):
        base = SWEEP_ARGS + ("--out", str(tmp_path), "--name", "sharded",
                             "--seed", "7")
        code, out = run_cli(*base, "--shard", "1/3")
        assert code == 0
        assert "shard 1/3" in out
        assert "pending shard(s): 0, 2" in out

        code, out = run_cli("resume", "--run", str(tmp_path / "sharded"))
        assert code == 0
        assert "shard 0/3" in out and "shard 2/3" in out
        assert "run complete: all 3 shard(s) done" in out

        code, out = run_cli("merge", "--run", str(tmp_path / "sharded"))
        assert code == 0
        assert "merged 3 of 3 point(s)" in out
        artifact = load_artifact(
            tmp_path / "sharded" / "artifacts" / "sharded.json")
        assert artifact.metadata["seed"] == 7
        assert artifact.metadata["num_shards"] == 3

        # The CLI-merged artifact is bit-identical to an in-process
        # unsharded engine run of the same grid.
        engine = SweepEngine(generation="gen2", seed=7)
        direct = engine.run(sweep_grid((4.0, 6.0, 8.0)), num_packets=4,
                            payload_bits_per_packet=32)
        assert artifact.curves["awgn/bpsk"].points == \
            direct.curve().points

        code, out = run_cli("show", "--run", str(tmp_path / "sharded"))
        assert code == 0
        assert "coverage  : 3/3 point(s) measured" in out
        assert out.count(": done") == 3

    def test_resume_when_complete_is_noop(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, out = run_cli("resume", "--run", str(tmp_path / "demo"))
        assert code == 0
        assert "nothing to resume" in out


class TestMergeCommand:
    def test_partial_merge_needs_flag(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "partial",
                "--shard", "0/2")
        code, _ = run_cli("merge", "--run", str(tmp_path / "partial"))
        assert code == 2
        assert "not fully measured" in capsys.readouterr().err
        code, out = run_cli("merge", "--run", str(tmp_path / "partial"),
                            "--allow-partial")
        assert code == 0
        assert "merged 2 of 3 point(s)" in out


class TestErrors:
    def test_missing_run_directory(self, tmp_path, capsys):
        code, _ = run_cli("show", "--run", str(tmp_path / "nope"))
        assert code == 2
        assert "no run manifest" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["nan", "inf", "0"])
    def test_serve_rejects_a_lease_timeout_that_never_expires(
            self, tmp_path, capsys, monkeypatch, timeout):
        import repro.serve.api

        def no_server(*args, **kwargs):
            raise AssertionError("serve got past the broker settings")
        monkeypatch.setattr(repro.serve.api, "create_server", no_server)
        code, _ = run_cli("serve", "--store", str(tmp_path / "store"),
                          "--port", "0", "--lease-timeout", timeout)
        assert code == 2
        assert "timeout_s" in capsys.readouterr().err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("interval", ["-1", "nan", "0"])
    def test_worker_rejects_a_poll_interval_that_busy_loops(
            self, tmp_path, capsys, interval):
        from repro.serve.api import create_server
        from repro.serve.broker import Broker
        broker = Broker(tmp_path / "store")
        server = create_server(broker)
        server.serve_in_thread()
        try:
            code, _ = run_cli("worker", "--broker", server.url,
                              "--exit-when-idle", "--poll-interval",
                              interval)
            workers = broker.status()["workers"]
        finally:
            server.shutdown()
            server.server_close()
            broker.close()
        assert code == 2
        assert "poll_interval_s" in capsys.readouterr().err
        assert workers == []

    @pytest.mark.parametrize("extra, message", [
        (("--seed", "-1"), "seed"),
        (("--workers", "0"), "--workers"),
        (("--scenario", "nope"), "unknown scenario 'nope'"),
        (("--mod", "qam9"), "qam9"),
        (("--mod", "ook", "--backend", "fullstack"), "BPSK-only"),
        (("--adc-bits", "0"), "adc_bits"),
        (("--generation", "gen9"), "generation"),
        (("--backend", "quantum"), "backend"),
    ], ids=["seed", "workers", "scenario", "modulation", "ook-fullstack",
            "adc-bits", "generation", "backend"])
    def test_unrunnable_sweep_fails_before_writing_a_run(
            self, tmp_path, capsys, extra, message):
        code, _ = run_cli(*SWEEP_ARGS, "--out", str(tmp_path), *extra)
        assert code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestObservability:
    CHUNKED = SWEEP_ARGS + ("--chunk-packets", "2")

    def test_telemetry_sweep_report_and_show(self, tmp_path):
        run_dir = tmp_path / "demo"
        code, out = run_cli(*self.CHUNKED, "--out", str(tmp_path),
                            "--name", "demo", "--telemetry")
        assert code == 0
        assert "3 simulated, 0 cached" in out
        assert f"python -m repro report {run_dir}" in out
        assert (run_dir / "events.jsonl").is_file()
        assert (run_dir / "telemetry.json").is_file()

        code, out = run_cli("report", str(run_dir))
        assert code == 0
        assert "chunk.run" in out
        assert "chunk latency (6 chunk(s))" in out
        assert "throughput by scenario" in out
        assert "store.chunks_added" in out

        code, out = run_cli("report", str(run_dir), "--top", "2")
        assert code == 0
        assert "slowest 2 chunk(s)" in out

        code, out = run_cli("show", "--run", str(run_dir))
        assert code == 0
        assert "store     : 6 chunk(s) holding 12 packet(s)" in out
        assert "shard   0 : done (3/3 point(s), 6 chunk(s), " \
               "12 packet(s))" in out
        assert "telemetry : events.jsonl present" in out

    def test_telemetry_results_match_plain_run(self, tmp_path):
        run_cli(*self.CHUNKED, "--out", str(tmp_path), "--name", "plain")
        run_cli(*self.CHUNKED, "--out", str(tmp_path), "--name", "traced",
                "--telemetry", "--workers", "2")
        _, plain = run_cli("merge", "--run", str(tmp_path / "plain"))
        _, traced = run_cli("merge", "--run", str(tmp_path / "traced"))
        # Same curves line for line; only the artifact paths differ.
        assert plain.splitlines()[1:] == traced.splitlines()[1:]

    def test_telemetry_off_writes_no_ledger(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        assert not (tmp_path / "demo" / "events.jsonl").exists()
        code, out = run_cli("show", "--run", str(tmp_path / "demo"))
        assert code == 0
        assert "telemetry" not in out

    def test_progress_draws_on_stderr(self, tmp_path, capsys):
        code, out = run_cli(*self.CHUNKED, "--out", str(tmp_path),
                            "--name", "demo", "--progress")
        assert code == 0
        err = capsys.readouterr().err
        assert "6/6 chunks" in err
        assert "3/3 points" in err
        assert "\r" in err and err.endswith("\n")
        assert "chunks" not in out  # progress never pollutes stdout

    def test_resume_accepts_telemetry_and_progress(self, tmp_path, capsys):
        run_cli(*self.CHUNKED, "--out", str(tmp_path), "--name", "demo",
                "--shard", "0/2")
        code, out = run_cli("resume", "--run", str(tmp_path / "demo"),
                            "--telemetry", "--progress")
        assert code == 0
        assert "run complete" in out
        assert "python -m repro report" in out
        assert (tmp_path / "demo" / "events.jsonl").is_file()
        assert "points" in capsys.readouterr().err

    def test_report_without_ledger_fails_cleanly(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, _ = run_cli("report", str(tmp_path / "demo"))
        assert code == 2
        assert "--telemetry" in capsys.readouterr().err


class TestWarehouseCLI:
    def test_sqlite_sweep_caches_and_matches_jsonl(self, tmp_path):
        code, out = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                            "--name", "wh", "--store-format", "sqlite")
        assert code == 0
        assert "3 simulated, 0 cached" in out
        assert (tmp_path / "wh" / "store" / "warehouse.sqlite").is_file()

        code, out = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                            "--name", "wh", "--store-format", "sqlite")
        assert code == 0
        assert "0 simulated, 3 cached" in out

        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "plain")
        _, sqlite_merge = run_cli("merge", "--run", str(tmp_path / "wh"))
        _, jsonl_merge = run_cli("merge", "--run", str(tmp_path / "plain"))
        # Same curves line for line; only the artifact paths differ.
        assert sqlite_merge.splitlines()[1:] == jsonl_merge.splitlines()[1:]

        code, out = run_cli("show", "--run", str(tmp_path / "wh"))
        assert code == 0
        assert "packet(s) [sqlite]" in out

    def test_existing_format_conflict_fails_cleanly(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, _ = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                          "--name", "demo", "--store-format", "sqlite")
        assert code == 2
        assert "store migrate" in capsys.readouterr().err

    def test_store_migrate_run_then_cached_rerun(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        run_dir = tmp_path / "demo"

        code, out = run_cli("store", "migrate", str(run_dir), "--dry-run")
        assert code == 0
        assert "would copy 3 of 3 chunk(s)" in out
        assert not (run_dir / "store" / "warehouse.sqlite").exists()

        code, out = run_cli("store", "migrate", str(run_dir))
        assert code == 0
        assert "copied 3 of 3 chunk(s)" in out
        assert "manifest store_format set to sqlite" in out
        assert (run_dir / "store" / "warehouse.sqlite").is_file()

        # The migrated run serves the next sweep entirely from sqlite.
        code, out = run_cli(*SWEEP_ARGS, "--out", str(tmp_path),
                            "--name", "demo")
        assert code == 0
        assert "0 simulated, 3 cached" in out
        code, out = run_cli("show", "--run", str(run_dir))
        assert "packet(s) [sqlite]" in out

    def test_store_gc_compacts_migrated_run(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo",
                "--chunk-packets", "2")
        run_dir = tmp_path / "demo"
        run_cli("store", "migrate", str(run_dir))
        code, out = run_cli("store", "gc", str(run_dir),
                            "--keep-runs", "1")
        assert code == 0
        assert "dropped 0 of 3 key(s)" in out
        assert "compacted 6 chunk(s)" in out
        # Lookups survive the compaction: the re-run is still all cached.
        code, out = run_cli("sweep", "--ebn0", "4:8:2", "--packets", "4",
                            "--payload-bits", "32", "--chunk-packets", "2",
                            "--out", str(tmp_path), "--name", "demo")
        assert "0 simulated, 3 cached" in out

    def test_store_gc_requires_sqlite(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, _ = run_cli("store", "gc", str(tmp_path / "demo"))
        assert code == 2
        assert "store migrate" in capsys.readouterr().err

    def test_query_run_directory(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo",
                "--store-format", "sqlite")
        run_dir = tmp_path / "demo"
        code, out = run_cli("query", str(run_dir))
        assert code == 0
        assert "query matched 3 point(s) across 1 curve(s)" in out
        assert "awgn/bpsk" in out

        code, out = run_cli("query", str(run_dir), "--ebn0-min", "5",
                            "--ebn0-max", "7")
        assert "query matched 1 point(s)" in out

        code, out = run_cli("query", str(run_dir), "--scenario", "cm1")
        assert "query matched 0 point(s)" in out

        code, out = run_cli("query", str(run_dir), "--validate")
        assert "validation: all escalations consistent" in out

    def test_query_export_writes_artifact(self, tmp_path):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo",
                "--store-format", "sqlite")
        run_dir = tmp_path / "demo"
        code, out = run_cli("query", str(run_dir), "--export", "assembled")
        assert code == 0
        assert "exported" in out
        artifact = load_artifact(run_dir / "artifacts" / "assembled.json")
        assert artifact.metadata["source"] == "query"
        assert artifact.metadata["points"] == 3
        # The exported curve equals the run's own merged artifact.
        run_cli("merge", "--run", str(run_dir))
        merged = load_artifact(run_dir / "artifacts" / "demo.json")
        assert artifact.curves["awgn/bpsk"].points == \
            merged.curves["awgn/bpsk"].points

    def test_query_requires_sqlite(self, tmp_path, capsys):
        run_cli(*SWEEP_ARGS, "--out", str(tmp_path), "--name", "demo")
        code, _ = run_cli("query", str(tmp_path / "demo"))
        assert code == 2
        assert "store migrate" in capsys.readouterr().err


class TestCustomConfigRun:
    """A run created from a custom base config reads like any other; only
    simulating needs the engine back."""

    @staticmethod
    def _create(tmp_path, store_format):
        from repro.core.config import Gen2Config
        from repro.runs import RunDriver
        engine = SweepEngine(config=Gen2Config.fast_test_config(), seed=3)
        driver = RunDriver.create(
            tmp_path / "custom", engine, sweep_grid([4.0, 8.0]),
            num_packets=4, payload_bits_per_packet=32, num_shards=2,
            store_format=store_format)
        driver.run_shard(0)
        return driver

    @pytest.fixture
    def custom_run(self, tmp_path):
        return self._create(tmp_path, "sqlite")

    def test_migrated_run_is_queryable(self, tmp_path):
        run_dir = str(self._create(tmp_path, "jsonl").run_dir)
        code, out = run_cli("store", "migrate", run_dir)
        assert code == 0
        assert "point metadata and run registry populated" in out
        code, out = run_cli("query", run_dir)
        assert code == 0
        assert "query matched 1 point(s)" in out

    def test_show_and_merge_read_the_run(self, custom_run):
        run_dir = str(custom_run.run_dir)
        code, out = run_cli("show", "--run", run_dir)
        assert code == 0
        assert "coverage  : 1/2 point(s) measured" in out
        code, out = run_cli("merge", "--run", run_dir, "--allow-partial")
        assert code == 0
        assert "merged 1 of 2 point(s)" in out

    def test_store_gc_keeps_the_runs_own_keys(self, custom_run):
        store = custom_run.open_store()
        try:
            keys_before = set(store.keys())
        finally:
            store.close()
        assert len(keys_before) == 1
        code, out = run_cli("store", "gc", str(custom_run.run_dir),
                            "--keep-runs", "0")
        assert code == 0
        assert "dropped 0 of 1 key(s)" in out
        store = custom_run.open_store()
        try:
            assert set(store.keys()) == keys_before
        finally:
            store.close()

    def test_resume_still_needs_the_engine(self, custom_run, capsys):
        code, _ = run_cli("resume", "--run", str(custom_run.run_dir),
                          "--telemetry")
        assert code == 2
        assert "custom base config" in capsys.readouterr().err
