"""Tests for the `bench` subcommand and the CLI --engine option."""

import json

from repro.cli import build_parser, main


class TestBenchCommand:
    def test_prints_stage_json(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "5",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "0",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "auto"
        assert set(payload["stages"]) == {
            "detect",
            "extract",
            "graph",
            "combine",
            "label",
        }
        assert all(v >= 0 for v in payload["stages"].values())
        assert payload["total"] >= max(payload["stages"].values())
        assert payload["n_packets"] > 0
        # Fan-out and warehouse legs explicitly skipped.
        assert "fanout" not in payload
        assert "warehouse" not in payload

    def test_records_streaming_throughput(self, capsys):
        """The bench artifact carries the streaming leg's metrics, so
        CI artifacts stay comparable across PRs."""
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "6",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "0",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        streaming = payload["streaming"]
        assert streaming["window"] == 2.0  # duration / 3 default
        assert streaming["hop"] == 1.0
        assert streaming["n_windows"] >= 2
        assert streaming["total_packets"] == payload["n_packets"]
        assert streaming["packets_per_sec"] > 0
        assert streaming["p95_window_latency"] > 0
        assert 0 < streaming["peak_ring_packets"] <= payload["n_packets"]

    def test_streaming_options(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "6",
                    "--stream-window",
                    "3",
                    "--stream-hop",
                    "3",
                    "--stream-chunk",
                    "512",
                    "--fanout-workers",
                    "0",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        streaming = json.loads(capsys.readouterr().out)["streaming"]
        assert streaming["window"] == 3.0
        assert streaming["hop"] == 3.0
        assert streaming["chunk_packets"] == 512

    def test_records_fanout_transport_comparison(self, capsys):
        """The fan-out leg reports packets/sec for every sub-leg
        (single process, pickle pool, shm pool, shm detector fan-out),
        each tagged with its workers / transport / fan-out mode, plus
        the host-relative ratios the CI gate enforces."""
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "4",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "2",
                    "--fanout-traces",
                    "2",
                    "--fanout-packets",
                    "50000",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        fanout = json.loads(capsys.readouterr().out)["fanout"]
        assert fanout["workers"] == 2
        assert fanout["n_traces"] == 2
        assert fanout["total_packets"] > 0
        assert fanout["cpu_count"] >= 1
        labeling = fanout["labeling"]
        specs = {
            "single": (1, "pickle", "shard"),
            "pickle": (2, "pickle", "shard"),
            "shm": (2, "shm", "shard"),
            "shm_detector": (2, "shm", "detector"),
        }
        for name, (workers, transport, mode) in specs.items():
            leg = labeling[name]
            assert leg["workers"] == workers
            assert leg["transport"] == transport
            assert leg["fanout"] == mode
            assert leg["seconds"] > 0
            assert leg["packets_per_sec"] > 0
            # Profile only rides along under --profile.
            assert "profile" not in leg
        assert fanout["shm_vs_single"] > 0
        assert fanout["shm_vs_pickle"] > 0
        for transport in ("pickle", "shm"):
            assert fanout["transport"][transport]["seconds"] > 0
            assert fanout["transport"][transport]["packets_per_sec"] > 0
        assert fanout["transport"]["shipments"] == 2
        assert fanout["shm_speedup"] > 0

    def test_profile_adds_per_phase_breakdown(self, capsys):
        """--profile attaches per-phase wall seconds (export / attach /
        compute / merge / idle) to every labeling sub-leg."""
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "4",
                    "--seed",
                    "7",
                    "--profile",
                    "--fanout-workers",
                    "2",
                    "--fanout-traces",
                    "2",
                    "--fanout-packets",
                    "50000",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        labeling = json.loads(capsys.readouterr().out)["fanout"]["labeling"]
        for name in ("single", "pickle", "shm", "shm_detector"):
            profile = labeling[name]["profile"]
            assert {
                "export",
                "attach",
                "compute",
                "merge",
                "idle",
                "wall",
            } <= set(profile)
            assert profile["compute"] > 0
            assert profile["wall"] > 0
            assert all(v >= 0 for k, v in profile.items()
                       if k not in ("fanout", "transport"))

    def test_records_alarm_path_comparison(self, capsys):
        """The alarm-path leg reports Steps 2-4 alarms/sec for the
        object and columnar data paths over the same alarm set."""
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "5",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "0",
                    "--alarm-path-reps",
                    "2",
                    "--warehouse-days",
                    "0",
                ]
            )
            == 0
        )
        leg = json.loads(capsys.readouterr().out)["alarm_path"]
        assert leg["n_alarms"] > 0
        assert leg["reps"] == 2
        for path in ("object", "columnar"):
            assert leg[path]["seconds"] > 0
            assert leg[path]["alarms_per_sec"] > 0
        assert leg["columnar_speedup"] > 0

    def test_writes_json_file(self, tmp_path):
        out = tmp_path / "bench.json"
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "5",
                    "--engine",
                    "python",
                    "--fanout-workers",
                    "0",
                    "--warehouse-days",
                    "0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["engine"] == "python"

    def test_records_serve_leg(self, capsys):
        """The serve leg reports daemon ingest + query throughput and,
        under --profile, the queue-depth high-water marks the
        regression gate checks against their bounds."""
        assert (
            main(
                [
                    "bench",
                    "--duration",
                    "5",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "0",
                    "--alarm-path-reps",
                    "0",
                    "--serve-queries",
                    "5",
                    "--warehouse-days",
                    "0",
                    "--profile",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        serve = payload["serve"]
        assert serve["n_packets"] == payload["n_packets"]
        assert serve["windows"] >= 1
        assert serve["queries"] == 5
        assert serve["queries_per_sec"] > 0
        assert serve["ingest_packets_per_sec"] > 0
        assert serve["p95_commit_seconds"] > 0
        queue = serve["queues"]["bench"]
        assert 0 < queue["peak_packets"] <= queue["max_packets"]

    def test_records_warehouse_leg(self, capsys):
        """The warehouse leg reports the mmap-vs-CSV query speedup and
        the delta-recompute metrics the CI gate enforces, and the leg
        itself raises if exports drift from the stored CSVs or the
        heuristics-only recompute reruns Step 1."""
        assert (
            main(
                [
                    "bench",
                    "--serve-queries",
                    "0",
                    "--duration",
                    "4",
                    "--seed",
                    "7",
                    "--fanout-workers",
                    "0",
                    "--alarm-path-reps",
                    "0",
                    "--warehouse-days",
                    "2",
                ]
            )
            == 0
        )
        leg = json.loads(capsys.readouterr().out)["warehouse"]
        assert leg["days"] == 2
        assert leg["full_label_seconds"] > 0
        assert leg["cold_open_seconds"] >= 0
        assert leg["warehouse_queries_per_sec"] > 0
        assert leg["csv_queries_per_sec"] > 0
        assert leg["query_speedup"] > 0
        recompute = leg["recompute"]
        assert recompute["step1_reruns"] == 0
        assert recompute["segment_hits"] == 2
        assert recompute["days_changed"] >= 0
        assert recompute["recompute_speedup"] > 0

    def test_engine_choices_validated(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "--engine", "numpy"])
        assert args.engine == "numpy"


class TestEngineOption:
    def test_label_accepts_engine(self):
        parser = build_parser()
        args = parser.parse_args(["label", "x.pcap", "--engine", "python"])
        assert args.engine == "python"

    def test_label_archive_engine_reaches_config(self):
        from repro.cli import _pipeline_config

        parser = build_parser()
        args = parser.parse_args(
            ["label-archive", "--out-dir", "o", "--engine", "python"]
        )
        assert _pipeline_config(args).engine == "python"


class TestEnginesCommand:
    def test_lists_engines_and_kernels(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "numpy (vectorized)" in out
        assert "python (reference)" in out
        assert "auto selects this engine" in out
        # Every canonical kernel family is listed for both engines.
        from repro.engine import KERNEL_OPS

        for op in KERNEL_OPS:
            assert out.count(op) >= 2
