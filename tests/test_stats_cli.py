"""Tests for repro.net.stats and the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.net.stats import compute_stats
from repro.net.trace import Trace


class TestStats:
    def test_empty_trace(self):
        stats = compute_stats(Trace([]))
        assert stats.n_packets == 0
        assert stats.packet_rate == 0.0

    def test_counts(self, tiny_trace):
        stats = compute_stats(tiny_trace)
        assert stats.n_packets == len(tiny_trace)
        assert stats.n_bytes == tiny_trace.total_bytes
        assert stats.n_uniflows == len(tiny_trace.flows())
        assert stats.n_src_hosts == 3

    def test_proto_fractions_sum_to_one(self, archive_day):
        stats = compute_stats(archive_day.trace)
        assert sum(stats.proto_fractions.values()) == pytest.approx(1.0)

    def test_entropy_fields(self, archive_day):
        stats = compute_stats(archive_day.trace)
        assert set(stats.entropy) == {"src", "dst", "sport", "dport"}
        assert all(v > 0 for v in stats.entropy.values())

    def test_describe_renders(self, archive_day):
        text = compute_stats(archive_day.trace).describe()
        assert "packets" in text
        assert "entropy" in text

    def test_top_lists_bounded(self, archive_day):
        stats = compute_stats(archive_day.trace, top=3)
        assert len(stats.top_dports) <= 3
        assert len(stats.top_talkers) <= 3


@pytest.fixture
def pcap_file(tmp_path):
    path = str(tmp_path / "t.pcap")
    code = main(
        [
            "generate",
            "--seed",
            "3",
            "--duration",
            "15",
            "--anomaly",
            "syn_flood",
            "--out",
            path,
            "--truth",
            str(tmp_path / "truth.json"),
        ]
    )
    assert code == 0
    return path


class TestCLI:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["inspect", "x.pcap"])
        assert args.command == "inspect"

    def test_generate_writes_truth(self, tmp_path):
        out = str(tmp_path / "a.pcap")
        truth = str(tmp_path / "a.json")
        assert (
            main(
                [
                    "generate",
                    "--seed",
                    "1",
                    "--duration",
                    "10",
                    "--anomaly",
                    "sasser",
                    "--out",
                    out,
                    "--truth",
                    truth,
                ]
            )
            == 0
        )
        with open(truth) as fh:
            events = json.load(fh)
        assert events[0]["kind"] == "sasser"
        assert events[0]["n_packets"] > 0

    def test_inspect(self, pcap_file, capsys):
        assert main(["inspect", pcap_file]) == 0
        out = capsys.readouterr().out
        assert "packets" in out

    def test_detect(self, pcap_file, capsys):
        assert main(["detect", pcap_file, "--config", "kl/sensitive"]) == 0
        out = capsys.readouterr().out
        assert "alarms from kl/sensitive" in out

    def test_label_csv_stdout(self, pcap_file, capsys):
        assert main(["label", pcap_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("community,taxonomy")

    def test_label_xml_to_file(self, pcap_file, tmp_path):
        out_path = str(tmp_path / "labels.xml")
        assert (
            main(["label", pcap_file, "--format", "xml", "--out", out_path])
            == 0
        )
        with open(out_path) as fh:
            content = fh.read()
        assert content.startswith("<?xml")
        assert "<admd" in content

    def test_label_strategy_choice(self, pcap_file, capsys):
        assert main(["label", pcap_file, "--strategy", "average"]) == 0

    def test_archive(self, capsys):
        assert (
            main(
                [
                    "archive",
                    "--start",
                    "2004-01-01",
                    "--months",
                    "2",
                    "--duration",
                    "15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2004-01-01" in out
        assert "2004-02-01" in out

    def test_bad_config_errors(self, pcap_file):
        from repro.errors import DetectorError

        with pytest.raises(DetectorError):
            main(["detect", pcap_file, "--config", "nope/nope"])
