"""Tests for the CLI --engine option and the `engines` subcommand."""

from repro.cli import build_parser, main


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
