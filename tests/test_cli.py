"""Tests for the CLI --engine option, the `engines` subcommand and
pooled `label`."""

import pytest

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


@pytest.fixture(scope="module")
def label_pcap(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("label") / "day.pcap")
    assert (
        main(
            [
                "generate",
                "--seed",
                "5",
                "--duration",
                "12",
                "--anomaly",
                "sasser",
                "--out",
                path,
            ]
        )
        == 0
    )
    return path


class TestPooledLabel:
    @pytest.mark.parametrize("engine", ["numpy", "python"])
    def test_workers_run_one_task_per_configuration(
        self, label_pcap, tmp_path, engine, monkeypatch
    ):
        """`label --workers 2` submits one `run_detect` per detector
        configuration and writes the `--workers 1` CSV byte for byte."""
        from repro.runner import worker
        from repro.runner.config import PipelineConfig
        from repro.runner.pool import WorkerPool

        submitted = []
        real_submit = WorkerPool.submit

        def spy(pool, fn, item):
            submitted.append(fn)
            return real_submit(pool, fn, item)

        monkeypatch.setattr(WorkerPool, "submit", spy)
        outputs = {}
        for workers in ("1", "2"):
            outputs[workers] = tmp_path / f"labels-{workers}.csv"
            argv = ["label", label_pcap, "--engine", engine]
            argv += ["--workers", workers, "--out", str(outputs[workers])]
            assert main(argv) == 0
        n_configs = len(PipelineConfig().build_pipeline().ensemble)
        assert submitted == [worker.run_detect] * n_configs
        assert outputs["1"].read_bytes() == outputs["2"].read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["label", "x.pcap", "--fanout", "detector"],
            ["label-archive", "--out-dir", "o", "--fanout", "detector"],
            ["label-archive", "--out-dir", "o", "--transport", "shm"],
        ],
    )
    def test_removed_pool_options_rejected(self, argv):
        """The call picks its unit of work and shared memory is the only
        transport, so neither option parses any more."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
