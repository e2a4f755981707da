"""Coverage for ``python -m repro.serve`` argument parsing and validation.

Parsing is checked through :func:`repro.serve.__main__.build_parser`
(flag spellings, defaults, choices) and invalid *combinations* through
:func:`repro.serve.__main__.main` -- every rejection must happen before
any model is resolved, so these tests run in milliseconds despite driving
the real entry point.
"""

from __future__ import annotations

import pytest

from repro.serve.__main__ import build_parser, main as serve_main


class TestFlagParsing:
    def test_defaults(self):
        arguments = build_parser().parse_args([])
        assert arguments.model == "baseline"
        assert arguments.shards is None
        assert arguments.replicas == 1
        assert arguments.routing == "round_robin"
        assert arguments.mode == "thread"
        assert arguments.port is None
        assert arguments.http_port is None
        assert arguments.synthetic == 256
        assert arguments.duplicate_fraction == 0.25
        assert arguments.batch_size == 32
        assert arguments.cache_size == 2048
        assert arguments.cache_policy == "lru"
        assert arguments.autotune is False

    def test_all_serving_flags_parse(self, tmp_path):
        arguments = build_parser().parse_args(
            [
                "--shards", "baseline,feature_filter_3x3",
                "--replicas", "3",
                "--routing", "least_loaded",
                "--mode", "process",
                "--port", "0",
                "--http-port", "8080",
                "--host", "0.0.0.0",
                "--batch-size", "16",
                "--cache-size", "512",
                "--cache-policy", "tinylfu",
                "--autotune",
                "--registry-dir", str(tmp_path),
                "--synthetic", "64",
                "--duplicate-fraction", "0.5",
                "--seed", "7",
            ]
        )
        assert arguments.shards == "baseline,feature_filter_3x3"
        assert arguments.replicas == 3
        assert arguments.routing == "least_loaded"
        assert arguments.mode == "process"
        assert arguments.port == 0
        assert arguments.http_port == 8080
        assert arguments.host == "0.0.0.0"
        assert arguments.batch_size == 16
        assert arguments.cache_size == 512
        assert arguments.cache_policy == "tinylfu"
        assert arguments.autotune is True
        assert arguments.seed == 7

    @pytest.mark.parametrize(
        "argv",
        [
            ["--mode", "fiber"],
            ["--routing", "random"],
            ["--cache-policy", "arc"],
            ["--replicas", "two"],
            ["--port", "http"],
            ["--http-port", "socket"],
            ["--images", "x", "--synthetic", "9"],  # mutually exclusive
        ],
    )
    def test_argparse_rejections(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)


class TestCombinationValidation:
    """main() must reject inconsistent flag combinations before any training."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--duplicate-fraction", "1.5"], "duplicate-fraction"),
            (["--duplicate-fraction", "-0.1"], "duplicate-fraction"),
            (["--replicas", "0"], "replicas"),
            (["--port", "0", "--mode", "sync"], "--port"),
            (["--http-port", "0", "--mode", "sync"], "--http-port"),
            (["--port", "7860", "--http-port", "7860"], "must differ"),
            (["--mode", "process"], "--mode process"),
            (["--compare-naive", "--shards", "baseline,input_filter_3x3"], "compare-naive"),
            (["--compare-single-queue"], "compare-single-queue"),
            (["--cache-policy", "tinylfu", "--cache-size", "0"], "cache-policy"),
            (["--batch-size", "0"], "batch-size"),
            (["--batch-size", "-4"], "batch-size"),
            (["--shards", " , "], "--shards"),
        ],
    )
    def test_invalid_combinations_exit_with_message(self, argv, fragment):
        with pytest.raises(SystemExit) as excinfo:
            serve_main(argv)
        assert fragment in str(excinfo.value)

    def test_valid_combinations_pass_validation(self):
        """Flag sets that must NOT be rejected (resolution fails later,
        on an unknown variant, proving validation was passed)."""

        for argv in (
            ["--mode", "process", "--shards", "nope_variant"],
            ["--http-port", "0", "--model", "nope_variant"],
            ["--port", "7860", "--http-port", "8080", "--model", "nope_variant"],
            ["--autotune", "--mode", "sync", "--model", "nope_variant"],
            ["--cache-policy", "tinylfu", "--model", "nope_variant"],
            ["--cache-policy", "lru", "--cache-size", "0", "--model", "nope_variant"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                serve_main(argv)
            assert "nope_variant" in str(excinfo.value)

    def test_list_models_short_circuits(self, capsys):
        assert serve_main(["--list-models"]) == 0
        printed = capsys.readouterr().out
        assert "baseline" in printed
