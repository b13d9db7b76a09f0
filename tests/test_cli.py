"""Tests for the command-line interface (in-process, via main())."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, main

DOCS = Path(__file__).resolve().parents[1] / "docs"


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """Run the full CLI pipeline once; later tests reuse its outputs."""
    root = tmp_path_factory.mktemp("cli")
    network = root / "net.json"
    dataset = root / "trips.json"
    model = root / "model.npz"

    assert main(["build-network", "--kind", "region", "--towns", "3",
                 "--seed", "7", "--out", str(network)]) == 0
    assert main(["simulate-fleet", "--network", str(network),
                 "--drivers", "6", "--trips", "4", "--hotspots", "10",
                 "--seed", "0", "--out", str(dataset)]) == 0
    assert main(["train", "--dataset", str(dataset), "--variant", "PR-A2",
                 "--strategy", "D-TkDI", "--k", "3",
                 "--embedding-dim", "8", "--hidden-size", "8",
                 "--epochs", "3", "--out", str(model)]) == 0
    return network, dataset, model


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_build_network_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-network"])

    def test_parser_commands_and_docstring_agree(self):
        """Every subcommand is parsed, dispatched and documented: the
        parser, ``_COMMANDS`` and the module docstring name one set."""
        parser = build_parser()
        [subparsers] = [action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        parsed = set(subparsers.choices)
        documented = set(re.findall(r"python -m repro\.cli ([a-z-]+)",
                                    cli.__doc__))
        assert parsed == set(cli._COMMANDS) == documented

    def test_docstring_examples_parse(self):
        """Each ``python -m repro.cli ...`` example in the module
        docstring is accepted by the parser as written."""
        text = cli.__doc__.replace("\\\n", " ")
        examples = [line.split("python -m repro.cli", 1)[1]
                    for line in text.splitlines()
                    if "python -m repro.cli" in line]
        assert len(examples) == len(cli._COMMANDS)
        parser = build_parser()
        for example in examples:
            args = parser.parse_args(shlex.split(example))
            assert args.command in cli._COMMANDS

    @pytest.mark.parametrize("source", [
        *sorted(path.name for path in DOCS.glob("*.md")), "cli.py"])
    def test_every_documented_flag_exists(self, source):
        """Every ``--flag`` that a ``docs/*.md`` page or the module
        docstring names is a flag of some subcommand, so a deleted flag
        cannot linger in the prose.  Lines about ``bench/`` are skipped:
        its flags belong to ``bench/run.py``."""
        parser = build_parser()
        [subparsers] = [action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        known = {flag for subparser in subparsers.choices.values()
                 for action in subparser._actions
                 for flag in action.option_strings}
        text = cli.__doc__ if source == "cli.py" \
            else (DOCS / source).read_text(encoding="utf-8")
        named = {flag for line in text.splitlines() if "bench" not in line
                 for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*",
                                        line)}
        assert not named - known, sorted(named - known)

    def test_no_subcommand_takes_smoke(self):
        parser = build_parser()
        [subparsers] = [action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)]
        for name, subparser in subparsers.choices.items():
            flags = {flag for action in subparser._actions
                     for flag in action.option_strings}
            assert "--smoke" not in flags, name


class TestBuildNetwork:
    def test_grid(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert main(["build-network", "--kind", "grid", "--rows", "4",
                     "--cols", "4", "--out", str(out)]) == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_osm_export(self, tmp_path):
        out = tmp_path / "ring.json"
        osm = tmp_path / "ring.osm"
        assert main(["build-network", "--kind", "ring", "--out", str(out),
                     "--osm-out", str(osm)]) == 0
        assert osm.exists()

    def test_region_artifacts_loadable(self, artifacts):
        from repro.graph import load_network_json

        network, _, _ = artifacts
        loaded = load_network_json(network)
        assert loaded.is_strongly_connected()


class TestFleetAndTraining:
    def test_dataset_written(self, artifacts):
        from repro.trajectories import TrajectoryDataset

        _, dataset, _ = artifacts
        loaded = TrajectoryDataset.load(dataset)
        assert len(loaded) == 24

    def test_model_written(self, artifacts):
        _, _, model = artifacts
        assert model.exists()

    def test_evaluate_json_output(self, artifacts, capsys):
        _, dataset, model = artifacts
        code = main(["evaluate", "--dataset", str(dataset),
                     "--model", str(model), "--strategy", "D-TkDI",
                     "--k", "3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {"mae", "mare", "tau", "rho"}
        assert 0.0 <= payload["mae"] <= 1.0

    def test_evaluate_human_output(self, artifacts, capsys):
        _, dataset, model = artifacts
        assert main(["evaluate", "--dataset", str(dataset),
                     "--model", str(model), "--k", "3"]) == 0
        assert "MAE=" in capsys.readouterr().out


class TestRank:
    def test_rank_prints_sorted(self, artifacts, capsys):
        from repro.trajectories import TrajectoryDataset

        _, dataset, model = artifacts
        trips = TrajectoryDataset.load(dataset)
        trip = trips[0]
        code = main(["rank", "--dataset", str(dataset), "--model", str(model),
                     "--source", str(trip.source), "--target", str(trip.target)])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("#")]
        assert lines
        scores = [float(line.split("score=")[1].split()[0]) for line in lines]
        assert scores == sorted(scores, reverse=True)

    def test_rank_bad_vertex(self, artifacts, capsys):
        _, dataset, model = artifacts
        code = main(["rank", "--dataset", str(dataset), "--model", str(model),
                     "--source", "0", "--target", "99999"])
        assert code == 2

    def test_rank_k_sizes_the_candidate_list(self, artifacts, capsys):
        """``--k`` used to be read by nothing: ``--k 1`` printed the
        default candidate list (3 paths for this query)."""
        _, dataset, model = artifacts
        code = main(["rank", "--dataset", str(dataset), "--model", str(model),
                     "--source", "0", "--target", "51", "--k", "1"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("#")]
        assert len(lines) == 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rank_non_positive_k_exits_2(self, artifacts, capsys, value):
        _, dataset, model = artifacts
        code = main(["rank", "--dataset", str(dataset), "--model", str(model),
                     "--source", "0", "--target", "51", "--k", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "k must be >= 1" in line


@pytest.fixture(scope="module")
def queries_file(artifacts, tmp_path_factory):
    """An offline replay file with a deliberate repeat query."""
    from repro.graph import load_network_json

    network_path, _, _ = artifacts
    ids = load_network_json(network_path).vertex_ids()
    queries = [
        {"source": ids[0], "target": ids[-1]},
        {"source": ids[1], "target": ids[-2]},
        {"source": ids[0], "target": ids[-1]},  # repeat: must hit the cache
    ]
    path = tmp_path_factory.mktemp("serve") / "queries.json"
    path.write_text(json.dumps(queries))
    return path


class TestServe:
    def test_serve_replays_queries(self, artifacts, queries_file, capsys):
        network, _, model = artifacts
        # One worker answers the replay in order, so the repeat query
        # finds the first one's candidates cached.
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file), "--k", "3",
                     "--concurrency", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit" in out
        assert "served 3 requests" in out

    def test_serve_json_reports_cache_hits(self, artifacts, queries_file,
                                           capsys):
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file), "--k", "3",
                     "--concurrency", "1", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["responses"]) == 3
        assert all(r["served_by"] == "model" for r in payload["responses"])
        assert payload["responses"][2]["candidate_cache_hit"] is True
        # Identical queries must produce identical rankings.
        assert payload["responses"][2]["top_vertices"] == \
            payload["responses"][0]["top_vertices"]
        assert payload["stats"]["candidate_cache"]["hits"] >= 1

    def test_serve_json_failed_request_exits_nonzero(self, artifacts,
                                                     tmp_path, capsys):
        network, _, model = artifacts
        bad = tmp_path / "unreachable.json"
        bad.write_text('[{"source": 0, "target": 99999}]')
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(bad), "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["responses"][0]["served_by"] == "error"
        assert payload["responses"][0]["error_code"] == "invalid_request"
        assert payload["responses"][0]["retry_after_ms"] is None

    def test_serve_missing_model_exits_cleanly(self, artifacts, queries_file,
                                               capsys):
        network, _, _ = artifacts
        code = main(["serve", "--network", str(network),
                     "--model", str(network.parent / "absent.npz"),
                     "--queries-file", str(queries_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_serve_missing_network_exits_cleanly(self, artifacts, queries_file,
                                                 capsys):
        _, _, model = artifacts
        code = main(["serve", "--network", "/nonexistent/net.json",
                     "--model", str(model),
                     "--queries-file", str(queries_file)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_serve_malformed_queries_exits_cleanly(self, artifacts, tmp_path,
                                                   capsys):
        network, _, model = artifacts
        bad = tmp_path / "bad.json"
        bad.write_text('{"queries": "not a list"}')
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_rank_missing_model_exits_cleanly(self, artifacts, capsys):
        _, dataset, _ = artifacts
        code = main(["rank", "--dataset", str(dataset),
                     "--model", "/nonexistent/model.npz",
                     "--source", "0", "--target", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


class TestServeConcurrent:
    def test_serve_through_engine(self, artifacts, queries_file, capsys):
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file), "--k", "3",
                     "--concurrency", "4", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["responses"]) == 3
        assert all(r["served_by"] == "model" for r in payload["responses"])
        # Identical queries must rank identically through the engine too.
        assert payload["responses"][2]["top_vertices"] == \
            payload["responses"][0]["top_vertices"]
        assert payload["stats"]["engine"]["concurrency"] == 4
        assert payload["stats"]["engine"]["occupancy"]["flushes"] >= 1


class TestServeCleanup:
    """``serve`` closes every service it builds, whichever way it exits."""

    @pytest.fixture
    def lifecycle(self, monkeypatch):
        from repro.serving import RankingService

        counts = {"built": 0, "closed": 0}
        real_init, real_close = RankingService.__init__, RankingService.close

        def init(self, *args, **kwargs):
            counts["built"] += 1
            real_init(self, *args, **kwargs)

        def close(self):
            counts["closed"] += 1
            real_close(self)

        monkeypatch.setattr(RankingService, "__init__", init)
        monkeypatch.setattr(RankingService, "close", close)
        return counts

    def test_malformed_queries_file_builds_nothing(self, artifacts, tmp_path,
                                                   lifecycle, capsys):
        network, _, model = artifacts
        bad = tmp_path / "bad.json"
        bad.write_text('[{"source": 0}]')
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(bad)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_request_deadline_builds_nothing(self, artifacts,
                                                        queries_file,
                                                        lifecycle, capsys,
                                                        value):
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file),
                     "--deadline-ms", value])
        assert code == 2
        assert "deadline_ms" in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    def test_shards_flag_is_gone(self, artifacts, queries_file, lifecycle,
                                 capsys):
        network, _, model = artifacts
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--network", str(network), "--model", str(model),
                  "--queries-file", str(queries_file), "--shards", "2"])
        assert exit_info.value.code == 2
        assert "--shards" in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    def test_split_flag_is_gone(self, artifacts, queries_file, lifecycle,
                                capsys):
        network, _, model = artifacts
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--network", str(network), "--model", str(model),
                  "--queries-file", str(queries_file),
                  "--split", "v0001=1"])
        assert exit_info.value.code == 2
        assert "--split" in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("flag, value", [
        ("--fault-spec", "score:error"), ("--fault-seed", "7")])
    def test_fault_flags_are_gone(self, artifacts, queries_file, lifecycle,
                                  capsys, flag, value):
        network, _, model = artifacts
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--network", str(network), "--model", str(model),
                  "--queries-file", str(queries_file), flag, value])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("value", ["2", "inf", "nan", "-1", "1e20"])
    def test_unusable_flush_deadline_exits_cleanly(self, artifacts,
                                                   queries_file, lifecycle,
                                                   capsys, value):
        """The engine flushes when its previous flush ends, so every
        flush deadline, the old default of 2 included, is an unknown
        flag: exit 2 before anything is built."""
        network, _, model = artifacts
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--network", str(network), "--model", str(model),
                  "--queries-file", str(queries_file),
                  "--concurrency", "2", "--flush-deadline-ms", value])
        assert exit_info.value.code == 2
        assert "--flush-deadline-ms" in capsys.readouterr().err
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("field, value", [
        ("source", None), ("k", None), ("source", 0.9), ("target", 399.7),
        ("source", True), ("k", 2.9), ("k", True), ("target", "5"),
    ])
    def test_non_integer_query_field_builds_nothing(
            self, artifacts, queries_file, tmp_path, lifecycle, capsys,
            field, value):
        """``null`` used to escape as a ``TypeError`` traceback, and
        ``int()`` served ``0.9`` as vertex 0 and ``true`` as vertex 1."""
        network, _, model = artifacts
        queries = json.loads(queries_file.read_text())
        queries[1][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(queries))
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:")
        assert "query #1" in line and field in line
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1e10"])
    def test_unusable_metrics_interval_builds_nothing(
            self, artifacts, queries_file, tmp_path, lifecycle, capsys,
            value):
        """``nan`` used to spin the exporter thread, and ``inf`` killed it
        with ``OverflowError``; both runs exited 0."""
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file),
                     "--metrics-out", str(tmp_path / "run.jsonl"),
                     "--metrics-interval-s", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "--metrics-interval-s" in line
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_batch_size_builds_nothing(self, artifacts,
                                                    queries_file, lifecycle,
                                                    capsys, value):
        """``--batch-size -3`` used to answer no query and exit 0, and
        ``--batch-size 0`` failed in ``range()`` after the service was
        built."""
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file),
                     "--batch-size", value])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "--batch-size" in line
        assert lifecycle == {"built": 0, "closed": 0}

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_negative_concurrency_builds_nothing(self, artifacts,
                                                 queries_file, lifecycle,
                                                 capsys, value):
        """``serve`` has one path, the engine, which needs a worker:
        ``--concurrency -1`` used to serve through the synchronous
        facade without a word, and ``0`` selected that facade."""
        network, _, model = artifacts
        code = main(["serve", "--network", str(network), "--model", str(model),
                     "--queries-file", str(queries_file),
                     "--concurrency", value])
        assert code == 2
        [line] = capsys.readouterr().err.strip().splitlines()
        assert line.startswith("error:") and "--concurrency" in line
        assert lifecycle == {"built": 0, "closed": 0}

    def test_failed_activation_closes_the_service(self, artifacts,
                                                  queries_file, tmp_path,
                                                  lifecycle, capsys):
        network, _, _ = artifacts
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(b"not a checkpoint")
        code = main(["serve", "--network", str(network),
                     "--model", str(corrupt),
                     "--queries-file", str(queries_file)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert lifecycle == {"built": 1, "closed": 1}


class TestAnalyticsCommands:
    @pytest.fixture(scope="class")
    def grid_file(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("analytics") / "grid.json"
        assert main(["build-network", "--kind", "grid", "--rows", "5",
                     "--cols", "5", "--seed", "3", "--out", str(out)]) == 0
        return out

    def test_od_matrix_text(self, grid_file, capsys):
        assert main(["od-matrix", "--network", str(grid_file),
                     "--origins", "0,7", "--destinations", "24,12"]) == 0
        out = capsys.readouterr().out
        assert "origin 0:" in out
        assert "4 pairs via" in out

    def test_od_matrix_json(self, grid_file, capsys):
        assert main(["od-matrix", "--network", str(grid_file),
                     "--origins", "0,7", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["origins"] == [0, 7]
        assert payload["destinations"] == [0, 7]
        assert payload["costs"][0][0] == 0.0

    def test_service_area(self, grid_file, capsys):
        assert main(["service-area", "--network", str(grid_file),
                     "--sources", "0,12", "--budgets", "200,500"]) == 0
        out = capsys.readouterr().out
        assert out.count("source 0 budget") == 2
        assert out.count("source 12 budget") == 2

    def test_service_area_json_reverse(self, grid_file, capsys):
        assert main(["service-area", "--network", str(grid_file),
                     "--sources", "12", "--budgets", "300",
                     "--reverse", "--json"]) == 0
        [area] = json.loads(capsys.readouterr().out)
        assert area["reverse"] is True
        assert 12 in area["vertices"]

    def test_route_frequencies(self, grid_file, capsys):
        assert main(["route-frequencies", "--network", str(grid_file),
                     "--pairs", "0:24,7:24", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "2 pairs over" in out

    def test_route_frequencies_pairs_file(self, grid_file, tmp_path,
                                          capsys):
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[0, 24], {"source": 7, "target": 24}]),
                         encoding="utf-8")
        assert main(["route-frequencies", "--network", str(grid_file),
                     "--pairs-file", str(pairs), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["num_pairs"] == 2
        assert payload["unreachable_pairs"] == 0
        assert all(load >= 1.0 for _, _, load in payload["edges"])

    @pytest.mark.parametrize("entry", [
        [None, 24], [0.9, 24], [True, 24], ["1", 24], [0, 23.5],
        {"source": 0.9, "target": 24}, {"source": 7, "target": None},
    ])
    def test_pairs_file_refuses_a_non_integer_vertex(self, grid_file,
                                                     tmp_path, capsys,
                                                     entry):
        """``null`` used to escape as a ``TypeError`` traceback, and
        ``int()`` routed ``0.9`` from vertex 0 and ``true`` or ``"1"``
        from vertex 1."""
        pairs = tmp_path / "pairs.json"
        pairs.write_text(json.dumps([[0, 24], entry]), encoding="utf-8")
        code = main(["route-frequencies", "--network", str(grid_file),
                     "--pairs-file", str(pairs)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error: pair #1: ")
        assert "must be an integer" in line

    def test_malformed_inputs_exit_2(self, grid_file, capsys):
        assert main(["od-matrix", "--network", str(grid_file),
                     "--origins", "zero,one"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["route-frequencies", "--network", str(grid_file),
                     "--pairs", "1-2"]) == 2
        assert main(["route-frequencies", "--network",
                     str(grid_file)]) == 2
        assert main(["service-area", "--network", str(grid_file),
                     "--sources", "0", "--budgets", "cheap"]) == 2

    def test_non_finite_length_exits_2(self, grid_file, tmp_path, capsys):
        """A ``NaN`` road length used to load, and the command answered
        around it with exit 0."""
        document = json.loads(grid_file.read_text(encoding="utf-8"))
        document["edges"][0]["length"] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        assert "NaN" in bad.read_text(encoding="utf-8")
        edge = document["edges"][0]
        code = main(["od-matrix", "--network", str(bad), "--origins",
                     str(edge["source"]), "--destinations",
                     str(edge["target"])])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "length nan" in line

    def test_negative_workers_exit_2(self, grid_file, capsys):
        """``--workers -3`` used to run inline without a word."""
        code = main(["od-matrix", "--network", str(grid_file),
                     "--origins", "0,7", "--workers", "-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "--workers" in line

    def test_negative_top_exits_2(self, grid_file, capsys):
        """``--top -3`` used to print every loaded edge and exit 0."""
        code = main(["route-frequencies", "--network", str(grid_file),
                     "--pairs", "0:24,7:24", "--top", "-3"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.strip().splitlines()
        assert line.startswith("error:") and "--top" in line

    def test_unknown_routing_backend_env_exits_2(self, grid_file):
        """A routing backend the environment names but the code does not
        know is an error, not a silent fallback to the CSR lane."""
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, REPRO_ROUTING_BACKEND="ch", PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "od-matrix", "--network",
             str(grid_file), "--origins", "0,7"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stdout == ""
        assert "Traceback" not in done.stderr
        [line] = done.stderr.strip().splitlines()
        assert line.startswith("error:") and "'ch'" in line


class TestMetricsDump:
    def test_summary_of_a_timeline(self, tmp_path, capsys):
        timeline = tmp_path / "run.jsonl"
        timeline.write_text(
            '{"t": 0.0, "metrics": {"requests": 1}}\n'
            '{"t": 1.0, "metrics": {"requests": 4}}\n', encoding="utf-8")
        assert main(["metrics-dump", "--timeline", str(timeline)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["snapshots"] == 2
        assert payload["series"]["requests"]["delta"] == 3

    @pytest.mark.parametrize("line", ['{"metrics": 5}',
                                      '{"metrics": [1, 2]}', "[1, 2]"],
                             ids=["int-metrics", "list-metrics", "not-object"])
    def test_malformed_records_exit_2(self, tmp_path, capsys, line):
        timeline = tmp_path / "bad.jsonl"
        timeline.write_text(line + "\n", encoding="utf-8")
        assert main(["metrics-dump", "--timeline", str(timeline)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "holds no metrics snapshots" in err
        assert "Traceback" not in err
