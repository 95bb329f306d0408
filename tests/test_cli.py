"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table", "5"])
        assert args.number == 5
        with pytest.raises(SystemExit):
            parser.parse_args(["table", "2"])  # heavy exhibits are benches

    def test_crawl_defaults(self):
        args = build_parser().parse_args(["crawl"])
        assert args.scale == "tiny"
        assert args.contact_ratio == 1
        assert not args.hard_hitter

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTableCommand:
    def test_table1(self, capsys):
        assert main(["table", "1"]) == 0
        out = capsys.readouterr().out
        assert "Anti-recon measures" in out

    def test_table5(self, capsys):
        assert main(["table", "5"]) == 0
        assert "ZeroAccess" in capsys.readouterr().out

    def test_table6(self, capsys):
        assert main(["table", "6"]) == 0
        assert "Sensor injection" in capsys.readouterr().out


class TestChaosCommand:
    def test_list_kinds(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        assert "burst-loss" in out
        assert "leader-crash" in out

    def test_unknown_kind_rejected(self, capsys):
        assert main(["chaos", "--kinds", "meteor-strike"]) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_bad_intensity_rejected(self, capsys):
        assert main(["chaos", "--kinds", "baseline", "--intensities", "1.5"]) == 2
        assert "intensities" in capsys.readouterr().err

    def test_chaos_matrix_prints_degradation_report(self, capsys):
        assert main([
            "chaos", "--kinds", "baseline", "blackout",
            "--intensities", "0.2", "--hours", "2", "--sensors", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "coverage" in out
        assert "blackout" in out

    def test_chaos_json_output(self, capsys):
        import json

        assert main([
            "chaos", "--kinds", "burst-loss",
            "--intensities", "0.2", "--hours", "2", "--sensors", "8", "--json",
        ]) == 0
        cells = json.loads(capsys.readouterr().out)
        assert len(cells) == 1
        assert cells[0]["kind"] == "burst-loss"
        assert 0.0 <= cells[0]["coverage"] <= 1.0


class TestTopoCommand:
    def test_info(self, capsys):
        assert main(["topo", "info", "--topology", "synth:7"]) == 0
        out = capsys.readouterr().out
        assert "synth:7" in out
        assert "AS1:" in out

    def test_paths(self, capsys):
        assert main([
            "topo", "paths", "--topology", "synth:7", "--count", "3", "--seed", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("->") >= 3

    def test_explicit_pair(self, capsys):
        assert main([
            "topo", "paths", "--topology", "synth:7", "--src", "6", "--dst", "7",
        ]) == 0
        assert "AS6 -> AS7" in capsys.readouterr().out

    def test_flat_rejected(self, capsys):
        assert main(["topo", "info"]) == 2
        assert "topology" in capsys.readouterr().err

    def test_bad_spec_rejected(self, capsys):
        assert main(["topo", "info", "--topology", "mesh:1"]) == 2

    def test_chaos_as_cut_without_topology_rejected(self, capsys):
        assert main([
            "chaos", "--kinds", "as-cut", "--intensities", "0.5",
            "--hours", "1", "--sensors", "4",
        ]) == 2
        assert "topology" in capsys.readouterr().err

    def test_crawl_accepts_topology(self, capsys):
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--topology", "synth:7",
        ]) == 0

    def test_crawl_output_identical_with_and_without_flat_spec(self, capsys):
        assert main(["crawl", "--hours", "1", "--sensors", "4", "--seed", "3"]) == 0
        plain = capsys.readouterr().out
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--topology", "flat",
        ]) == 0
        assert capsys.readouterr().out == plain


class TestCrawlCommand:
    def test_crawl_runs(self, capsys):
        assert main(["crawl", "--hours", "2", "--sensors", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "distinct IPs" in out
        assert "edges collected" in out

    def test_detect_runs(self, capsys):
        assert main(
            ["detect", "--hours", "3", "--sensors", "16", "--seed", "3", "--hard-hitter"]
        ) == 0
        out = capsys.readouterr().out
        assert "coverage-based detection" in out
        assert "DETECTED" in out


class TestObservabilityFlags:
    def test_crawl_writes_trace_and_metrics(self, tmp_path, capsys):
        import json

        trace = str(tmp_path / "crawl.trace.jsonl")
        metrics = str(tmp_path / "crawl.metrics.json")
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--trace", trace, "--metrics", metrics,
        ]) == 0
        events = [json.loads(line) for line in open(trace) if line.strip()]
        assert events
        assert {e["cat"] for e in events} >= {"net", "crawler"}
        snapshot = json.load(open(metrics))
        assert snapshot["net.sent"]["values"][""] > 0
        assert "sched.dispatched" in snapshot

    def test_trace_output_is_deterministic(self, tmp_path, capsys):
        runs = []
        for name in ("a.jsonl", "b.jsonl"):
            path = tmp_path / name
            assert main([
                "crawl", "--hours", "1", "--sensors", "4", "--seed", "7",
                "--trace", str(path),
            ]) == 0
            capsys.readouterr()
            runs.append(path.read_bytes())
        assert runs[0] == runs[1]

    def test_flight_recorder_caps_trace(self, tmp_path, capsys):
        trace = str(tmp_path / "capped.jsonl")
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--trace", trace, "--flight-recorder", "100",
        ]) == 0
        assert sum(1 for line in open(trace) if line.strip()) == 100

    def test_metrics_dash_prints_to_stdout(self, capsys):
        import json

        assert main([
            "detect", "--hours", "2", "--sensors", "8", "--seed", "3",
            "--metrics", "-",
        ]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        snapshot = json.loads(out[start:])
        assert "detect.rounds" in snapshot


class TestProfilingAndTelemetryFlags:
    def test_crawl_profile_writes_speedscope(self, tmp_path, capsys):
        import json

        path = tmp_path / "crawl.speedscope.json"
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--profile", str(path),
        ]) == 0
        doc = json.loads(path.read_text())
        assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
        assert doc["profiles"][0]["samples"]

    def test_crawl_profile_emits_speedscope_and_breakdown(self, tmp_path, capsys, monkeypatch):
        import json

        monkeypatch.chdir(tmp_path)
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--profile", "crawl.ss.json",
        ]) == 0
        doc = json.loads((tmp_path / "crawl.ss.json").read_text())
        assert doc["profiles"][0]["samples"]
        err = capsys.readouterr().err
        assert "profile -> crawl.ss.json" in err
        assert "profile: window" in err and "attributed" in err
        assert "hottest sites:" in err

    def test_crawl_profile_collapsed_suffix(self, tmp_path, capsys):
        path = tmp_path / "crawl.collapsed"
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--profile", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        assert lines and all(len(l.rsplit(" ", 1)) == 2 for l in lines)

    def test_crawl_telemetry_stream_and_top(self, tmp_path, capsys):
        import json

        path = tmp_path / "crawl.telemetry.jsonl"
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--telemetry", str(path),
        ]) == 0
        capsys.readouterr()
        snapshots = [json.loads(l) for l in open(path) if l.strip()]
        assert snapshots  # finalize guarantees at least one
        assert snapshots[-1]["dispatched"] > 0
        # repro top replays the stream.
        assert main(["top", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ev/s" in out and "sim" in out

    def test_top_missing_or_empty_file_is_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["top", str(empty)]) == 1

    def test_crawl_output_identical_with_profiling_enabled(self, tmp_path, capsys):
        base_args = ["crawl", "--hours", "1", "--sensors", "4", "--seed", "7"]
        assert main(base_args) == 0
        bare = capsys.readouterr().out
        assert main(base_args + [
            "--profile", str(tmp_path / "p.speedscope.json"),
            "--telemetry", str(tmp_path / "t.jsonl"),
        ]) == 0
        instrumented = capsys.readouterr().out
        assert instrumented == bare

    def test_sweep_live_requires_hosts(self, capsys):
        assert main(["sweep", "fig2", "--live"]) == 2
        assert "--live" in capsys.readouterr().err


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace.jsonl")
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_summary(self, trace_file, capsys):
        assert main(["trace", "summary", trace_file]) == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "net" in out

    def test_events_tail_and_category_filter(self, trace_file, capsys):
        assert main(["trace", "events", trace_file, "--cat", "crawler", "--tail", "5"]) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line]
        assert 0 < len(lines) <= 5
        assert all("crawler" in line for line in lines)

    def test_convert_emits_chrome_trace(self, trace_file, capsys, tmp_path):
        import json

        out_path = str(tmp_path / "run.chrome.json")
        assert main(["trace", "convert", trace_file, "-o", out_path]) == 0
        doc = json.load(open(out_path))
        assert "traceEvents" in doc
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert "M" in phases and "i" in phases

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        assert main(["trace", "summary", str(tmp_path / "nope.jsonl")]) == 2
        assert capsys.readouterr().err

    def test_gzip_trace_read_transparently(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace.jsonl.gz")
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--trace", path,
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summary", path]) == 0
        assert "events" in capsys.readouterr().out


class TestAnalyzeAndReport:
    @pytest.fixture()
    def trace_file(self, tmp_path, capsys):
        path = str(tmp_path / "run.trace.jsonl")
        assert main([
            "crawl", "--hours", "1", "--sensors", "4", "--seed", "3",
            "--trace", path,
        ]) == 0
        capsys.readouterr()
        return path

    def test_analyze_renders_health(self, trace_file, capsys):
        assert main(["trace", "analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "distinct IPs" in out
        assert "budget burn" in out
        assert "network:" in out

    def test_analyze_json_schema(self, trace_file, capsys):
        import json

        assert main(["trace", "analyze", trace_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro-health/1"
        assert doc["events"]["total"] > 0

    def test_report_embeds_analyze_json_byte_for_byte(self, trace_file, capsys, tmp_path):
        from repro.obs.analyze import extract_embedded_json

        assert main(["trace", "analyze", trace_file, "--json"]) == 0
        analyze_json = capsys.readouterr().out.rstrip("\n")
        out_path = str(tmp_path / "report.html")
        assert main(["report", trace_file, "-o", out_path]) == 0
        capsys.readouterr()
        with open(out_path, encoding="utf-8") as stream:
            html = stream.read()
        assert extract_embedded_json(html) == analyze_json

    def test_report_default_output_name(self, trace_file, capsys):
        import os

        assert main(["report", trace_file]) == 0
        out = capsys.readouterr().out
        expected = trace_file[: -len(".jsonl")] + ".report.html"
        assert expected in out
        assert os.path.exists(expected)

    def test_diff_identical_and_divergent(self, tmp_path, capsys):
        paths = {}
        for name, seed in (("a", "3"), ("b", "3"), ("c", "5")):
            path = str(tmp_path / f"{name}.jsonl")
            assert main([
                "crawl", "--hours", "1", "--sensors", "4", "--seed", seed,
                "--trace", path,
            ]) == 0
            capsys.readouterr()
            paths[name] = path
        assert main(["trace", "diff", paths["a"], paths["b"]]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["trace", "diff", paths["a"], paths["c"]]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert "indicator deltas" in out

    def test_diff_requires_two_files(self, capsys, tmp_path):
        path = str(tmp_path / "only.jsonl")
        open(path, "w").close()
        assert main(["trace", "diff", path]) == 2
        assert capsys.readouterr().err


class TestSweepHealthFlag:
    def test_sweep_health_prints_indicators(self, capsys):
        assert main([
            "sweep", "fig3-zeus", "--scale", "tiny", "--workers", "1", "--health",
        ]) == 0
        out = capsys.readouterr().out
        assert "sweep health" in out
        assert "points captured metrics" in out
