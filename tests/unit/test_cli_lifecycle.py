"""CLI export/handle lifecycle regressions.

Pins the three bugfix behaviors: the metrics handle does not leak when
the Perfetto trace open fails, Perfetto points collected before a
mid-run failure are flushed, and the points' metrics reach
``result.metrics`` whether or not ``--metrics-out`` was given.  Every
export reads the result ``run_experiment`` returns, never the runner.
"""

import builtins
import json

import pytest

import repro.experiments.cli as cli
from repro.obs import spans
from repro.experiments.result import ExperimentResult


@pytest.fixture()
def open_tracker(monkeypatch):
    """Track every file object the CLI opens for writing."""
    opened = []
    real_open = builtins.open

    def tracking_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            opened.append((str(file), fh))
        return fh

    monkeypatch.setattr(builtins, "open", tracking_open)
    return opened


class TestHandleLifecycle:
    def test_metrics_fh_closed_when_trace_open_fails(self, tmp_path,
                                                     open_tracker):
        metrics_path = tmp_path / "metrics.jsonl"
        bad_trace = tmp_path / "nosuchdir" / "run.perfetto.json"
        with pytest.raises(OSError):
            cli.main(["table2", "--metrics-out", str(metrics_path),
                      "--perfetto-out", str(bad_trace)])
        metrics_handles = [fh for path, fh in open_tracker
                           if path == str(metrics_path)]
        assert metrics_handles, "metrics file was never opened"
        assert all(fh.closed for fh in metrics_handles), \
            "metrics handle leaked when the trace open raised"

    def test_handles_closed_when_experiment_raises(self, tmp_path,
                                                   monkeypatch,
                                                   open_tracker):
        metrics_path = tmp_path / "metrics.jsonl"

        def boom(key, **kwargs):
            raise RuntimeError("mid-run failure")

        monkeypatch.setattr(cli, "run_experiment", boom)
        with pytest.raises(RuntimeError):
            cli.main(["table2", "--metrics-out", str(metrics_path)])
        assert all(fh.closed for path, fh in open_tracker
                   if path == str(metrics_path))


class TestPartialPerfettoFlush:
    def test_failure_midway_through_all_flushes_collected_spans(
            self, tmp_path, monkeypatch):
        perfetto_path = tmp_path / "run.perfetto.json"
        calls = []

        def fake_run(key, **kwargs):
            calls.append(key)
            if len(calls) >= 2:
                raise RuntimeError("experiment 2 exploded")
            # What run_sweep attaches from a span-recording point.
            return ExperimentResult(
                key, "fake", rows=[{"v": 1}],
                spans={"p0": spans.SpanTracker().to_payload()})

        # Two fake registry keys; the second raises after the first has
        # contributed its span payload to perfetto_points.
        fake_registry = {k: cli.REGISTRY["table2"] for k in ("k1", "k2")}
        monkeypatch.setattr(cli, "REGISTRY", fake_registry)
        monkeypatch.setattr(cli, "run_experiment", fake_run)
        with pytest.raises(RuntimeError):
            cli.main(["all", "--no-cache",
                      "--perfetto-out", str(perfetto_path)])
        assert calls == ["k1", "k2"]
        # Regression: previously nothing was written on the error path.
        assert perfetto_path.is_file()
        trace = json.loads(perfetto_path.read_text())
        assert "traceEvents" in trace
        # k1's point, read off its result.
        assert [e["args"]["name"] for e in trace["traceEvents"]
                if e["name"] == "process_name"] == ["k1/p0"]


class TestMetricsAttachmentSymmetry:
    def capture_result(self, monkeypatch):
        captured = {}
        real = cli.run_experiment

        def wrapper(key, **kwargs):
            result = real(key, **kwargs)
            captured["result"] = result
            return result

        monkeypatch.setattr(cli, "run_experiment", wrapper)
        return captured

    def test_point_metrics_attach_without_metrics_out(
            self, tmp_path, monkeypatch, capsys):
        # --breakdown alone: the points' metrics still reach
        # result.metrics (pre-fix only --metrics-out copied them).
        captured = self.capture_result(monkeypatch)
        assert cli.main(["fig8", "--preset", "quick", "--no-cache",
                         "--breakdown"]) == 0
        assert captured["result"].metrics, \
            "point metrics not attached without --metrics-out"
        assert "scheme-dcp.probe-tput" in captured["result"].metrics

    def test_attachment_identical_with_and_without_metrics_out(
            self, tmp_path, monkeypatch, capsys):
        captured = self.capture_result(monkeypatch)
        argv = ["fig8", "--preset", "quick", "--no-cache", "--breakdown"]
        cli.main(argv)
        without_flag = set(captured["result"].metrics)
        cli.main([*argv, "--metrics-out", str(tmp_path / "m.jsonl")])
        with_flag = set(captured["result"].metrics)
        assert without_flag == with_flag == {
            f"scheme-{scheme}.probe-{kind}" for scheme in ("gbn", "dcp", "tcp")
            for kind in ("tput", "lat")}


def test_unknown_experiment_key_is_a_usage_error(tmp_path, monkeypatch,
                                                 capsys):
    """An unknown key is rejected at parse time: exit status 2, the
    valid keys on stderr, nothing simulated and no cache directory."""
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail(
        "an experiment ran for an unknown key"))
    cache_dir = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        cli.main(["nosuchkey", "--cache-dir", str(cache_dir),
                  "--clear-cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown experiment 'nosuchkey'" in err
    assert "choose from" in err and "fig8" in err and "campaign" in err
    assert not cache_dir.exists()


@pytest.mark.parametrize("argv,needles", [
    (["robustness", "--preset", "quick", "--chaos", "bogus"],
     ("unknown chaos scenario 'bogus'", "choose from", "link_flap")),
    (["table1", "--chaos", "bogus"],
     ("unknown chaos scenario 'bogus'",)),
    (["table1", "--chaos", "link_flap"],
     ("--chaos does not apply to 'table1'", "robustness")),
    (["fig14", "--fidelity", "hybrid"],
     ("unrecognized arguments: --fidelity hybrid",)),
])
def test_misapplied_chaos_or_fidelity_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv, needles):
    """A scenario that does not exist, a flag the experiment would
    silently drop, or the retired ``--fidelity`` flag (the paper tables
    are packet-tier) is rejected at parse time like an unknown key."""
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail(
        "an experiment ran despite a usage error"))
    cache_dir = tmp_path / "cache"
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--cache-dir", str(cache_dir), "--clear-cache"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    for needle in needles:
        assert needle in err
    assert not cache_dir.exists()


def test_flag_tables_match_the_sweep_signatures():
    """The CLI hands a per-key option to robustness alone, so among the
    simulated keys only robustness's campaign() and merge() take one
    (``chaos``); every other simulated key's take the preset and, for
    merge(), the payloads."""
    import inspect
    from repro.experiments.registry import REGISTRY

    for key, entry in REGISTRY.items():
        if not entry.simulation:
            continue
        module = entry.load_module()
        extra = ["chaos"] if key == "robustness" else []
        assert list(inspect.signature(module.campaign).parameters) == [
            "p", *extra], key
        assert list(inspect.signature(module.merge).parameters) == [
            "payloads", "p", *extra], key


def test_all_hands_chaos_to_robustness_alone(monkeypatch):
    """Under ``all``, ``--chaos`` reaches robustness and no other key."""
    calls = []

    def fake_run(key, **kwargs):
        calls.append((key, kwargs.get("chaos")))
        return ExperimentResult(key, "stub")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "REGISTRY", {
        key: cli.REGISTRY[key] for key in ("robustness", "fig13", "table1")})
    assert cli.main(["all", "--chaos", "link_flap", "--no-cache"]) == 0
    assert calls == [("robustness", "link_flap"),
                     ("fig13", None),
                     ("table1", None)]
