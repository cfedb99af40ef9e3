"""CLI export/handle lifecycle regressions.

Pins the three bugfix behaviors: the metrics handle no longer leaks
when the trace open fails, Perfetto points collected before a mid-run
failure are flushed, and harvested metrics reach ``result.metrics``
whether or not ``--metrics-out`` was given.
"""

import builtins
import json

import pytest

import repro.experiments.cli as cli
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
        bad_trace = tmp_path / "nosuchdir" / "trace.jsonl"
        with pytest.raises(OSError):
            cli.main(["table2", "--metrics-out", str(metrics_path),
                      "--trace-out", str(bad_trace)])
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
            return ExperimentResult(key, "fake", rows=[{"v": 1}])

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

    def test_global_registry_metrics_attach_without_metrics_out(
            self, tmp_path, monkeypatch, capsys):
        # --trace-out builds the global registry but (pre-fix) only
        # --metrics-out ever copied it into result.metrics.
        captured = self.capture_result(monkeypatch)
        trace_path = tmp_path / "t.jsonl"
        assert cli.main(["table2", "--trace-out", str(trace_path)]) == 0
        assert captured["result"].metrics, \
            "global-registry metrics not attached without --metrics-out"
        assert "run" in captured["result"].metrics

    def test_attachment_identical_with_and_without_metrics_out(
            self, tmp_path, monkeypatch, capsys):
        captured = self.capture_result(monkeypatch)
        trace_path = tmp_path / "t.jsonl"
        cli.main(["table2", "--trace-out", str(trace_path)])
        without_flag = set(captured["result"].metrics)
        cli.main(["table2", "--trace-out", str(trace_path),
                  "--metrics-out", str(tmp_path / "m.jsonl")])
        with_flag = set(captured["result"].metrics)
        assert without_flag == with_flag == {"run"}


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
    (["table1", "--chaos", "bogus", "--fidelity", "hybrid"],
     ("unknown chaos scenario 'bogus'",)),
    (["table1", "--chaos", "link_flap"],
     ("--chaos does not apply to 'table1'", "robustness")),
    (["fig8", "--fidelity", "hybrid"],
     ("--fidelity does not apply to 'fig8'", "fig13, fig14")),
])
def test_misapplied_chaos_or_fidelity_is_a_usage_error(
        tmp_path, monkeypatch, capsys, argv, needles):
    """A scenario that does not exist, or a flag the experiment would
    silently drop, is rejected at parse time like an unknown key."""
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


def test_flag_tables_match_the_run_signatures():
    """The tables the usage check reads name exactly the experiments
    whose run() has the parameter."""
    import inspect
    from repro.experiments.registry import REGISTRY

    def takers(param):
        return tuple(key for key, entry in REGISTRY.items() if param in
                     inspect.signature(entry.load_module().run).parameters)

    assert takers("chaos") == cli.TAKES_CHAOS
    assert takers("fidelity") == cli.TAKES_FIDELITY


def test_all_still_accepts_chaos_and_fidelity(monkeypatch):
    calls = []

    def fake_run(key, **kwargs):
        calls.append((key, kwargs.get("chaos"), kwargs.get("fidelity")))
        return ExperimentResult(key, "stub")

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    monkeypatch.setattr(cli, "REGISTRY", {"robustness": None, "fig13": None})
    assert cli.main(["all", "--chaos", "link_flap", "--fidelity", "hybrid",
                     "--no-cache"]) == 0
    assert calls == [("robustness", "link_flap", "hybrid"),
                     ("fig13", "link_flap", "hybrid")]
