"""Integration: the experiment registry and quick-preset runs."""

import pytest

from repro.experiments.registry import REGISTRY, run_experiment
from repro.experiments.result import ExperimentResult


def test_registry_covers_every_paper_result():
    expected = {"table1", "table2", "table3", "table4", "table5",
                "fig1", "fig2", "fig7", "fig8", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "robustness",
                "longhaul", "deepdive", "scale"}
    assert set(REGISTRY) == expected


def test_unknown_experiment_rejected():
    with pytest.raises(ValueError):
        run_experiment("fig99")


@pytest.mark.parametrize("key", ["table1", "table2", "table3", "table4",
                                 "fig7"])
def test_analytic_experiments_run_instantly(key):
    result = run_experiment(key)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.format_table()


def test_table1_shape():
    result = run_experiment("table1")
    assert len(result.rows) == 6
    km = result.column("max_km_1_queue")
    assert all(2.0 < v < 6.0 for v in km)


def test_fig7_shape():
    result = run_experiment("fig7")
    dcp = result.column("dcp_mpps")
    chunk = result.column("linked_chunk_mpps")
    assert len(set(dcp)) == 1          # flat
    assert chunk[0] > chunk[-1]        # decaying


def test_fig8_quick():
    result = run_experiment("fig8", preset="quick")
    by = {r["scheme"]: r for r in result.rows}
    assert by["dcp"]["throughput_gbps"] > 5 * by["tcp"]["throughput_gbps"]
    assert by["tcp"]["latency_us"] > 5 * by["dcp"]["latency_us"]
    assert by["dcp"]["throughput_gbps"] > 0.9 * by["gbn"]["throughput_gbps"]


def test_fig10_quick_shape():
    result = run_experiment("fig10", preset="quick")
    worst = result.rows[-1]            # 5% loss
    assert worst["dcp_over_cx5"] > 5.0
    clean = result.rows[0]
    assert 0.8 < clean["dcp_over_cx5"] < 1.25


def test_fig14_ideal_bounds():
    from repro.experiments import fig14_ai_sim as fig14
    from repro.experiments.presets import get_preset
    quick = get_preset("quick")
    ar = fig14.ideal_jct_ns("allreduce", quick)
    a2a = fig14.ideal_jct_ns("alltoall", quick)
    assert ar > a2a > 0  # the ring makes 2(k-1) serial steps


def test_table5_names_the_open_flows_of_an_unfinished_point():
    # A point that stopped at ``max_events`` (flows still open) prints
    # no loss ratio; finished points keep theirs.
    from repro.experiments import table5_ho_loss as table5
    from repro.experiments.presets import get_preset

    def payload(enqueued, dropped, open_flows=0):
        flows = ([{"completed": True}] * (4 - open_flows)
                 + [{"completed": False}] * open_flows)
        return {"flows": flows, "metrics": {"counters": {
            "switch.leaf0.ho_enqueued": enqueued,
            "switch.leaf0.ho_dropped": dropped,
            "link.l0.ho_dropped": 99}}}

    quick = get_preset("quick")
    cells = len(REGISTRY["table5"].points(quick))
    payloads = [payload(1000, 0)] * cells
    payloads[2] = payload(930, 70, open_flows=1)
    rows = table5.merge(payloads, quick).rows
    assert len(rows) == cells
    assert rows[2]["loss_ratio"] == "incomplete: 1/4 flows open"
    assert (rows[2]["ho_packets"], rows[2]["ho_lost"]) == (930, 70)
    assert {r["loss_ratio"] for i, r in enumerate(rows) if i != 2} == {
        "0.000%"}


@pytest.mark.parametrize("key", ["fig13", "fig15", "fig16"])
def test_survivor_percentiles_name_the_open_flows(key):
    # Slowdown percentiles are over completed flows only, so a point
    # with flows still open prints that in its first percentile cell;
    # finished points keep their figures.
    from repro.experiments.presets import get_preset
    from repro.experiments.registry import get_entry

    mod = get_entry(key).load_module()
    quick = get_preset("quick")

    def payload(open_flows=0):
        flows = [{"size_bytes": 10_000 * i, "completed": True,
                  "fct_ns": 30_000 * i, "ideal_fct_ns": 10_000 * i,
                  "timeouts": 0, "retx_pkts": 0} for i in range(1, 5)]
        for rec in flows[len(flows) - open_flows:]:
            rec.update(completed=False, fct_ns=None)
        return {"flows": flows, "metrics": {"counters": {}}}

    payloads = [payload() for _ in get_entry(key).points(quick)]
    payloads[0] = payload(open_flows=1)
    rows = mod.merge(payloads, quick).rows
    assert rows[0]["p50"] == "incomplete: 1/4 flows open"
    assert rows[0]["flows"] == 3
    assert all(r["p50"] == 3.0 for r in rows[1:])


@pytest.mark.parametrize("key", ["fig12", "fig14", "scale"])
def test_a_collective_point_with_open_flows_reports_them(key):
    # A group whose flows did not all complete (a ring step never
    # posted, or the budget ran out) has no JCT: the merge names the
    # open flows instead of raising; finished points keep their JCTs.
    from repro.experiments.presets import get_preset
    from repro.experiments.registry import get_entry

    mod = get_entry(key).load_module()
    quick = get_preset("quick")
    points = get_entry(key).points(quick)

    def payload(point, open_rows=0):
        rows = point.params["flows"]
        flows = [{"tag": row[4], "completed": True, "start_ns": 0,
                  "fct_ns": 1_000_000 + i, "timeouts": 0, "retx_pkts": 0}
                 for i, row in enumerate(rows)]
        for rec in flows[len(flows) - open_rows:]:
            rec.update(completed=False, start_ns=None, fct_ns=None)
        return {"flows": flows, "events": 10,
                "fluid": {"fluid_flows": 0, "escalations": 0}}

    payloads = [payload(pt) for pt in points]
    payloads[1] = payload(points[1], open_rows=3)
    rows = [r for r in mod.merge(payloads, quick).rows
            if r.get("scheme") != "ideal"]
    assert len(rows) == len(points)
    total = len(points[1].params["flows"])
    assert rows[1]["mean_jct_ms"] == f"incomplete: 3/{total} flows open"
    assert all(isinstance(r["mean_jct_ms"], float)
               for i, r in enumerate(rows) if i != 1)


@pytest.mark.parametrize("key", ["fig10", "fig17"])
def test_a_long_flow_that_never_finished_is_not_a_goodput(key):
    # A run that stops at max_events leaves goodput_gbps at 0.0; the
    # cell names the open flow instead, and fig10's ratio is left out.
    from repro.experiments.presets import get_preset
    from repro.experiments.registry import get_entry

    mod = get_entry(key).load_module()
    quick = get_preset("quick")

    def payload(completed=True):
        return {"flows": [{"completed": completed,
                           "goodput_gbps": 8.0 if completed else 0.0}]}

    payloads = [payload() for _ in get_entry(key).points(quick)]
    payloads[1] = payload(completed=False)
    rows = mod.merge(payloads, quick).rows
    cells = [v for row in rows for k, v in row.items() if k.endswith("_gbps")]
    assert cells[1] == "incomplete: 1/1 flows open"
    assert cells[:1] + cells[2:] == [8.0] * (len(cells) - 1)
    if key == "fig10":
        assert rows[0]["dcp_over_cx5"] == "-"
        assert {r["dcp_over_cx5"] for r in rows[1:]} == {1.0}


@pytest.mark.parametrize("key, flows_per_point, open_point, cells", [
    # Point 1 is gbn's latency probe.
    ("fig8", 1, 1, {(0, "latency_us"): "1/1"}),
    ("longhaul", 1, 1, {(0, "dcp_lossy_gbps"): "1/1"}),
    # Point 2 is the second CX5 seed at 1:1: both CX5 cells count the
    # open flow among the five seeds' ten flows.
    ("fig11", 2, 2, {(0, "cx5_ecmp_mean_gbps"): "1/10",
                     (0, "cx5_ecmp_worst_gbps"): "1/10"}),
    ("fig1", 2, 1, {(1, "mean_retx_ratio"): "1/2"}),
])
def test_a_merge_names_open_flows_instead_of_survivors_figures(
        key, flows_per_point, open_point, cells):
    # Synthetic payloads: every flow finished at 8 Gbps with 1 of 10
    # packets retransmitted, except the last flow of point open_point,
    # which stopped at max_events.  Only the cells built from that
    # point name it; with every flow finished, no cell does.
    from repro.experiments.presets import get_preset
    from repro.experiments.registry import get_entry

    mod = get_entry(key).load_module()
    quick = get_preset("quick")

    def notes(open_point):
        def flow(completed):
            return {"completed": completed, "size_bytes": 10_000,
                    "fct_ns": 10_000 if completed else None,
                    "goodput_gbps": 8.0 if completed else 0.0,
                    "data_pkts_sent": 10, "retx_pkts": 1}
        payloads = [{"flows": [flow(True) for _ in range(flows_per_point)],
                     "metrics": {"counters": {}}}
                    for _ in get_entry(key).points(quick)]
        if open_point is not None:
            payloads[open_point]["flows"][-1] = flow(False)
        rows = mod.merge(payloads, quick).rows
        return {(i, k): v for i, row in enumerate(rows)
                for k, v in row.items()
                if isinstance(v, str) and v.startswith("incomplete")}

    assert notes(open_point) == {
        cell: f"incomplete: {count} flows open"
        for cell, count in cells.items()}
    assert notes(None) == {}


def test_result_table_formatting():
    r = ExperimentResult("x", "demo",
                         rows=[{"a": 1, "b": 2.5}, {"a": 3, "c": "z"}])
    text = r.format_table()
    assert "demo" in text and "2.5" in text and "z" in text
    assert r.columns() == ["a", "b", "c"]
    assert r.row_by("a", 3)["c"] == "z"
    with pytest.raises(KeyError):
        r.row_by("a", 99)


def test_cli_list(capsys):
    from repro.experiments.cli import main
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig13" in out and "table5" in out
