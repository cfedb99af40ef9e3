"""Benchmarks for the analytic results: Tables 1-4 and Fig 7."""

from benchmarks.conftest import run_key


def test_table1_lossless_distance(benchmark):
    result = run_key(benchmark, "table1")
    rows = {r["asic"]: r for r in result.rows}
    # paper: ~4.1 km for Tomahawk 3, ~2.6 km for the 800G parts
    assert 3.5 < rows["Tomahawk 3"]["max_km_1_queue"] < 4.5
    assert rows["Tomahawk 5"]["max_km_1_queue"] < rows["Tofino 1"][
        "max_km_1_queue"]
    assert all(r["max_km_1_queue"] < 10 for r in result.rows)


def test_table2_requirements(benchmark):
    result = run_key(benchmark, "table2")
    dcp = result.row_by("scheme", "DCP")
    assert all(dcp[r] == "yes" for r in ("R1", "R2", "R3", "R4"))
    others = [r for r in result.rows if r["scheme"] != "DCP"]
    assert all(any(row[k] == "no" for k in ("R1", "R2", "R3", "R4"))
               for row in others)


def test_table3_tracking_memory(benchmark):
    result = run_key(benchmark, "table3")
    by = {r["scheme"]: r for r in result.rows}
    assert by["BDP-sized"]["per_qp"] == "320B"
    assert by["DCP"]["per_qp"] == "32B"


def test_table4_resources(benchmark):
    result = run_key(benchmark, "table4")
    dcp = result.row_by("scheme", "dcp")
    # paper: +1.7% LUT / +1.1% BRAM; ours must stay in the same class
    assert float(dcp["logic_delta"].strip("%+")) < 3.0
    assert float(dcp["nic_mem_delta"].strip("%+")) < 3.0


def test_fig7_packet_rate(benchmark):
    result = run_key(benchmark, "fig7")
    first, last = result.rows[0], result.rows[-1]
    assert first["dcp_mpps"] == last["dcp_mpps"]          # flat ~50 Mpps
    assert 45 <= first["dcp_mpps"] <= 55
    assert last["linked_chunk_mpps"] < first["linked_chunk_mpps"]
