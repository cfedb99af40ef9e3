"""Integration tests for the experiment harness itself."""

import pytest

from repro.experiments.common import Network, NetworkSpec, build_network
from repro.experiments.presets import PRESETS, get_preset


class TestNetworkSpec:
    def test_pfc_only_for_lossless_schemes(self):
        assert NetworkSpec(transport="gbn").needs_pfc()
        assert NetworkSpec(transport="mp_rdma").needs_pfc()
        assert not NetworkSpec(transport="irn").needs_pfc()
        assert not NetworkSpec(transport="dcp").needs_pfc()
        # forced-loss runs disable PFC even for GBN (the CX5 testbed mode)
        assert not NetworkSpec(transport="gbn", loss_rate=0.01).needs_pfc()

    def test_dcp_gets_trimming_switches(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2)
        assert all(sw.config.enable_trimming for sw in net.fabric.switches)
        assert all(sw.config.wrr_weight > 0 for sw in net.fabric.switches)

    def test_baselines_get_plain_switches(self):
        net = build_network(transport="irn", num_hosts=8, num_leaves=2,
                            num_spines=2)
        assert not any(sw.config.enable_trimming
                       for sw in net.fabric.switches)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport 'quic'"):
            build_network(transport="quic")

    def test_unknown_cc_rejected(self):
        # Refused when the network is built, before any flow asks for a CC.
        with pytest.raises(ValueError, match="unknown cc 'vegas'"):
            build_network(transport="dcp", num_hosts=8, num_leaves=2,
                          num_spines=2, cc="vegas")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError, match="unknown topology 'torus'"):
            build_network(transport="dcp", topology="torus")

    def test_transport_override_validation(self):
        with pytest.raises(AttributeError):
            build_network(transport="dcp", num_hosts=8, num_leaves=2,
                          num_spines=2,
                          transport_overrides={"not_a_field": 1})

    def test_transport_override_applies(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2,
                            transport_overrides={"pcie_rtt_ns": 777})
        assert net.tconfig.pcie_rtt_ns == 777

    def test_rto_scales_with_fabric_rtt(self):
        near = build_network(transport="irn", num_hosts=8, num_leaves=2,
                             num_spines=2, spine_link_delay_ns=1_000)
        far = build_network(transport="irn", num_hosts=8, num_leaves=2,
                            num_spines=2, spine_link_delay_ns=5_000_000)
        assert far.tconfig.rto_ns > near.tconfig.rto_ns


class TestNetworkFlows:
    def test_self_flow_rejected(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2)
        with pytest.raises(ValueError):
            net.open_flow(3, 3, 100, 0)

    def test_reuse_qp_shares_connection(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2)
        net.open_flow(0, 1, 100, 0, reuse_qp=True)
        net.open_flow(0, 1, 100, 1000, reuse_qp=True)
        assert len(net._pair_qps) == 1
        assert len(net.transports[0].qps) == 1

    def test_fresh_qp_per_flow_by_default(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2)
        net.open_flow(0, 1, 100, 0)
        net.open_flow(0, 1, 100, 1000)
        assert len(net.transports[0].qps) == 2

    def test_slowdowns_at_least_one(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2, link_rate=10.0)
        net.open_flow(0, 7, 50_000, 0)
        net.run_until_flows_done(max_events=5_000_000)
        for _flow, sd in net.slowdowns():
            assert sd >= 1.0

    def test_on_complete_callback(self):
        net = build_network(transport="dcp", num_hosts=8, num_leaves=2,
                            num_spines=2)
        fired = []
        net.open_flow(0, 1, 10_000, 0, on_complete=lambda f: fired.append(f))
        net.run_until_flows_done(max_events=5_000_000)
        assert len(fired) == 1


class TestPresets:
    def test_all_presets_exist(self):
        assert set(PRESETS) == {"quick", "default", "full"}

    def test_presets_are_consistent(self):
        for preset in PRESETS.values():
            assert preset.num_hosts == (preset.num_hosts
                                        // preset.num_leaves) * preset.num_leaves
            assert preset.incast_fan_in < preset.num_hosts
            assert (preset.collective_groups * preset.collective_group_size
                    <= preset.num_hosts)

    def test_get_preset_by_name_or_object(self):
        p = get_preset("quick")
        assert get_preset(p) is p
        with pytest.raises(ValueError):
            get_preset("huge")
