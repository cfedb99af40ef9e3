"""Network substrate: packets, links, queues, switches, topologies."""

from repro.net.ecn import EcnMarker, RedProfile, default_red_profile
from repro.net.failures import FailureEvent, FailureInjector
from repro.net.link import Link
from repro.net.packet import (DcpTag, Packet, PacketKind, make_ack, make_cnp,
                              make_data_packet)
from repro.net.pfc import PfcConfig, PfcController
from repro.net.port import EgressPort
from repro.net.queues import ByteQueue, WrrScheduler
from repro.net.routing import (AdaptiveLoadBalancer, EcmpLoadBalancer,
                               SprayLoadBalancer, WeightedLoadBalancer,
                               make_load_balancer)
from repro.net.switch import CONTROL_CLASS, DATA_CLASS, Switch, SwitchConfig
from repro.net.topology import (Fabric, build_clos, build_direct,
                                build_testbed, full_duplex)

__all__ = [
    "AdaptiveLoadBalancer", "ByteQueue", "CONTROL_CLASS", "DATA_CLASS",
    "DcpTag", "EcmpLoadBalancer", "EcnMarker", "EgressPort", "Fabric",
    "FailureEvent", "FailureInjector",
    "Link", "Packet", "PacketKind", "PfcConfig", "PfcController",
    "RedProfile", "SprayLoadBalancer", "Switch", "SwitchConfig",
    "WeightedLoadBalancer", "WrrScheduler", "build_clos",
    "build_direct", "build_testbed", "default_red_profile", "full_duplex",
    "make_ack", "make_cnp", "make_data_packet", "make_load_balancer",
]
