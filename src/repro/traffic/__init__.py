"""Traffic substrate: packets, payload sources and rate schedules.

The paper's sender workstation emits *payload* packets at one of a small set
of discrete rates (10 pps or 40 pps in the evaluation).  This subpackage
provides:

* :class:`repro.traffic.packet.Packet` — the unit moved through gateways,
  links and routers.
* :mod:`repro.traffic.sources` — payload generators (constant bit rate and
  Poisson) that push packets into a sink such as a padding gateway or a
  router port.
* :mod:`repro.traffic.schedule` — payload-rate and load schedules: a constant
  rate and the diurnal profile used for the 24-hour campus/WAN experiments
  (Figure 8).
"""

from repro.traffic.packet import Packet, PacketKind
from repro.traffic.schedule import ConstantRateSchedule, DiurnalProfile
from repro.traffic.sources import CBRSource, PoissonSource

__all__ = [
    "Packet",
    "PacketKind",
    "CBRSource",
    "PoissonSource",
    "ConstantRateSchedule",
    "DiurnalProfile",
]
