"""NIC substrate: virtual output queues, the NIC model, flow accounting."""

from .flow import FlowLedger
from .nic import Nic, QueueMatrix, build_nics
from .queues import DrainedMessage, VirtualOutputQueues

__all__ = [
    "FlowLedger",
    "Nic",
    "DrainedMessage",
    "QueueMatrix",
    "VirtualOutputQueues",
    "build_nics",
]
