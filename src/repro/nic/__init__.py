"""NIC substrate: virtual output queues, the NIC model, flow accounting."""

from .flow import FlowLedger
from .nic import Nic, bind_queue_matrix
from .queues import DrainedMessage, VirtualOutputQueues

__all__ = [
    "FlowLedger",
    "Nic",
    "DrainedMessage",
    "VirtualOutputQueues",
    "bind_queue_matrix",
]
