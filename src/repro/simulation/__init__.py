"""Discrete-event simulation substrate.

This subpackage replaces the paper's physical testbed (an Intel iPSC/2
hypercube running an Estelle implementation) with a deterministic,
seed-reproducible simulator.  The substitution preserves the quantities
the paper reports: message counts do not depend on the delay model on a
serial workload (see :func:`repro.experiments.ablation.delay_model_ablation`).
"""

from repro.simulation.cluster import SimEnvironment, SimulatedCluster
from repro.simulation.events import MessageDelivery, ScheduledAction, TimerExpiry
from repro.simulation.failures import FailureEvent, FailurePlanner, FailureSchedule
from repro.simulation.metrics import MetricsCollector, RequestRecord
from repro.simulation.network import ChannelState, ConstantDelay, DelayModel, PerHopDelay, UniformDelay
from repro.simulation.process import Environment, MutexNode
from repro.simulation.simulator import Simulator
from repro.simulation.trace import NullTracer, TraceCategory, TraceRecord, Tracer

__all__ = [
    "SimEnvironment",
    "SimulatedCluster",
    "MessageDelivery",
    "ScheduledAction",
    "TimerExpiry",
    "FailureEvent",
    "FailurePlanner",
    "FailureSchedule",
    "MetricsCollector",
    "RequestRecord",
    "ChannelState",
    "ConstantDelay",
    "DelayModel",
    "PerHopDelay",
    "UniformDelay",
    "Environment",
    "MutexNode",
    "Simulator",
    "NullTracer",
    "TraceCategory",
    "TraceRecord",
    "Tracer",
]
