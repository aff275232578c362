"""Exact-arithmetic toolkit for flows over time with deterministic queueing:
network loading, earliest-arrival labels, thin flows with resetting, and
construction/verification of dynamic equilibria."""

from .netmodel import (Arc, Commodity, Instance, extend_with_super_sink,
                       instance_from_json, instance_to_json, load_instance,
                       transit_distances, validate_instance)
from .timefn import (PwlFunction, StepFunction, ValueNotAttained, compose,
                     differentiate, integrate, min_compose, min_preimage)
from .loading import (FlowOverTime, QueueProfile, check_feasibility,
                      derive_profile, exit_time, load_network, queue_size,
                      waiting_time)
from .labels import (LabelSet, arc_status, earliest_arrival, extend_labels,
                     waiting_from_labels)
from .thinflow import (MultiSourceThinFlow, ThinFlow, decompose,
                       solve_thinflow_multisource, solve_thinflow_single,
                       stress, verify_multicommodity_thinflow)
from .nash import (NashFlowOverTime, Phase, check_derivatives_thinflow,
                   construct_common_destination, construct_common_origin,
                   construct_nash_single, verify_nash)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
