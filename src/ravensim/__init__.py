"""ravensim: a cycle-accurate simulator for the RAVENS spiking neuroprocessor.

Networks of integrate-and-fire neurons are programmed onto a hardware
description (bit widths, ports, delay/leak/refractory limits, STDP table),
driven by timed external stimuli, and simulated one integration cycle at a
time. Traces record which neurons fired and every end-of-cycle charge,
column by column.
"""

from .engine import (
    CycleReport,
    Stimulus,
    StimulusEvent,
    Trace,
    available_backends,
    new_engine,
    new_reference_engine,
)
from .netmodel import (
    HardwareConstants,
    Network,
    NeuronSettings,
    SynapseSettings,
    ValidationError,
    ValidationReport,
    min_accumulator_width,
    resource_report,
    validate_network,
)

__version__ = "0.1.0"

__all__ = [
    "CycleReport",
    "HardwareConstants",
    "Network",
    "NeuronSettings",
    "Stimulus",
    "StimulusEvent",
    "SynapseSettings",
    "Trace",
    "ValidationError",
    "ValidationReport",
    "available_backends",
    "min_accumulator_width",
    "new_engine",
    "new_reference_engine",
    "resource_report",
    "validate_network",
    "__version__",
]
