"""Fault models, fault lists, sampling, classification and dictionaries."""

from repro.faults.classify import FaultClass, classification_counts, classify_outcome
from repro.faults.dictionary import FaultDictionary, FaultRecord
from repro.faults.model import (
    FaultArray,
    SeuFault,
    exhaustive_fault_list,
    faults_for_flop,
)
from repro.faults.models import (
    DEFAULT_FAULT_MODEL,
    FaultModel,
    available_models,
    get_fault_model,
)
from repro.faults.sampling import (
    AdaptiveSampler,
    SampleEstimate,
    classification_estimates,
    clopper_pearson_interval,
    confidence_interval,
    draw_sample,
    sample_fault_list,
    stratified_sample_fault_list,
    wilson_interval,
)

__all__ = [
    "AdaptiveSampler",
    "DEFAULT_FAULT_MODEL",
    "FaultClass",
    "FaultArray",
    "FaultDictionary",
    "FaultModel",
    "FaultRecord",
    "SampleEstimate",
    "SeuFault",
    "available_models",
    "classification_counts",
    "classification_estimates",
    "classify_outcome",
    "clopper_pearson_interval",
    "confidence_interval",
    "draw_sample",
    "exhaustive_fault_list",
    "faults_for_flop",
    "get_fault_model",
    "sample_fault_list",
    "stratified_sample_fault_list",
    "wilson_interval",
]
