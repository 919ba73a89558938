"""Robust aggregation of local M-estimators for distributed data.

Local servers fit their shards and transmit estimates with sandwich
variances; the central processor aggregates them through clipped, whitened
estimating equations, combines the variance matrices by a weighted spatial
median, and screens the transmissions for contamination.
"""

from .aggregate import (
    AggregationResult,
    LocalEstimate,
    huber_aggregate,
    standard_errors,
    tau_c,
    weighted_average,
)
from .detect import DetectionReport, ServerDetection, detect
from .distsim import (
    ContaminationKind,
    ContaminationSpec,
    ReplicateRecord,
    StudyConfig,
    StudyMetrics,
    contaminate,
    decode_message,
    decode_messages,
    encode_message,
    encode_messages,
    generate_dataset,
    partition,
    run_replicate,
    run_study,
)
from .models import (
    EqualShards,
    LocalFit,
    LocalFits,
    ModelKind,
    ModelSpec,
    Observations,
    criterion_eval,
    fit_local,
    fit_shards,
    sandwich_variance,
)
from .numkit import inv_sqrt_pd, pd_project, vech, vech_inv
from .spatialmed import SpatialMedianResult, aggregate_sigma, spatial_median

__version__ = "0.1.0"
