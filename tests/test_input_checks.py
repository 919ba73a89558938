"""The checks each public constructor and entry point makes on its input,
with the message it raises."""

import math

import numpy as np
import pytest

from robustagg import models
from robustagg.aggregate import LocalEstimate, RoundView, huber_aggregate, tau_c
from robustagg.distsim import (
    ContaminationKind,
    ContaminationSpec,
    StudyConfig,
    contaminate,
    decode_messages,
    encode_messages,
    generate_dataset,
    partition,
    process,
    run_study,
)
from robustagg.errors import DimensionError
from robustagg.models import ModelKind, ModelSpec, Observations, criterion_eval
from robustagg.numkit import vech_inv
from robustagg.spatialmed import spatial_median

LINEAR2 = ModelSpec(ModelKind.LINEAR, 2)


def linear_round(k=2, n=20):
    """``(fits, shards)`` of a small linear round."""
    shards = partition(generate_dataset(ModelKind.LINEAR, (1.0, 2.0), k * n, 3), k)
    return models.fit_shards(LINEAR2, shards), shards


def clean_round():
    """Nine clean servers of p = 2."""
    return [LocalEstimate(k, 100, [1.0, 2.0], np.eye(2)) for k in range(9)]


CHECKS = {
    "tau_c of 0": (lambda: tau_c(0.0), ValueError, "tuning constant c must be positive"),
    # tau_c is the one rule for c: -inf and NaN fail it ahead of tau(inf) = 1.
    "tau_c of -inf": (lambda: tau_c(-math.inf), ValueError, "tuning constant c must be positive"),
    "tau_c of nan": (lambda: tau_c(math.nan), ValueError, "tuning constant c must be positive"),
    "huber_aggregate with c -inf": (
        lambda: huber_aggregate([LocalEstimate(1, 3, [1.0], [[1.0]])], [[1.0]], -math.inf),
        ValueError,
        "tuning constant c must be positive",
    ),
    "negative contamination count": (
        lambda: ContaminationSpec(count=-1), ValueError, "contamination count must be >= 0"
    ),
    "zero gaussian scale": (
        lambda: ContaminationSpec(gaussian_scale=0),
        ValueError,
        "gaussian_scale must be positive and finite",
    ),
    "nan gaussian scale": (
        lambda: ContaminationSpec(gaussian_scale=math.nan),
        ValueError,
        "gaussian_scale must be positive and finite",
    ),
    "infinite gaussian scale": (
        lambda: ContaminationSpec(gaussian_scale=math.inf),
        ValueError,
        "gaussian_scale must be positive and finite",
    ),
    "zero shard size": (lambda: StudyConfig(shard_size=0), ValueError, "shard_size must be >= 1"),
    "zero replicates": (
        lambda: StudyConfig(replicates=0), ValueError, "a study needs at least 2 replicates"
    ),
    "zero c": (lambda: StudyConfig(c=0), ValueError, "tuning constant c must be positive"),
    "c of -inf": (lambda: StudyConfig(c=-math.inf), ValueError, "tuning constant c must be positive"),
    "empty theta0": (
        lambda: StudyConfig(theta0=()), ValueError, "theta0 must have at least one coordinate"
    ),
    "nan in theta0": (
        lambda: StudyConfig(theta0=(math.nan, 1.0)), ValueError, "theta0 must be finite"
    ),
    "infinite theta0": (
        lambda: StudyConfig(theta0=(2.0, -math.inf)), ValueError, "theta0 must be finite"
    ),
    "empty dataset": (
        lambda: generate_dataset(ModelKind.LINEAR, (1.0, 2.0), 0, 1),
        ValueError,
        "dataset size must be >= 1",
    ),
    "no servers": (
        lambda: partition(generate_dataset(ModelKind.LINEAR, (1.0,), 4, 1), 0),
        ValueError,
        "n_servers must be >= 1",
    ),
    "one replicate": (
        lambda: run_study(StudyConfig(replicates=1)),
        ValueError,
        "a study needs at least 2 replicates",
    ),
    "zero parameters": (
        lambda: ModelSpec(ModelKind.LINEAR, 0), ValueError, "parameter dimension p must be >= 1"
    ),
    "2-D y": (
        lambda: Observations(np.zeros((3, 1)), np.zeros((3, 2))),
        DimensionError,
        "y must be one-dimensional",
    ),
    "1-D X": (
        lambda: Observations(np.zeros(3), np.zeros(3)),
        DimensionError,
        "X must be two-dimensional",
    ),
    "rows of y and X differ": (
        lambda: Observations(np.zeros(3), np.zeros((2, 2))),
        DimensionError,
        "y has 3 rows but X has 2",
    ),
    "criterion on an empty shard": (
        lambda: criterion_eval(LINEAR2, Observations(np.zeros(0), np.zeros((0, 2))), [0.0, 0.0]),
        DimensionError,
        "observation sequence is empty",
    ),
    "criterion on another p": (
        lambda: criterion_eval(
            ModelSpec(ModelKind.LINEAR, 3), Observations(np.zeros(3), np.ones((3, 2))), [0.0] * 3
        ),
        DimensionError,
        "model expects p=3 covariates, data has 2",
    ),
    "vech_inv of size 0": (
        lambda: vech_inv([], 0), DimensionError, "matrix dimension must be >= 1"
    ),
    "zero weight": (
        lambda: spatial_median(np.ones((1, 1)), [0.0]), ValueError, "weight must be positive and finite"
    ),
    "non-finite point": (
        lambda: spatial_median(np.array([[math.nan]]), [1.0]), ValueError, "point coordinates must be finite"
    ),
    "no rows": (
        lambda: spatial_median(np.zeros((0, 2)), np.zeros(0)),
        ValueError,
        "at least one point is required",
    ),
    # LocalEstimate and the wire codec refuse such a size first; a round
    # view built directly refuses it too.
    "round view with a size of 0": (
        lambda: RoundView([1, 2], [10, 0], np.zeros((2, 2)), np.zeros((2, 2, 2))),
        ValueError,
        "n_k must be >= 1",
    ),
    "sandwich estimates of another shape": (
        lambda: models.sandwich_variances(LINEAR2, linear_round()[1], np.zeros((2, 3))),
        DimensionError,
        r"thetas have shape \(2, 3\), expected \(2, 2\)",
    ),
    "misaligned stack": (
        lambda: RoundView([1], [10, 20], np.zeros((1, 2)), np.zeros((1, 2, 2))),
        DimensionError,
        r"1 ids, 2 sizes, estimates of shape \(1, 2\) and variance matrices "
        r"of shape \(1, 2, 2\) do not align",
    ),
    # N enters sqrt(n_k) and N * tau as a double, so a round whose N no
    # double holds is refused where any entry point builds its RoundView.
    "one size beyond the largest double": (
        lambda: process(
            decode_messages(encode_messages(clean_round() + [LocalEstimate(9, 10**309, [1.0, 2.0], np.eye(2))])),
            1.345,
            0.05,
        ),
        ValueError,
        "total size N must be at most the largest double",
    ),
    "one size beyond the largest double, in a list": (
        lambda: process(clean_round() + [LocalEstimate(9, 10**309, [1.0, 2.0], np.eye(2))], 1.345, 0.05),
        ValueError,
        "total size N must be at most the largest double",
    ),
    "sizes whose sum is beyond the largest double": (
        lambda: process([LocalEstimate(k, 10**308, [1.0, 2.0], np.eye(2)) for k in (1, 2)], 1.345, 0.05),
        ValueError,
        "total size N must be at most the largest double",
    ),
    "fits without their shards": (
        lambda: contaminate(LINEAR2, linear_round()[0], [], ContaminationSpec(), 0),
        DimensionError,
        "fits and shards must align one-to-one",
    ),
    "omniscient value of another length": (
        lambda: contaminate(
            LINEAR2,
            *linear_round(),
            ContaminationSpec(
                kind=ContaminationKind.OMNISCIENT, count=1, omniscient_value=(1.0, 2.0, 3.0)
            ),
            0,
        ),
        DimensionError,
        "omniscient_value dimension does not match the model",
    ),
}


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_rejected_with_its_message(name):
    call, error, message = CHECKS[name]
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_no_fits_contaminate_to_no_payloads():
    assert list(contaminate(LINEAR2, models.fit_shards(LINEAR2, []), [], ContaminationSpec(), 0)) == []
