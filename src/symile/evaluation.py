"""Zero-shot prediction, bootstrapped accuracy, calibrated conditionals,
and the sufficient-statistic probe.

Zero-shot retrieval ranks candidate representations of a target modality
against encoded queries: the trained scorer is the multilinear inner
product of the encoded tuple (temperature omitted; it is a positive
multiplier and cannot change rankings).  The pairwise baseline scores a
candidate by the sum of its dot products with each query.  Retrieval
takes the objective's name (``model.OBJECTIVES``) and uses the scorer
that objective trained.  Argmax ties break toward the lowest candidate
index.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .data import Dataset, encoder_inputs
from .errors import SchemaError
from .model import OBJECTIVES, ModelParams
from .nn import adamw_step, encode, init_optimizer, row_softmax_cross_entropy
from .rng import substream


def encode_modality(params: ModelParams, name: str, values: np.ndarray) -> np.ndarray:
    """Encode raw modality rows, padding the observed-indicator column with
    zeros when the encoder was trained with missingness augmentation."""
    if name not in params.encoders:
        raise SchemaError(
            f"checkpoint has no encoder for modality {name!r}; it holds {sorted(params.encoders)}"
        )
    enc = params.encoders[name]
    values = np.atleast_2d(np.asarray(values, dtype=enc.W.dtype))
    if values.shape[1] == enc.d_in - 1:
        values = np.hstack([values, np.zeros((values.shape[0], 1), dtype=values.dtype)])
    if values.shape[1] != enc.d_in:
        raise ValueError(
            f"modality {name!r}: got dim {values.shape[1]}, encoder expects "
            f"{enc.d_in} (or {enc.d_in - 1} before the indicator column)"
        )
    return encode(enc, values)[0]


@dataclass
class RetrievalResult:
    """Per-query predicted and true candidate indices."""

    predicted: np.ndarray  # (Q,)
    true: np.ndarray  # (Q,)

    @property
    def accuracy(self) -> float:
        return float((self.predicted == self.true).mean())


def all_binary_vectors(d: int) -> np.ndarray:
    """All 2^d binary vectors; row k's coordinate j is bit j of k."""
    k = np.arange(2**d)
    return ((k[:, None] >> np.arange(d)) & 1).astype(np.float64)


def binary_vector_index(vectors: np.ndarray) -> np.ndarray:
    """Inverse of ``all_binary_vectors`` row indexing."""
    d = vectors.shape[1]
    return (vectors.astype(np.int64) << np.arange(d)).sum(axis=1)


def _query_product(params: ModelParams, queries: Mapping[str, np.ndarray]) -> np.ndarray:
    """Element-wise product of the encoded query modalities, in order."""
    if not queries:
        raise ValueError("need at least one query modality")
    encoded = [encode_modality(params, m, values) for m, values in queries.items()]
    prod = encoded[0].copy()
    for r in encoded[1:]:
        prod *= r
    return prod


def candidate_scores(
    params: ModelParams,
    objective: str,
    queries: Mapping[str, np.ndarray],
    target: str,
    candidates: np.ndarray,
) -> np.ndarray:
    """(Q, K) scores of K candidates for the target modality, given Q query
    rows of every remaining modality.

    ``objective`` is "symile" (the multilinear inner product of the encoded
    tuple; with one query modality, the dot product) or "pairwise_clip"
    (the sum over query modalities of the dot product with the candidate).
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; choose from {list(OBJECTIVES)}")
    if not queries:
        raise ValueError("need at least one query modality")
    if len(candidates) < 1:
        raise ValueError("need at least one candidate")
    r_cands = encode_modality(params, target, candidates)
    if objective == "symile":
        return _query_product(params, queries) @ r_cands.T
    return sum(encode_modality(params, m, values) @ r_cands.T for m, values in queries.items())


def classify_target(
    params: ModelParams,
    objective: str,
    dataset: Dataset,
    target: str = "b",
) -> RetrievalResult:
    """Rank all 2^d possible target vectors for every sample's queries,
    the remaining modalities' raw values (see ``candidate_scores``)."""
    queries = {m: dataset.modalities[m] for m in dataset.names if m != target}
    candidates = all_binary_vectors(dataset.modalities[target].shape[1])
    scores = candidate_scores(params, objective, queries, target, candidates)
    predicted = np.argmax(scores, axis=1)  # ties -> lowest index
    true = binary_vector_index(dataset.modalities[target])
    return RetrievalResult(predicted, true)


@dataclass
class BootstrapReport:
    """Mean and standard error of accuracy over resampled test sets."""

    mean_accuracy: float
    std_error: float


def bootstrap_accuracy(result: RetrievalResult, b: int, seed: int) -> BootstrapReport:
    """Accuracy over ``b`` with-replacement resamples of query correctness."""
    if b < 1:
        raise ValueError("need at least one bootstrap resample")
    correct = (result.predicted == result.true).astype(np.float64)
    q = correct.size
    if q == 0:
        raise ValueError("empty retrieval result")
    rng = substream(seed, "bootstrap")
    accs = correct[rng.integers(0, q, size=(b, q))].mean(axis=1)
    se = float(accs.std(ddof=1)) if b > 1 else 0.0
    return BootstrapReport(float(accs.mean()), se)


# ---------------------------------------------------------------------------
# Calibrated conditionals and prior-aware ranking
# ---------------------------------------------------------------------------


def calibrated_conditional(scores: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Posterior over candidates: exp(score_k) * prior_k, normalized.

    Stabilized by max-subtraction; invariant to adding a constant to all
    scores.  Requires a valid prior (non-negative, sums to 1).
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    prior = np.asarray(prior, dtype=np.float64).reshape(-1)
    if scores.shape != prior.shape:
        raise ValueError("scores and prior must have equal length")
    if np.any(prior < 0.0) or abs(prior.sum() - 1.0) > 1e-9:
        raise ValueError("prior must be non-negative and sum to 1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    with np.errstate(divide="ignore"):
        log_w = scores + np.log(prior)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def rank_with_prior(scores: np.ndarray, prior: np.ndarray) -> np.ndarray:
    """Candidate indices ordered by score + log(prior), descending.

    Zero-prior candidates are excluded (with a warning): the posterior
    assigns them no mass regardless of score.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    prior = np.asarray(prior, dtype=np.float64).reshape(-1)
    if scores.shape != prior.shape:
        raise ValueError("scores and prior must have equal length")
    keep = prior > 0.0
    if not np.all(keep):
        warnings.warn(
            f"excluding {int((~keep).sum())} zero-prior candidate(s) from ranking",
            stacklevel=2,
        )
    idx = np.flatnonzero(keep)
    key = scores[idx] + np.log(prior[idx])
    return idx[np.argsort(-key, kind="stable")]


# ---------------------------------------------------------------------------
# Sufficient-statistic probe
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    accuracy: float
    n_classes: int


def _probe_rows(
    params: ModelParams, dataset: Dataset, target: str
) -> tuple[np.ndarray, np.ndarray]:
    """(features, class labels) of the rows whose target is observed: the
    element-wise product of the non-target representations, encoded from
    ``encoder_inputs`` so that a missing modality carries its indicator."""
    inputs = encoder_inputs(dataset)
    x = _query_product(params, {m: v for m, v in inputs.items() if m != target})
    y = binary_vector_index(dataset.modalities[target])
    if dataset.masks is None:
        return x, y
    observed = dataset.masks[target]
    return x[observed], y[observed]


def sufficient_statistic_probe(
    params: ModelParams,
    train_ds: Dataset,
    test_ds: Dataset,
    target: str = "b",
    epochs: int = 200,
    lr: float = 0.01,
    batch_size: int = 1000,
    seed: int = 0,
) -> ProbeResult:
    """Train a deliberately weak linear classifier on the element-wise
    product of the non-target representations and report held-out accuracy.

    The probe is a single affine layer with softmax cross-entropy, trained
    with Adam and no weight decay, so success reflects what the features
    carry rather than probe capacity.  Classes are the 2^d possible target
    vectors.  Rows whose target is missing are left out of both splits.
    """
    x_train, y_train = _probe_rows(params, train_ds, target)
    x_test, y_test = _probe_rows(params, test_ds, target)
    n_classes = 2 ** train_ds.modalities[target].shape[1]

    d = x_train.shape[1]
    w = np.zeros((n_classes, d))
    bias = np.zeros(n_classes)
    opt = init_optimizer([w, bias], lr=lr, weight_decay=0.0)
    n = x_train.shape[0]
    rng = substream(seed, "probe")
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if idx.size == 0:
                break
            logits = x_train[idx] @ w.T + bias
            _, g = row_softmax_cross_entropy(logits, y_train[idx])
            g /= idx.size
            (w, bias), opt = adamw_step(opt, [w, bias], [g.T @ x_train[idx], g.sum(axis=0)])

    predictions = np.argmax(x_test @ w.T + bias, axis=1)
    return ProbeResult(float((predictions == y_test).mean()), n_classes)
