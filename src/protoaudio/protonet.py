"""Episodic few-shot machinery: sampling, prototypes, distance-softmax scoring.

An episode is one n-shot k-way task. Class probabilities for a query are the
softmax of negative squared Euclidean distances to the class prototypes (the
mean embeddings of each class's support clips). These functions take Tensors
or plain arrays; training scores through them on a tape. Frozen evaluation
(training.score_episode) scores arrays of episodes at once by inner products,
and with this module's arithmetic wherever their rounding margin cannot
certify the argmax, so its accuracies are this rule's, bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .diffcore import (
    Tensor,
    as_tensor,
    cross_entropy,
    mean_pool,
    mul_scalar,
    reshape,
    softmax,
    squared_euclidean,
)
from .errors import (
    DimensionMismatchError,
    InsufficientClassesError,
    InsufficientExamplesError,
)


@dataclass(frozen=True)
class Episode:
    """k sampled classes, n support clips each, q query clips each."""

    classes: tuple
    support: tuple   # k tuples of n clip paths
    query: tuple     # k tuples of q clip paths

    def __post_init__(self):
        k = len(self.classes)
        if len(self.support) != k or len(self.query) != k:
            raise InsufficientClassesError(
                f"support/query blocks ({len(self.support)}/{len(self.query)}) "
                f"must match {k} classes"
            )
        n = len(self.support[0])
        q = len(self.query[0])
        if n < 1 or q < 1:
            raise InsufficientExamplesError(
                f"episode needs n >= 1 and q >= 1, got n={n}, q={q}"
            )
        for ci, cls in enumerate(self.classes):
            if len(self.support[ci]) != n or len(self.query[ci]) != q:
                raise InsufficientExamplesError(f"ragged episode for class {cls!r}")
            if set(self.support[ci]) & set(self.query[ci]):
                raise InsufficientExamplesError(
                    f"support/query overlap for class {cls!r}"
                )

    @property
    def k_way(self) -> int:
        return len(self.classes)

    @property
    def n_shot(self) -> int:
        return len(self.support[0])

    @property
    def n_query(self) -> int:
        return len(self.query[0])

    def support_paths(self) -> list:
        return [p for block in self.support for p in block]

    def query_paths(self) -> list:
        return [p for block in self.query for p in block]

    def query_labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.k_way), self.n_query)


def _classes(split: Mapping[str, Sequence[str]], k: int) -> list:
    if len(split) < k:
        raise InsufficientClassesError(f"need {k} classes, split has {len(split)}")
    return sorted(split)


def _clips(split: Mapping[str, Sequence[str]], cls: str, needed: int) -> list:
    if len(split[cls]) < needed:
        raise InsufficientExamplesError(
            f"class {cls!r} has {len(split[cls])} clips, episode needs {needed}")
    return list(split[cls])


def check_split_holds_episode(split: Mapping, n: int, k: int, q: int) -> None:
    """Raises what sample_episode raises for a split too small for an episode."""
    for cls in _classes(split, k):
        _clips(split, cls, n + q)


def sample_episode(split: Mapping[str, Sequence[str]], n: int, k: int, q: int,
                   rng: random.Random) -> Episode:
    """Draw k classes uniformly without replacement, then n+q clips per class
    (first n become support). Deterministic given the rng state."""
    chosen = rng.sample(_classes(split, k), k)
    support, query = [], []
    for cls in chosen:
        picks = rng.sample(_clips(split, cls, n + q), n + q)
        support.append(tuple(picks[:n]))
        query.append(tuple(picks[n:]))
    return Episode(tuple(chosen), tuple(support), tuple(query))


def compute_prototypes(support_embeddings) -> Tensor:
    """(k, n, d) support embeddings -> (k, d) per-class means."""
    embs = as_tensor(support_embeddings)
    if embs.ndim != 3:
        raise DimensionMismatchError(
            f"support embeddings must be (k, n, d), got {embs.shape}"
        )
    return mean_pool(embs, 1)


def classify(query_embedding, prototypes) -> Tensor:
    """Probabilities over classes: softmax of negative squared distances.

    Accepts one query (d,) -> (k,) or a batch (Q, d) -> (Q, k).
    """
    q = as_tensor(query_embedding)
    protos = as_tensor(prototypes)
    single = q.ndim == 1
    if single:
        q = reshape(q, (1, q.shape[0]))
    if q.ndim != 2 or protos.ndim != 2 or q.shape[1] != protos.shape[1]:
        raise DimensionMismatchError(
            f"query {query_embedding.shape if hasattr(query_embedding, 'shape') else '?'} "
            f"vs prototypes {protos.shape}"
        )
    probs = softmax(mul_scalar(squared_euclidean(q, protos), -1.0))
    return reshape(probs, (protos.shape[0],)) if single else probs


def prototype_logits(support_embeddings, query_embeddings) -> Tensor:
    """(k, n, d) support, (Q, d) queries -> (Q, k) negative squared distances
    to the class prototypes."""
    protos = compute_prototypes(support_embeddings)
    queries = as_tensor(query_embeddings)
    if queries.ndim != 2 or queries.shape[1] != protos.shape[1]:
        raise DimensionMismatchError(
            f"queries {queries.shape} vs prototypes {protos.shape}"
        )
    return mul_scalar(squared_euclidean(queries, protos), -1.0)


def episode_loss(support_embeddings, query_embeddings, query_labels):
    """Mean query NLL plus argmax accuracy (ties break to the lowest class index).

    support_embeddings: (k, n, d); query_embeddings: (Q, d); labels: (Q,) ints.
    Returns (scalar loss Tensor, accuracy float).
    """
    logits = prototype_logits(support_embeddings, query_embeddings)
    labels = np.asarray(query_labels, dtype=np.int64)
    loss = cross_entropy(logits, labels)
    predictions = np.argmax(logits.data, axis=1)
    accuracy = float(np.mean(predictions == labels))
    return loss, accuracy
