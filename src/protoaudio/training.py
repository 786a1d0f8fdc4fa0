"""Episodic training loop with early stopping, plus the frozen-checkpoint
evaluation protocol (episode accuracy means with a normal-approximation CI)."""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .audio_io import load_wav
from .diffcore import AdamState, Tape, adam_step, backward, load_archive, save_archive
from .diffcore.ops import reshape, slice_rows, squared_euclidean
from .encoders import Encoder, EncoderSpec, build_encoder
from .errors import CheckpointMismatchError, ConfigError, NonFiniteValueError, ShapeMismatchError
from .protonet import Episode, check_split_holds_episode, episode_loss, sample_episode


@dataclass(frozen=True)
class TrainConfig:
    """Episode shape and training protocol. Defaults follow the evaluation
    protocol this artifact targets: eval every 500 episodes, stop after 10
    non-improving checks, Adam at 1e-5, 1000 test episodes."""

    n_shot: int = 5
    k_way: int = 5
    q_query: int = 5
    max_episodes: int = 25000
    eval_interval: int = 500
    patience_checks: int = 10
    lr: float = 1e-5
    test_episodes: int = 1000
    val_episodes: int = 200
    seed: int = 0

    def __post_init__(self):
        for name in ("n_shot", "k_way", "q_query", "max_episodes", "eval_interval",
                     "patience_checks", "test_episodes", "val_episodes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")


@dataclass
class MetricRecord:
    episode: int
    loss: float
    val_accuracy: Optional[float]
    timestamp: str

    def to_json(self) -> str:
        return json.dumps(
            {"episode": self.episode, "loss": self.loss,
             "val_accuracy": self.val_accuracy, "timestamp": self.timestamp},
            sort_keys=True,
        )


def load_history(path) -> list:
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            d = json.loads(line)
            records.append(MetricRecord(d["episode"], d["loss"],
                                        d["val_accuracy"], d["timestamp"]))
    return records


class InputCache:
    """Memoizes encoder.prepare_input per clip path (features stay fixed while
    parameters train)."""

    def __init__(self, encoder: Encoder, loader: Callable = load_wav):
        self.encoder = encoder
        self.loader = loader
        self._cache: dict = {}

    def get(self, path: str):
        hit = self._cache.get(path)
        if hit is None:
            hit = self.encoder.prepare_input(self.loader(path))
            self._cache[path] = hit
        return hit


@dataclass(frozen=True)
class EvalReport:
    mean_accuracy: float
    std_error: float
    n_episodes: int

    @property
    def ci95_low(self) -> float:
        return self.mean_accuracy - 1.96 * self.std_error

    @property
    def ci95_high(self) -> float:
        return self.mean_accuracy + 1.96 * self.std_error

    def summary(self) -> str:
        return (
            f"accuracy {100 * self.mean_accuracy:.2f}% "
            f"± {100 * 1.96 * self.std_error:.2f} "
            f"(95% CI [{100 * self.ci95_low:.2f}, {100 * self.ci95_high:.2f}], "
            f"{self.n_episodes} episodes)"
        )

    def to_dict(self) -> dict:
        return {
            "mean_accuracy": round(self.mean_accuracy, 6),
            "std_error": round(self.std_error, 6),
            "ci95": [round(self.ci95_low, 6), round(self.ci95_high, 6)],
            "n_episodes": self.n_episodes,
        }


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="milliseconds")


EMBED_BATCH = 32  # clips per embed_batch call of embed_table


def embed_table(encoder: Encoder, cache: InputCache, paths: Sequence[str]) -> dict:
    """Embed each unique path once with frozen parameters; path -> (d,) array."""
    unique = sorted(set(paths))
    table: dict = {}
    for i in range(0, len(unique), EMBED_BATCH):
        chunk = unique[i:i + EMBED_BATCH]
        embs = encoder.embed_batch([cache.get(p) for p in chunk]).data
        for p, row in zip(chunk, embs):
            table[p] = np.asarray(row, dtype=np.float64)
    return table


# Byte budget of score_episode's largest per-chunk temporary, the float64
# (episodes, k, n, d) support or (episodes, k·q, d) query gather; it bounds the
# chunk of episodes scored together.
SCORE_CHUNK_BYTES = 4 << 20


def _rescore_episodes(queries: np.ndarray, protos: np.ndarray,
                      labels: np.ndarray) -> np.ndarray:
    """Accuracies of (e, k·q, d) queries against (e, k, d) prototypes with the
    squared distances of protonet.prototype_logits, its squared_euclidean op:
    the argmax of their negatives, ties to the lowest class."""
    return np.array([np.mean(np.argmax(-squared_euclidean(q, p).data, axis=1) == labels)
                     for q, p in zip(queries, protos)])


def score_episode(embeddings: Mapping[str, np.ndarray],
                  episodes: Sequence[Episode]) -> np.ndarray:
    """Per-episode accuracies of equally shaped episodes against a fixed
    embedding table: the argmax of the prototype logits (Snell, Swersky &
    Zemel 2017), ties to the lowest class, bit for bit as the arithmetic of
    protonet.prototype_logits decides it.

    A chunk of episodes at a time, the distances are first taken as
    |q|² − 2·q·p + |p|², with one stacked matmul. By the forward error bound
    of inner products (Higham 2002, "Accuracy and Stability of Numerical
    Algorithms", §3.1), that value and protonet's difference-and-square one
    each lie within γ_{d+2}·(|q| + |p|)² of the exact distance, plus 2⁻¹⁰⁷⁵
    for each product that underflows; τ adds the two bounds, with slack for
    its own rounding. A query whose nearest prototype is closer than every
    other by more than the two classes' τ has that class as the unique
    argmax of either form. Episodes with any other query (exact or near
    ties, NaN, overflow) are scored again with protonet's arithmetic.
    """
    if not episodes:
        raise ConfigError("no episodes to score")
    shapes = {(e.k_way, e.n_shot, e.n_query) for e in episodes}
    if len(shapes) > 1:
        raise ShapeMismatchError(f"episodes of (k, n, q) shapes {sorted(shapes)}; need one")
    [(k, n, q)] = shapes
    row = {p: i for i, p in enumerate(embeddings)}
    table = np.array([embeddings[p] for p in row], dtype=np.float64)          # (N, d)
    d = table.shape[1]
    rows = np.fromiter((row[p] for e in episodes for p in e.support_paths() + e.query_paths()),
                       np.intp, len(episodes) * k * (n + q)).reshape(len(episodes), -1)
    support = rows[:, :k * n].reshape(-1, k, n)                               # (E, k, n)
    query = rows[:, k * n:]                                                   # (E, k·q)
    labels = episodes[0].query_labels()
    squares = np.einsum("nd,nd->n", table, table)                             # |x|² per row
    # τ = 2·γ_{d+4}·(|q| + |p|)² + floor, with γ_m = m·u / (1 − m·u), u = 2⁻⁵³.
    # floor covers 2⁻¹⁰⁷⁵ of underflow per product: d each in |q|² and |p|²,
    # 2d in 2·q·p and d in the difference-and-square sum.
    gamma = (d + 4) * 2.0 ** -53 / (1 - (d + 4) * 2.0 ** -53)
    floor = 3 * (d + 4) * 2.0 ** -1074
    chunk = max(1, SCORE_CHUNK_BYTES // (k * max(n, q) * d * 8))
    accuracies = np.empty(len(episodes))
    for s in range(0, len(episodes), chunk):
        protos = table[support[s:s + chunk]].mean(axis=2)                     # (e, k, d)
        queries = table[query[s:s + chunk]]                                   # (e, k·q, d)
        q_sq = squares[query[s:s + chunk]][:, :, None]
        p_sq = np.einsum("ekd,ekd->ek", protos, protos)[:, None]
        # Non-finite values fail the margin test and are left to the exact pass.
        with np.errstate(over="ignore", invalid="ignore"):
            fast = q_sq - 2 * np.matmul(queries, protos.transpose(0, 2, 1)) + p_sq   # (e, k·q, k)
            tau = 2 * gamma * (np.sqrt(q_sq) + np.sqrt(p_sq)) ** 2 + floor
            best = np.argmin(fast, axis=2)[:, :, None]
            apart = (fast - np.take_along_axis(fast, best, 2)
                     > tau + np.take_along_axis(tau, best, 2))
        scores = np.mean(best[:, :, 0] == labels, axis=1)
        uncertain = (np.count_nonzero(apart, axis=2) < k - 1).any(axis=1)
        if uncertain.any():
            scores[uncertain] = _rescore_episodes(queries[uncertain], protos[uncertain], labels)
        accuracies[s:s + chunk] = scores
    return accuracies


def evaluate_embeddings(embeddings: Mapping[str, np.ndarray],
                        episodes: Sequence[Episode]) -> EvalReport:
    """Mean episode accuracy with a 95% CI against a fixed embedding table."""
    accs = score_episode(embeddings, episodes)
    mean = float(accs.mean())
    se = float(accs.std(ddof=0) / math.sqrt(len(accs)))
    return EvalReport(mean, se, len(accs))


def evaluate_episodes(encoder: Encoder, cache: InputCache,
                      episodes: Sequence[Episode]) -> EvalReport:
    """The one evaluation path of validation and test: embeds, with frozen
    parameters, only the clips the episodes touch, then scores the episodes."""
    paths = [p for e in episodes for p in e.support_paths() + e.query_paths()]
    return evaluate_embeddings(embed_table(encoder, cache, paths), episodes)


def sample_episodes(split: Mapping[str, Sequence[str]], cfg: TrainConfig,
                    n_episodes: int, stream: str) -> list:
    """n_episodes episodes of cfg's shape from their own seeded stream."""
    rng = random.Random(stream)
    return [sample_episode(split, cfg.n_shot, cfg.k_way, cfg.q_query, rng)
            for _ in range(n_episodes)]


def evaluate(encoder: Encoder, cache: InputCache,
             split: Mapping[str, Sequence[str]], cfg: TrainConfig,
             n_episodes: Optional[int] = None, seed: Optional[int] = None) -> EvalReport:
    """Protocol evaluation: defaults to cfg.test_episodes (1000) episodes."""
    n_episodes = cfg.test_episodes if n_episodes is None else n_episodes
    if n_episodes < 1:
        raise ConfigError(f"n_episodes must be positive, got {n_episodes}")
    seed = cfg.seed if seed is None else seed
    return evaluate_episodes(encoder, cache,
                             sample_episodes(split, cfg, n_episodes, f"{seed}/eval"))


class Trainer:
    """One training run, stepped an episode at a time: sample -> embed -> loss
    -> backward -> Adam, with periodic validation checks and early stopping.

    Every eval_interval episodes, validation accuracy is measured on a fixed
    batch of cfg.val_episodes episodes, sampled from a dedicated seed stream
    at the first check. If a check can fall due, a validation split that
    cannot hold an episode fails when the Trainer is built. The first check
    sets the incumbent; a check counts against patience unless strictly
    greater than the incumbent. The run is done after
    patience_checks consecutive non-improving checks or at max_episodes.
    val_metric, if given, replaces the validation evaluator (used for protocol
    tests); it receives (encoder, episode_index).
    """

    def __init__(self, encoder: Encoder, train_split: Mapping[str, Sequence[str]],
                 val_split: Mapping[str, Sequence[str]], cfg: TrainConfig,
                 loader: Callable = load_wav, val_metric: Optional[Callable] = None):
        self.encoder = encoder
        self.train_split = train_split
        self.val_split = val_split
        self.cfg = cfg
        self.val_metric = val_metric
        self.cache = InputCache(encoder, loader)
        self.adam = AdamState.for_params(encoder.params)
        self.rng = random.Random(f"{cfg.seed}/episodes")
        self.val_episodes: Optional[list] = None
        if val_metric is None and cfg.eval_interval <= cfg.max_episodes:
            check_split_holds_episode(val_split, cfg.n_shot, cfg.k_way, cfg.q_query)
        self.history: list = []
        self.episodes_run = 0
        self.train_accuracy: Optional[float] = None   # of the last episode
        self.best_val_accuracy: Optional[float] = None
        self.best_params: Optional[dict] = None
        self.best_episode = 0
        self.bad_checks = 0
        self.stopped_early = False

    @property
    def done(self) -> bool:
        return self.stopped_early or self.episodes_run >= self.cfg.max_episodes

    def step(self) -> MetricRecord:
        """Runs the next episode and any validation check due; returns its record, also
        appended to history. A non-finite loss or gradient raises NonFiniteValueError
        naming the episode, before Adam applies it. With no check, best is the last state."""
        cfg, encoder = self.cfg, self.encoder
        ep = self.episodes_run + 1
        kn = cfg.k_way * cfg.n_shot
        episode = sample_episode(self.train_split, cfg.n_shot, cfg.k_way, cfg.q_query, self.rng)
        inputs = [self.cache.get(p) for p in episode.support_paths() + episode.query_paths()]
        # A step that overflows is reported below, by episode and parameter;
        # numpy's warnings from inside the ops would only precede that report.
        with Tape(), np.errstate(over="ignore", invalid="ignore"):
            embs = encoder.embed_batch(inputs)
            support = reshape(slice_rows(embs, 0, kn),
                              (cfg.k_way, cfg.n_shot, encoder.embed_dim))
            queries = slice_rows(embs, kn, embs.shape[0])
            loss, self.train_accuracy = episode_loss(support, queries, episode.query_labels())
            grad_map = backward(loss)
        grads = {
            name: grad_map[p] if p in grad_map else np.zeros_like(p.data)
            for name, p in encoder.params.items()
        }
        loss_value = float(loss.item())
        bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
        if bad or not math.isfinite(loss_value):
            raise NonFiniteValueError(f"episode {ep}: loss {loss_value}"
                                      + (f", non-finite gradient of {bad[0]}" if bad else ""))
        adam_step(encoder.params, grads, self.adam, cfg.lr)
        self.episodes_run = ep

        val_acc: Optional[float] = None
        if ep % cfg.eval_interval == 0:
            if self.val_metric is not None:
                val_acc = float(self.val_metric(encoder, ep))
            else:
                self.val_episodes = self.val_episodes or sample_episodes(
                    self.val_split, cfg, cfg.val_episodes, f"{cfg.seed}/val")
                val_acc = evaluate_episodes(encoder, self.cache, self.val_episodes).mean_accuracy
            if self.best_val_accuracy is None or val_acc > self.best_val_accuracy:
                self.best_val_accuracy, self.best_episode = val_acc, ep
                self.best_params = encoder.state_dict()
                self.bad_checks = 0
            else:
                self.bad_checks += 1
            self.stopped_early = self.bad_checks >= cfg.patience_checks
        if self.done and self.best_params is None:
            self.best_params, self.best_episode = encoder.state_dict(), ep
        record = MetricRecord(ep, loss_value, val_acc, _now())
        self.history.append(record)
        return record


def train(encoder: Encoder, train_split: Mapping[str, Sequence[str]],
          val_split: Mapping[str, Sequence[str]], cfg: TrainConfig,
          loader: Callable = load_wav,
          val_metric: Optional[Callable] = None,
          progress: Optional[Callable] = None) -> Trainer:
    """Steps a Trainer until it is done and returns it. progress, if given,
    receives (episode, loss, train_accuracy, val_accuracy) after each episode."""
    trainer = Trainer(encoder, train_split, val_split, cfg, loader, val_metric)
    while not trainer.done:
        record = trainer.step()
        if progress is not None:
            progress(record.episode, record.loss, trainer.train_accuracy, record.val_accuracy)
    return trainer


# -- encoder checkpoints -----------------------------------------------------------


def save_encoder_checkpoint(path, encoder: Encoder, params: Optional[dict] = None,
                            extra_meta: Optional[dict] = None) -> None:
    meta = {"spec": encoder.spec.header()}
    if extra_meta:
        meta.update(extra_meta)
    save_archive(path, params if params is not None else encoder.state_dict(), meta)


def load_encoder_checkpoint(path, spec: EncoderSpec):
    """Returns (tensors, meta); rejects archives whose header disagrees with spec."""
    tensors, meta = load_archive(path)
    header = meta.get("spec", {})
    expected = spec.header()
    if header != expected:
        raise CheckpointMismatchError(
            f"checkpoint header {header} does not match requested encoder {expected}"
        )
    return tensors, meta


def restore_encoder(path, spec: EncoderSpec) -> Encoder:
    """The encoder spec describes, with the checkpoint's parameters; a checkpoint
    whose tensors do not fit the encoder raises CheckpointMismatchError."""
    tensors, _ = load_encoder_checkpoint(path, spec)
    encoder = build_encoder(spec)
    try:
        encoder.load_state(tensors)
    except ShapeMismatchError as exc:
        raise CheckpointMismatchError(f"{path}: {exc}") from exc
    return encoder


# -- report rendering ----------------------------------------------------------------


def render_eval_table(kind: str, cfg: TrainConfig, report: EvalReport) -> str:
    """Plain-text accuracy table of one encoder at the run's (shot, way)."""
    header = ("encoder", f"{cfg.n_shot}-shot {cfg.k_way}-way")
    row = (kind, f"{100 * report.mean_accuracy:.1f}%")
    widths = [max(len(h), len(c)) for h, c in zip(header, row)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(cells, widths)) + "\n"
                   for cells in (header, ["-" * w for w in widths], row))
