import gc
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from protoaudio import diffcore as dc
from protoaudio import training
from protoaudio.audio_io import TimbreProfile, synth_clip
from protoaudio.encoders import Encoder, EncoderSpec, build_encoder
from protoaudio.errors import (
    CheckpointMismatchError,
    ConfigError,
    InsufficientClassesError,
    InsufficientExamplesError,
    NonFiniteValueError,
    ShapeMismatchError,
)
from protoaudio.training import (
    EvalReport,
    InputCache,
    MetricRecord,
    TrainConfig,
    embed_table,
    evaluate,
    evaluate_embeddings,
    evaluate_episodes,
    load_encoder_checkpoint,
    load_history,
    render_eval_table,
    restore_encoder,
    sample_episodes,
    save_encoder_checkpoint,
    score_episode,
    Trainer,
    train,
)
from protoaudio.protonet import compute_prototypes, sample_episode


class StubEncoder(Encoder):
    """1-D feature -> 2-D embedding through one learnable matrix."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.spec = EncoderSpec("vgg", "desk")  # header only; dims unused
        self.params = {"w": dc.Tensor(
            rng.normal(size=(1, 2)).astype(np.float32), requires_grad=True)}

    @property
    def embed_dim(self):
        return 2

    def prepare_input(self, value):
        return np.asarray([float(np.mean(value))], dtype=np.float32)

    def embed_batch(self, inputs):
        x = dc.Tensor(np.stack([np.asarray(v, dtype=np.float32) for v in inputs]))
        return dc.matmul(x, self.params["w"])


def stub_loader(path):
    """Clip paths look like 'c{j}/clip{i}'; class j maps to mean value j."""
    j = int(path.split("/")[0][1:])
    i = int(path.split("clip")[1])
    return np.array([float(j) + 0.01 * i], dtype=np.float32)


def stub_split(n_classes=4, clips=8):
    return {f"c{j}": [f"c{j}/clip{i}" for i in range(clips)] for j in range(n_classes)}


def tiny_cfg(**kw):
    base = dict(n_shot=2, k_way=2, q_query=2, max_episodes=40, eval_interval=10,
                patience_checks=3, lr=0.05, test_episodes=50, val_episodes=20, seed=1)
    base.update(kw)
    return TrainConfig(**base)


# -- protocol counters ----------------------------------------------------------


def test_frozen_validation_stops_at_exact_episode():
    cfg = tiny_cfg(max_episodes=1000)
    result = train(StubEncoder(), stub_split(), stub_split(), cfg,
                   loader=stub_loader, val_metric=lambda enc, ep: 0.5)
    assert result.episodes_run == (cfg.patience_checks + 1) * cfg.eval_interval == 40
    assert result.stopped_early
    assert result.best_episode == cfg.eval_interval  # first check set the incumbent


def test_improving_validation_never_stops_early():
    ticks = iter(range(1000))
    cfg = tiny_cfg(max_episodes=60)
    result = train(StubEncoder(), stub_split(), stub_split(), cfg,
                   loader=stub_loader, val_metric=lambda enc, ep: next(ticks) / 1000.0)
    assert result.episodes_run == 60
    assert not result.stopped_early


def test_best_checkpoint_tracks_history_maximum():
    values = iter([0.3, 0.6, 0.4, 0.6, 0.5, 0.2])
    cfg = tiny_cfg(max_episodes=60, patience_checks=10)
    result = train(StubEncoder(), stub_split(), stub_split(), cfg,
                   loader=stub_loader, val_metric=lambda enc, ep: next(values))
    vals = [r.val_accuracy for r in result.history if r.val_accuracy is not None]
    assert result.best_val_accuracy == max(vals) == 0.6
    assert result.best_episode == 20  # ties do not move the incumbent


def test_training_deterministic_given_seed():
    def run():
        return train(StubEncoder(seed=3), stub_split(), stub_split(), tiny_cfg(),
                     loader=stub_loader)

    a, b = run(), run()
    assert [r.loss for r in a.history] == [r.loss for r in b.history]
    assert [r.val_accuracy for r in a.history] == [r.val_accuracy for r in b.history]


def test_training_improves_separable_toy_data():
    cfg = tiny_cfg(max_episodes=80, eval_interval=20, patience_checks=4, lr=0.1)
    enc = StubEncoder(seed=5)
    result = train(enc, stub_split(6, 8), stub_split(6, 8), cfg, loader=stub_loader)
    vals = [r.val_accuracy for r in result.history if r.val_accuracy is not None]
    assert vals[-1] >= vals[0]
    assert result.best_val_accuracy >= 0.9  # means are 1.0 apart; trivially separable


def test_non_finite_step_stops_training_at_its_episode():
    """At lr 1e30 the first Adam step throws the weights so far that the
    second episode's loss is NaN; training stops there, before Adam applies
    it, naming the episode and the parameter."""
    with pytest.raises(NonFiniteValueError, match=r"episode 2: loss nan, .* gradient of w"):
        train(StubEncoder(), stub_split(), stub_split(), tiny_cfg(lr=1e30), loader=stub_loader)


def test_trainers_stepped_in_turn_end_as_each_does_alone():
    """A Trainer owns all of its run's state: two runs stepped alternately
    end with the history and parameters train() gives each on its own."""
    cfg = tiny_cfg()
    alone = [train(StubEncoder(seed), stub_split(), stub_split(), cfg, loader=stub_loader)
             for seed in (3, 4)]
    trainers = [Trainer(StubEncoder(seed), stub_split(), stub_split(), cfg, loader=stub_loader)
                for seed in (3, 4)]
    while not all(t.done for t in trainers):
        for t in trainers:
            if not t.done:
                t.step()
    strip = lambda t: [(r.episode, r.loss, r.val_accuracy) for r in t.history]
    for stepped, lone in zip(trainers, alone):
        assert strip(stepped) == strip(lone)
        assert (stepped.best_episode, stepped.episodes_run) == (lone.best_episode,
                                                                lone.episodes_run)
        for got, want in ((stepped.encoder.state_dict(), lone.encoder.state_dict()),
                          (stepped.best_params, lone.best_params)):
            assert got.keys() == want.keys()
            for name in got:
                np.testing.assert_array_equal(got[name], want[name])
    assert strip(trainers[0]) != strip(trainers[1])


def test_train_without_a_check_keeps_the_last_state_as_best():
    enc = StubEncoder()
    result = train(enc, stub_split(), stub_split(), tiny_cfg(max_episodes=7), loader=stub_loader)
    assert (result.best_val_accuracy, result.best_episode, result.episodes_run) == (None, 7, 7)
    np.testing.assert_array_equal(result.best_params["w"], enc.params["w"].data)


def test_validation_split_without_an_episode_fails_when_the_trainer_is_built():
    """The validation episodes are drawn when the Trainer is built if a check
    can fall due, so a validation split too small for one episode fails before
    the first training episode. With a val_metric, or no check due by
    max_episodes, the split is never sampled and the run goes to its end."""
    small = stub_split(n_classes=1)
    for cfg in (tiny_cfg(), tiny_cfg(max_episodes=10, eval_interval=10)):
        with pytest.raises(InsufficientClassesError, match="need 2 classes, split has 1"):
            Trainer(StubEncoder(), stub_split(), small, cfg, loader=stub_loader)
    for cfg, val_metric in ((tiny_cfg(), lambda enc, ep: 0.5),
                            (tiny_cfg(max_episodes=9, eval_interval=10), None)):
        result = train(StubEncoder(), stub_split(), small, cfg, loader=stub_loader,
                       val_metric=val_metric)
        assert result.val_episodes is None and result.episodes_run == cfg.max_episodes


def test_validation_episodes_are_drawn_at_the_first_check():
    """The episodes come from the "<seed>/val" stream when the first check
    falls due; a validation split with a class too small for an episode
    still fails when the Trainer is built."""
    cfg = tiny_cfg(max_episodes=10, eval_interval=5)
    trainer = Trainer(StubEncoder(), stub_split(), stub_split(), cfg, loader=stub_loader)
    for _ in range(4):
        trainer.step()
    assert trainer.val_episodes is None
    trainer.step()
    assert trainer.val_episodes == sample_episodes(stub_split(), cfg, cfg.val_episodes, "1/val")
    short = {**stub_split(), "c2": ["c2/clip0", "c2/clip1", "c2/clip2"]}
    with pytest.raises(InsufficientExamplesError, match="class 'c2' has 3 clips, episode needs 4"):
        Trainer(StubEncoder(), stub_split(), short, cfg, loader=stub_loader)


def test_step_keeps_no_gradient_after_it_returns():
    """A desk vgg step's gradients are freed when it returns: with the input
    cache filled and one step run before, what the next step leaves allocated
    is under a quarter of the parameters' bytes (a gradient kept per parameter
    would be all of them)."""
    split = stub_split(n_classes=2, clips=4)
    loader = lambda path: synth_clip(TimbreProfile(220.0 * (1 + int(path[1]))), 0.8,
                                     seed=int(path.split("clip")[1]))
    encoder = build_encoder(EncoderSpec("vgg", "desk"), seed=0)
    trainer = Trainer(encoder, split, split, tiny_cfg(max_episodes=3, eval_interval=100),
                      loader=loader)
    for paths in split.values():
        for path in paths:
            trainer.cache.get(path)
    trainer.step()
    tracemalloc.start()
    try:
        trainer.step()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    param_bytes = sum(p.data.nbytes for p in encoder.params.values())
    assert held < param_bytes / 4, (held, param_bytes)


def test_trace_seams_of_the_benchmark_see_training(monkeypatch):
    """perfbench/layertrace.py times training's layers by patching these
    names in protoaudio.training; a step that bound them anywhere else would
    read 0 in every per-layer metric."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import layertrace
    enc = StubEncoder()
    tracer = layertrace.Tracer()
    tracer.trace_loop(enc)
    seen = []   # the values after each episode; episode 2 runs the validation check
    try:
        train(enc, stub_split(), stub_split(), tiny_cfg(max_episodes=2, eval_interval=2),
              loader=stub_loader, progress=lambda *_: seen.append(dict(tracer.values)))
    finally:
        tracer.restore()
    for name in ("protonet.sample_episode_s", "protonet.episode_loss_s", "diffcore.backward_s",
                 "diffcore.adam_step_s"):
        assert seen[0].get(name, 0) > 0, name
    for name in ("training.embed_table_s", "training.score_s"):
        assert seen[1].get(name, 0) > 0, name


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(n_shot=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-1.0)
    for lr in (float("nan"), float("inf")):
        with pytest.raises(ConfigError):
            TrainConfig(lr=lr)


def test_protocol_defaults():
    cfg = TrainConfig()
    assert cfg.max_episodes == 25000
    assert cfg.eval_interval == 500
    assert cfg.patience_checks == 10
    assert cfg.lr == 1e-5
    assert cfg.test_episodes == 1000
    assert cfg.n_shot == 5


# -- evaluation -------------------------------------------------------------------


def onehot_embeddings(split, dim=None):
    classes = sorted(split)
    dim = dim or len(classes)
    table = {}
    for ci, c in enumerate(classes):
        for p in split[c]:
            v = np.zeros(dim)
            v[ci] = 1.0
            table[p] = v
    return table


def eval_episodes(split, n_shot, k_way, q_query, n_episodes, seed):
    """The test protocol's episodes: drawn from the "<seed>/eval" stream."""
    cfg = TrainConfig(n_shot=n_shot, k_way=k_way, q_query=q_query)
    return sample_episodes(split, cfg, n_episodes, f"{seed}/eval")


def test_oracle_embedder_scores_perfectly():
    split = stub_split(5, 6)
    report = evaluate_embeddings(onehot_embeddings(split), eval_episodes(
        split, n_shot=2, k_way=5, q_query=2, n_episodes=100, seed=0))
    assert report.mean_accuracy == 1.0
    assert report.std_error == 0.0


def test_constant_embedder_scores_chance():
    split = stub_split(5, 6)
    table = {p: np.ones(3) for clips in split.values() for p in clips}
    report = evaluate_embeddings(table, eval_episodes(split, 2, 5, 2, n_episodes=200, seed=1))
    # ties resolve to episode class 0: exactly 1/k of queries per episode
    assert report.mean_accuracy == pytest.approx(0.2, abs=1e-12)


def test_evaluation_deterministic():
    split = stub_split(4, 8)
    rng = np.random.default_rng(0)
    table = {p: rng.normal(size=3) for clips in split.values() for p in clips}
    a = evaluate_embeddings(table, eval_episodes(split, 2, 3, 2, 100, seed=9))
    b = evaluate_embeddings(table, eval_episodes(split, 2, 3, 2, 100, seed=9))
    assert a == b
    c = evaluate_embeddings(table, eval_episodes(split, 2, 3, 2, 100, seed=10))
    assert a != c


def reference_score_episode(embeddings, episode):
    """The scorer the prototype-logit one replaced: the query NLL's Tensor
    path, whose logits' argmax gives the accuracy."""
    support = np.stack([np.stack([embeddings[p] for p in block]) for block in episode.support])
    queries = dc.Tensor(np.stack([embeddings[p] for p in episode.query_paths()]))
    labels = episode.query_labels()
    logits = dc.mul_scalar(dc.squared_euclidean(queries, compute_prototypes(support)), -1.0)
    dc.cross_entropy(logits, labels)
    return float(np.mean(np.argmax(logits.data, axis=1) == labels))


def desk_score_trials():
    """5-shot 5-way 5-query (k, table, episodes) trials at the desk width d =
    384, by name: random values, two classes whose clips share one embedding
    (exact ties), a common offset 1e8 times the spread (|q|² − 2q·p + |p|²
    cancels to noise), squares that underflow (scale 1e-160), squares of a
    few subnormal units (1e-161), squares that overflow (1e155), and one NaN
    row."""
    rng = np.random.default_rng(6)
    split = stub_split(7, 12)
    paths = [p for clips in split.values() for p in clips]
    normal = {p: rng.normal(size=384) for p in paths}
    shared = rng.normal(size=384)
    tables = {
        "random": normal,
        "ties": {p: shared if p.startswith(("c0/", "c1/")) else v for p, v in normal.items()},
        "offset": {p: 1e4 + 1e-4 * v for p, v in normal.items()},
        "underflow": {p: 1e-160 * v for p, v in normal.items()},
        "subnormal": {p: 1e-161 * v for p, v in normal.items()},
        "overflow": {p: 1e155 * v for p, v in normal.items()},
        "nan": {p: np.full(384, np.nan) if p == "c2/clip3" else v for p, v in normal.items()},
    }
    episodes = sample_episodes(split, tiny_cfg(n_shot=5, k_way=5, q_query=5), 20, "6/eval")
    return {name: (5, table, episodes) for name, table in tables.items()}


def score_trials():
    """37 (k, table, episodes) trials: 30 of random shapes and tables (all-equal
    embeddings, small integers with exact ties, and random values of scales
    1e-3 to 1e3), then the desk-width ones."""
    rng = np.random.default_rng(4)
    for trial in range(30):
        n, k, q, d = rng.integers(1, 4), rng.integers(2, 6), rng.integers(1, 4), rng.integers(1, 9)
        split = stub_split(k + 2, n + q + 2)
        paths = [p for clips in split.values() for p in clips]
        if trial == 0:
            table = {p: np.full(d, 0.3) for p in paths}     # all equal: ties go to class 0
        elif trial < 6:
            # small integers: exact ties between some classes, not all
            table = {p: rng.integers(0, 3, size=d).astype(np.float64) for p in paths}
        else:
            scale = 10.0 ** rng.integers(-3, 4)
            table = {p: scale * rng.normal(size=d) for p in paths}
        yield k, table, [sample_episode(split, n, k, q, random.Random(trial * 100 + i))
                         for i in range(20)]
    yield from desk_score_trials().values()


def test_score_episode_matches_reference_scorer():
    for trial, (k, table, episodes) in enumerate(score_trials()):
        got = list(score_episode(table, episodes))
        want = [reference_score_episode(table, e) for e in episodes]
        assert got == want
        if trial == 0:
            assert got == [1.0 / k] * len(episodes)


def query_major_score_episode(embeddings, episodes):
    """score_episode as it was with the differences laid out (e, k·q, k, d)
    and the argmax over the class axis last."""
    [(k, n, q)] = {(e.k_way, e.n_shot, e.n_query) for e in episodes}
    row = {p: i for i, p in enumerate(embeddings)}
    table = np.array([embeddings[p] for p in row], dtype=np.float64)
    support = np.array([[row[p] for p in e.support_paths()] for e in episodes]).reshape(-1, k, n)
    query = np.array([[row[p] for p in e.query_paths()] for e in episodes])
    protos = table[support].mean(axis=2)
    diff = table[query][:, :, None] - protos[:, None]
    distances = np.einsum("eqkd,eqkd->eqk", diff, diff)
    return np.mean(np.argmax(-distances, axis=2) == episodes[0].query_labels(), axis=1)


def test_score_episode_matches_query_major_layout():
    """The (e, k, k·q, d) layout with the argmax over axis 1 gives the
    accuracy arrays of the (e, k·q, k, d) one it replaced, bit for bit, ties
    included."""
    for _, table, episodes in score_trials():
        got = score_episode(table, episodes)
        assert got.tobytes() == query_major_score_episode(table, episodes).tobytes()


@pytest.mark.parametrize("equal", [False, True], ids=["random", "all-equal"])
def test_score_episode_chunks_match_reference_scorer(equal):
    """At the desk embedding width the scorer takes several chunks; one
    episode, and a count that leaves a partial last chunk, score as the
    per-episode reference does, bit for bit."""
    n, k, q, d = 5, 5, 5, 384
    chunk = training.SCORE_CHUNK_BYTES // (k * max(n, q) * d * 8)
    assert 1 < chunk < 100
    split = stub_split(8, 12)
    rng = np.random.default_rng(8)
    table = {p: np.full(d, 0.7) if equal else rng.normal(size=d)
             for clips in split.values() for p in clips}
    for count in (1, 2 * chunk + 3):
        episodes = sample_episodes(split, tiny_cfg(n_shot=n, k_way=k, q_query=q), count, "3/eval")
        got = list(score_episode(table, episodes))
        assert got == [reference_score_episode(table, e) for e in episodes]
        assert np.array(got).tobytes() == query_major_score_episode(table, episodes).tobytes()
        if equal:
            assert got == [1.0 / k] * count


def test_only_episodes_within_the_margin_are_rescored(monkeypatch):
    """The inner-product distances decide every query of a random desk-width
    table; the exact ties of two classes sharing one embedding are rescored."""
    rescored = []
    rescore = training._rescore_episodes

    def counted(queries, protos, labels):
        rescored.append(len(queries))
        return rescore(queries, protos, labels)

    monkeypatch.setattr(training, "_rescore_episodes", counted)
    trials = desk_score_trials()
    score_episode(*trials["random"][1:])
    assert sum(rescored) == 0
    score_episode(*trials["ties"][1:])
    assert sum(rescored) >= 1


def margin_trial():
    """A case a seeded search over offset tables found: 120 embeddings of
    width d = 2048, a common offset 1e4·N(0, 1) plus 3e-5·N(0, 1) each, and
    500 1-shot 2-way 5-query episodes."""
    rng = np.random.default_rng(5)
    split = stub_split(6, 20)
    offset = 1e4 * rng.normal(size=2048)
    table = {p: offset + 3e-5 * rng.normal(size=2048) for clips in split.values() for p in clips}
    return table, sample_episodes(split, tiny_cfg(n_shot=1, k_way=2, q_query=5), 500, "5/eval")


def test_score_margin_keeps_its_relative_term():
    """On the margin trial, |q|² − 2·q·p + |p|² puts some query nearer the
    wrong one of its two classes by more than the margin with γ_1 in place of
    γ_{d+4}, but not by more than the γ_{d+4} one. A scorer with the smaller
    margin would count that pick; score_episode rescores it."""
    table, episodes = margin_trial()
    assert list(score_episode(table, episodes)) == [reference_score_episode(table, e)
                                                    for e in episodes]
    rows = np.array([[table[p] for p in e.support_paths() + e.query_paths()] for e in episodes])
    protos, queries = rows[:, :2], rows[:, 2:]                   # 1-shot: the support rows
    q_sq = np.einsum("end,end->en", queries, queries)[:, :, None]
    p_sq = np.einsum("ekd,ekd->ek", protos, protos)[:, None]
    fast = q_sq - 2 * np.matmul(queries, protos.transpose(0, 2, 1)) + p_sq   # (e, 10, 2)
    diff = queries[:, :, None] - protos[:, None]
    exact = np.einsum("eqkd,eqkd->eqk", diff, diff)
    scale = (np.sqrt(q_sq) + np.sqrt(p_sq)) ** 2
    wrong = np.argmin(fast, axis=2) != np.argmin(exact, axis=2)
    gap = np.abs(fast[:, :, 0] - fast[:, :, 1])
    margin = {m: (2 * m * 2.0 ** -53 / (1 - m * 2.0 ** -53) * scale).sum(axis=2) for m in (1, 2052)}
    assert np.any(wrong & (gap > margin[1]) & (gap <= margin[2052]))


def test_evaluate_embeddings_rejects_no_episodes():
    split = stub_split(3, 6)
    with pytest.raises(ConfigError):
        evaluate_embeddings(onehot_embeddings(split), [])


def test_evaluate_embeddings_rejects_mixed_episode_shapes():
    split = stub_split(4, 8)
    episodes = (eval_episodes(split, 2, 3, 2, 3, seed=0)
                + eval_episodes(split, 3, 3, 2, 1, seed=0))
    with pytest.raises(ShapeMismatchError):
        evaluate_embeddings(onehot_embeddings(split), episodes)


def test_validation_matches_reference_loop():
    """train()'s validation value is the mean over its fixed episodes, as the
    loop it replaced computed it: embed the touched clips, score each one."""
    enc = StubEncoder(seed=2)
    cache = InputCache(enc, stub_loader)
    split = stub_split(5, 8)
    episodes = sample_episodes(split, tiny_cfg(k_way=3), 40, "1/val")
    paths = [p for e in episodes for p in e.support_paths() + e.query_paths()]
    table = embed_table(enc, cache, paths)
    want = float(np.mean([reference_score_episode(table, e) for e in episodes]))
    assert evaluate_episodes(enc, cache, episodes).mean_accuracy == want


def test_evaluate_embeds_only_touched_clips():
    enc = StubEncoder()
    seen = []
    cache = InputCache(enc, lambda path: seen.append(path) or stub_loader(path))
    split = stub_split(6, 10)
    evaluate(enc, cache, split, tiny_cfg(k_way=3), n_episodes=1)
    assert len(seen) == 3 * (2 + 2)


def test_evaluate_uses_test_episodes_default():
    split = stub_split(3, 6)
    enc = StubEncoder()
    cache = InputCache(enc, stub_loader)
    cfg = tiny_cfg(k_way=3, test_episodes=77)
    report = evaluate(enc, cache, split, cfg)
    assert report.n_episodes == 77
    assert TrainConfig().test_episodes == 1000


def test_embed_table_matches_direct_embedding(monkeypatch):
    monkeypatch.setattr(training, "EMBED_BATCH", 5)
    enc = StubEncoder()
    cache = InputCache(enc, stub_loader)
    split = stub_split(3, 4)
    paths = [p for clips in split.values() for p in clips]
    table = embed_table(enc, cache, paths)
    direct = enc.embed_batch([cache.get(paths[0])]).data[0]
    np.testing.assert_allclose(table[paths[0]], direct, atol=1e-7)


# -- persistence ---------------------------------------------------------------------


def test_history_round_trip(tmp_path):
    """The history `protoaudio train` streams, one to_json line per episode,
    reads back as the records it was written from."""
    records = [
        MetricRecord(1, 1.5, None, "2026-01-01T00:00:00.000+00:00"),
        MetricRecord(2, 1.2, 0.5, "2026-01-01T00:00:01.000+00:00"),
    ]
    path = tmp_path / "history.jsonl"
    path.write_text("".join(r.to_json() + "\n" for r in records), encoding="utf-8")
    loaded = load_history(path)
    assert loaded == records
    assert loaded[0].val_accuracy is None


def test_encoder_checkpoint_round_trip(tmp_path):
    spec = EncoderSpec("vgg", "desk")
    enc = build_encoder(spec, seed=3)
    clip = synth_clip(TimbreProfile(440.0, (1.0, 0.4)), 0.8, seed=0)
    x = enc.prepare_input(clip)
    want = enc.embed_batch([x]).data
    path = tmp_path / "best.ckpt"
    save_encoder_checkpoint(path, enc, extra_meta={"val_accuracy": 0.91, "episode": 120})
    restored = restore_encoder(path, spec)
    np.testing.assert_array_equal(restored.embed_batch([x]).data, want)
    _, meta = load_encoder_checkpoint(path, spec)
    assert meta["val_accuracy"] == 0.91


def test_checkpoint_spec_mismatch_rejected(tmp_path):
    enc = build_encoder(EncoderSpec("vgg", "desk"), seed=0)
    path = tmp_path / "vgg.ckpt"
    save_encoder_checkpoint(path, enc)
    with pytest.raises(CheckpointMismatchError):
        load_encoder_checkpoint(path, EncoderSpec("lstm", "desk"))
    with pytest.raises(CheckpointMismatchError):
        load_encoder_checkpoint(path, EncoderSpec("vgg", "paper"))


def test_checkpoint_with_the_header_but_not_the_tensors_rejected(tmp_path):
    """A checkpoint whose header matches but whose tensors do not fit the
    encoder is a checkpoint mismatch naming the file, not a shape error."""
    spec = EncoderSpec("vgg", "desk")
    enc = build_encoder(spec, seed=0)
    path = tmp_path / "best.ckpt"
    for tensors in ({n: a for n, a in enc.state_dict().items() if n != "conv1_b"},
                    {**enc.state_dict(), "conv1_b": np.zeros(3, dtype=np.float32)}):
        save_encoder_checkpoint(path, enc, tensors)
        with pytest.raises(CheckpointMismatchError, match="best.ckpt: .*conv1_b"):
            restore_encoder(path, spec)


def test_render_eval_table():
    """One encoder at the run's (shot, way): the header and the rule, then
    the row, each column as wide as its widest cell."""
    report = EvalReport(0.935, 0.01, 100)
    assert render_eval_table("vgg", TrainConfig(), report) == (
        "encoder  5-shot 5-way\n"
        "-------  ------------\n"
        "vgg      93.5%       \n")
    assert render_eval_table("sincnet+lstm", TrainConfig(n_shot=1, k_way=20), report) == (
        "encoder       1-shot 20-way\n"
        "------------  -------------\n"
        "sincnet+lstm  93.5%        \n")
