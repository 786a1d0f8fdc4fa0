"""Acceptance gate: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them live). Budgets and tolerances are asserted
inside the tests."""

import math
import time
import warnings

import numpy as np
import pytest

from protoaudio import diffcore as dc
from protoaudio.datasetkit import (
    Manifest,
    ManifestEntry,
    exhaustive_single_label_subset,
    gen_synthetic_corpus,
    make_splits,
    select_single_label_subset,
)
from protoaudio.diffcore.ops import sinc_cutoffs
from protoaudio.dsp import FrontendConfig, extract_features, frame_signal, mel_scale
from protoaudio.encoders import EncoderSpec, build_encoder
from protoaudio.protonet import classify, compute_prototypes
from protoaudio.training import InputCache, TrainConfig, evaluate, train

import reference_ops as rops
from test_dsp import safe_tone_frequencies, tone_argmax_oracle
from test_training import StubEncoder, stub_loader, stub_split


def verdict(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {status}: {name}{suffix}")
    assert ok, f"{name}{suffix}"


# -- criterion 1: gradient suite -----------------------------------------------------


SINC_FLOOR = 0.01


def sinc_parameters(rng):
    """Raw cutoff parameters (θ_low, θ_band) of 5 filters in random order and
    signs: 2 unclamped, 1 with f2 clamped at 0.5, 1 with f1 clamped at
    0.5 - floor (and so f2 too), and 1 of either kind. Every input stays
    >= 0.01 (1000 h) away from the kinks of |·| at 0 and of both clamps."""
    sat_f1 = (rng.uniform(0.5, 0.7), rng.uniform(0.02, 0.2))
    sat_f2 = (rng.uniform(0.25, 0.35), rng.uniform(0.3, 0.4))
    rows = np.array([rng.uniform(0.02, 0.2, size=2), rng.uniform(0.02, 0.2, size=2),
                     sat_f2, sat_f1, (sat_f1, sat_f2)[rng.integers(2)]])
    rows = rows[rng.permutation(5)] * rng.choice([-1.0, 1.0], size=(5, 2))
    return [rows[:, 0].copy(), rows[:, 1].copy()]


def op_instances(rng):
    """Ten randomized gradcheck instances for every differentiable op and
    every test-local op."""
    u = lambda *s: rng.uniform(-2.0, 2.0, size=s)
    off = lambda *s: rng.uniform(0.2, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s)
    pos = lambda *s: rng.uniform(0.4, 3.0, size=s)

    def spread(shape):
        n = int(np.prod(shape))
        base = rng.permutation(n).astype(np.float64)
        return ((base / n) * 4.0 - 2.0).reshape(shape) + rng.uniform(-0.01, 0.01, size=shape)

    def dims(lo, hi):
        return int(rng.integers(lo, hi + 1))

    cases = []
    for _ in range(10):
        # all randomized sizes are bound eagerly (default args / locals) so the
        # checked function stays deterministic across gradcheck's re-evaluations
        r, c = dims(2, 5), dims(2, 5)
        rows = dims(4, 8)
        labels = rng.integers(0, c, size=r)
        stride1, pad1 = dims(1, 2), dims(0, 2)
        stride2 = dims(1, 2)
        pad_to = rows + dims(1, 3)
        hidden = dims(1, 3)
        # unsorted ragged clips, a one-step clip among them, and a single clip
        lstm_lens = tuple(int(t) for t in rng.permutation([1, dims(2, 4), dims(3, 5)]))
        single_len = dims(1, 4)
        # a subset of the rows in random order, with zero rows (-1) among them
        gather_index = tuple(int(i) for i in rng.permutation(
            np.concatenate([rng.permutation(rows)[:dims(1, rows)], [-1] * dims(1, 3)])))
        fold = dims(2, 4)                 # a kernel of K = m·stride + r taps, 0 < r < stride
        fold_taps = fold * dims(1, 2) + dims(1, fold - 1)
        cases += [
            ("add", dc.add, [u(r, c), u(r, c)]),
            ("add", dc.add, [u(r, c), u(c)]),          # bias broadcast
            ("mul", dc.mul, [u(r, c), u(r, c)]),
            ("add_scalar", lambda a: rops.add_scalar(a, 0.73), [u(r, c)]),
            ("mul_scalar", lambda a: dc.mul_scalar(a, -1.9), [u(r, c)]),
            ("matmul", dc.matmul, [u(r, c), u(c, dims(2, 4))]),
            ("relu", dc.relu, [off(r, c)]),
            ("sigmoid", rops.sigmoid, [u(r, c)]),
            ("tanh", rops.tanh, [u(r, c)]),
            ("absval", rops.absval, [off(r, c)]),
            ("log", rops.log, [pos(r, c)]),
            ("log_abs", lambda a: dc.log_abs(a, 0.05), [off(r, c)]),
            ("sum_all", dc.sum_all, [u(r, c)]),
            ("mean_pool", lambda a: dc.mean_pool(a, 0), [u(rows, c)]),
            ("mean_pool", lambda a: dc.mean_pool(a, 1), [u(2, r, c)]),
            ("segment_mean",
             lambda a, lens=(2, rows - 3, 1): dc.segment_mean(a, lens), [u(rows, c)]),
            ("concat", lambda a, b: dc.concat([a, b], axis=0), [u(r, c), u(dims(1, 4), c)]),
            ("reshape", lambda a: dc.reshape(a, (a.size,)), [u(r, c)]),
            ("slice_rows",
             lambda a, hi=rows - 1: dc.slice_rows(a, 1, hi), [u(rows, c)]),
            ("pad_rows", lambda a, t=pad_to: rops.pad_rows(a, t), [u(rows, c)]),
            ("gather_rows",
             lambda a, i=gather_index: dc.gather_rows(a, i), [u(rows, c)]),
            ("softmax", dc.softmax, [u(r, c)]),
            ("squared_euclidean", dc.squared_euclidean, [u(r, c), u(dims(2, 5), c)]),
            ("cross_entropy",
             lambda a, lab=labels: dc.cross_entropy(a, lab), [u(r, c)]),
            ("conv1d",
             lambda x, w, b, s=stride1, p=pad1: dc.conv1d(x, w, b, stride=s, padding=p),
             [u(2 * dims(8, 12), 2), u(dims(3, 5), 2, 3), u(3)]),     # 2 clips end to end
            ("conv1d",                                   # K not a multiple of the stride
             lambda x, w, b, s=fold, p=pad1: dc.conv1d(x, w, b, stride=s, padding=p),
             [u(dims(1, 2) * (fold_taps + dims(0, 2 * fold)), 2), u(fold_taps, 2, 3), u(3)]),
            ("conv2d",
             lambda x, w, b, s=stride2: dc.conv2d(x, w, b, stride=s, padding=1),
             [u(2, dims(4, 6), dims(4, 6), 2), u(3, 3, 2, 3), u(3)]),
            ("conv2d",                                   # single channel: one im2col GEMM
             lambda x, w, b, s=stride2: dc.conv2d(x, w, b, stride=s, padding=1),
             [u(2, dims(4, 6), dims(4, 6), 1), u(3, 3, 1, 2), u(2)]),
            ("max_pool1d", lambda x: dc.max_pool1d(x, 2),   # 2 ragged clips end to end
             [spread((dims(6, 9) + dims(6, 9), 2))]),
            ("max_pool2d", lambda x: dc.max_pool2d(x, 2), [spread((2, 4, 2 * dims(2, 4), 2))]),
            ("sinc_kernel",
             lambda tl, tb: dc.sinc_kernel(tl, tb, SINC_FLOOR, np.hamming(13)),
             sinc_parameters(rng)),
            ("lstm_sequence",
             lambda x, wx, b, wh, lens=lstm_lens: dc.lstm_sequence(x, wx, b, wh, lens),
             [u(sum(lstm_lens), c), u(4 * c, hidden), u(4 * hidden), u(4 * hidden, hidden)]),
            ("lstm_sequence",
             lambda x, wx, b, wh, lens=(single_len,): dc.lstm_sequence(x, wx, b, wh, lens),
             [u(single_len, c), u(4 * c, hidden), u(4 * hidden), u(4 * hidden, hidden)]),
        ]
    return cases


def test_criterion_gradient_suite():
    rng = np.random.default_rng(20260808)
    start = time.monotonic()
    worst = 0.0
    counts = {}
    clamped = 0     # sinc_kernel instances with a clamped filter
    for name, fn, arrays in op_instances(rng):
        worst = max(worst, dc.gradcheck(fn, arrays, rng, h=1e-5,
                                        rel_tol=1e-4, abs_tol=1e-6))
        counts[name] = counts.get(name, 0) + 1
        if name == "sinc_kernel":
            clamped += not all(free.all() for free in sinc_cutoffs(*arrays, SINC_FLOOR)[2:])
    elapsed = time.monotonic() - start
    missing = [op for op in dc.DIFFERENTIABLE_OPS + rops.TEST_OPS if counts.get(op, 0) < 10]
    verdict(
        "gradient suite: every op and test-local op, 10 finite-difference instances, "
        "rel err < 1e-4",
        not missing and clamped >= 10 and elapsed < 120.0,
        f"{sum(counts.values())} checks, {clamped} with clamped sinc filters, "
        f"worst err ratio {worst:.3f}, {elapsed:.1f}s"
        + (f", missing {missing}" if missing else ""),
    )


# -- criterion 2: prototype / classification oracles -----------------------------------


def test_criterion_prototype_classify_oracles():
    rng = np.random.default_rng(7)
    ok = True
    details = []

    block = rng.normal(size=(5, 5, 8))
    protos = compute_prototypes(block).data
    brute = np.array([[block[c, :, d].sum() / 5.0 for d in range(8)] for c in range(5)])
    ok &= bool(np.allclose(protos, brute, atol=1e-6))
    details.append(f"means err {np.abs(protos - brute).max():.2e}")

    probs = classify(rng.normal(size=(6, 8)).astype(np.float64),
                     rng.normal(size=(4, 8)).astype(np.float64)).data
    sums_err = float(np.abs(probs.sum(axis=1) - 1.0).max())
    ok &= sums_err < 1e-9
    details.append(f"sum err {sums_err:.1e}")

    hand = classify(np.array([0.0]), np.array([[0.0], [math.sqrt(2.0)]])).data
    hand_err = float(np.abs(hand - [0.8808, 0.1192]).max())
    ok &= hand_err < 1e-3
    details.append(f"hand case err {hand_err:.1e}")

    q = rng.normal(size=(4, 6))
    p = rng.normal(size=(5, 6))
    rot, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    shift = rng.normal(size=6)
    iso_err = float(np.abs(classify(q, p).data
                           - classify(q @ rot + shift, p @ rot + shift).data).max())
    ok &= iso_err < 1e-6
    details.append(f"isometry err {iso_err:.1e}")

    verdict("prototype/classify oracle suite", ok, "; ".join(details))


# -- criterion 3: DSP oracles ------------------------------------------------------------


def test_criterion_dsp_oracles():
    cfg = FrontendConfig()
    ok = True
    details = []

    frames = frame_signal(np.zeros(16000))
    ok &= frames.shape[0] == 98
    details.append(f"frames {frames.shape[0]}")

    mel_err = abs(mel_scale(700.0) - 781.17)
    ok &= mel_err <= 0.01
    details.append(f"mel(700) err {mel_err:.4f}")

    feats = extract_features(np.zeros(16000))
    floor_err = float(np.abs(feats - np.log(cfg.log_floor)).max())
    ok &= floor_err < 1e-9
    details.append(f"log-floor err {floor_err:.1e}")

    rng = np.random.default_rng(99)
    tones_ok = 0
    for f in safe_tone_frequencies(5, rng):
        t = np.arange(16000) / 16000.0
        x = (0.7 * np.sin(2 * np.pi * f * t)).astype(np.float32)
        got = int(np.argmax(extract_features(x).mean(axis=0)))
        tones_ok += got == tone_argmax_oracle(f)
    ok &= tones_ok == 5
    details.append(f"tone argmax {tones_ok}/5")

    verdict("DSP oracle suite", ok, "; ".join(details))


# -- criterion 4: subset selection -----------------------------------------------------


def random_multilabel(rng, n_classes, n_clips):
    classes = [f"c{i:02d}" for i in range(n_classes)]
    entries = []
    for i in range(n_clips):
        labels = rng.choice(classes, size=rng.integers(1, 4), replace=False)
        entries.append(ManifestEntry(f"/r{i}.wav", frozenset(labels.tolist())))
    return Manifest(tuple(entries))


def test_criterion_subset_selection_oracle():
    start = time.monotonic()
    worked = Manifest((
        ManifestEntry("/1.wav", frozenset({"A"})),
        ManifestEntry("/2.wav", frozenset({"B"})),
        ManifestEntry("/3.wav", frozenset({"A", "B"})),
        ManifestEntry("/4.wav", frozenset({"C"})),
    ))
    _, j_worked = select_single_label_subset(worked, 2)

    rng = np.random.default_rng(424242)
    ratios = []
    for _ in range(50):
        n_classes = int(rng.integers(5, 13))
        m = random_multilabel(rng, n_classes, int(rng.integers(30, 201)))
        m_classes = int(rng.integers(2, min(8, n_classes)))
        _, j = select_single_label_subset(m, m_classes, budget=5000)
        _, j_star = exhaustive_single_label_subset(m, m_classes)
        ratios.append(j / max(j_star, 1))
    elapsed = time.monotonic() - start
    ok = j_worked == 3 and min(ratios) >= 0.95 and elapsed < 60.0
    verdict(
        "subset selection: worked instance J=3; 50 random instances >= 0.95 * optimum",
        ok,
        f"worked J={j_worked}, worst ratio {min(ratios):.3f}, {elapsed:.1f}s",
    )


# -- criteria 5 & 7: end-to-end learning and encoder ranking -----------------------------


@pytest.fixture(scope="module")
def corpus_splits(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    manifest, _ = gen_synthetic_corpus(root, n_classes=25, clips_per_class=20, seed=11)
    split = make_splits(manifest, (0.6, 0.2, 0.2), min_per_class=10, seed=11)
    assert (len(split.train), len(split.val), len(split.test)) == (15, 5, 5)
    return split


def desk_cfg():
    return TrainConfig(n_shot=5, k_way=5, q_query=5, max_episodes=600,
                       eval_interval=50, patience_checks=5, lr=1e-3,
                       test_episodes=200, val_episodes=100, seed=0)


def train_and_score(kind, split, cfg):
    spec = EncoderSpec(kind, "desk")
    baseline_enc = build_encoder(spec, seed=cfg.seed)
    baseline = evaluate(baseline_enc, InputCache(baseline_enc), split.test, cfg)
    encoder = build_encoder(spec, seed=cfg.seed)
    result = train(encoder, split.train, split.val, cfg)
    encoder.load_state(result.best_params)
    final = evaluate(encoder, InputCache(encoder), split.test, cfg)
    return baseline, final, result


@pytest.fixture(scope="module")
def vgg_run(corpus_splits):
    start = time.monotonic()
    baseline, final, result = train_and_score("vgg", corpus_splits, desk_cfg())
    return baseline, final, result, time.monotonic() - start


def test_criterion_end_to_end_learning(vgg_run):
    baseline, final, result, elapsed = vgg_run
    cfg = desk_cfg()
    ok = (
        result.episodes_run <= 2000
        and final.n_episodes == 200
        and final.mean_accuracy >= 0.90
        and final.mean_accuracy - baseline.mean_accuracy >= 0.30
        and elapsed < 900.0
    )
    verdict(
        "end-to-end learning: test accuracy >= 90% and >= 30 points over untrained",
        ok,
        f"trained {100 * final.mean_accuracy:.1f}% vs untrained "
        f"{100 * baseline.mean_accuracy:.1f}% after {result.episodes_run} episodes, "
        f"{elapsed:.0f}s",
    )


def test_criterion_protocol_conformance():
    cfg = TrainConfig(n_shot=1, k_way=2, q_query=1, max_episodes=10_000,
                      eval_interval=10, patience_checks=3, lr=0.01,
                      val_episodes=5, seed=0)
    result = train(StubEncoder(), stub_split(), stub_split(), cfg,
                   loader=stub_loader, val_metric=lambda enc, ep: 0.5)
    halted_exactly = result.episodes_run == (cfg.patience_checks + 1) * cfg.eval_interval
    defaults_ok = TrainConfig().test_episodes == 1000
    from protoaudio.cli import CONFIG_DEFAULTS, make_parser
    defaults_ok &= CONFIG_DEFAULTS["test_episodes"] == "1000"
    args = make_parser().parse_args(["eval", "--run", "x"])
    defaults_ok &= args.episodes is None  # falls through to config test_episodes
    verdict(
        "protocol conformance: frozen validation halts at (patience+1)*interval; "
        "evaluation defaults to 1000 episodes",
        halted_exactly and defaults_ok,
        f"halted at {result.episodes_run} episodes",
    )


def test_criterion_encoder_ranking_smoke(corpus_splits, vgg_run):
    _, vgg_final, _, _ = vgg_run
    _, sinc_final, _ = train_and_score("sincnet", corpus_splits, desk_cfg())
    vgg_acc = vgg_final.mean_accuracy
    sinc_acc = sinc_final.mean_accuracy
    if vgg_acc >= sinc_acc:
        print(f"ACCEPTANCE PASS: encoder ranking smoke check "
              f"(vgg {100 * vgg_acc:.1f}% >= sincnet {100 * sinc_acc:.1f}%)")
    else:
        message = (f"encoder ranking smoke check: desk-scale sincnet "
                   f"({100 * sinc_acc:.1f}%) beat vgg ({100 * vgg_acc:.1f}%); "
                   f"report-only, small scales need not preserve ordering")
        print(f"ACCEPTANCE WARN: {message}")
        warnings.warn(message)
