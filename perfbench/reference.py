"""Plain-numpy references the benchmark checks the program against.

Each function is written from the architecture and protocol the package
documents (README "Encoders", the encoder module docstrings, and the
prototype rule of Snell, Swersky & Zemel 2017), in float64, without calling
the package. Encoder references read the parameters by their checkpoint
names, so a change to the parameter layout must update them too.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# -- encoder forwards -----------------------------------------------------------

WINDOW, HOP = 96, 48
VGG_POOL_AFTER = (1, 2, 4, 6, 8)          # pool after these convs (1-based)
SAMPLE_RATE = 16000
MIN_BAND = 1.0 / SAMPLE_RATE              # 1 Hz floor between the two cutoffs
SINC_STRIDE = 80
LOG_EPS = 1e-6


def _params(encoder) -> dict:
    return {name: p.data.astype(np.float64) for name, p in encoder.params.items()}


def _relu(x):
    return np.maximum(x, 0.0)


def vgg(encoder, feats: np.ndarray) -> np.ndarray:
    """96-frame windows at hop 48 -> 8 same-padded 3x3 convs with ReLU and five
    2x2 max-pools -> flatten -> mean over windows."""
    p = _params(encoder)
    x = np.asarray(feats, dtype=np.float64)
    if len(x) < WINDOW:
        x = np.concatenate([x, np.zeros((WINDOW - len(x), x.shape[1]))])
    starts = range(0, len(x) - WINDOW + 1, HOP)
    h = np.stack([x[s:s + WINDOW] for s in starts])[..., None]      # (W, 96, 64, 1)
    for i in range(1, 9):
        padded = np.pad(h, ((0, 0), (1, 1), (1, 1), (0, 0)))
        patches = sliding_window_view(padded, (3, 3), axis=(1, 2))  # (W, H, M, C, 3, 3)
        h = _relu(np.einsum("bhwcij,ijco->bhwo", patches, p[f"conv{i}_w"], optimize=True)
                  + p[f"conv{i}_b"])
        if i in VGG_POOL_AFTER:
            b, rows, cols, c = h.shape
            h = h.reshape(b, rows // 2, 2, cols // 2, 2, c).max(axis=(2, 4))
    return h.reshape(h.shape[0], -1).mean(axis=0)


def lstm(encoder, feats: np.ndarray) -> np.ndarray:
    """One frame per step; gates i, f, g, o; the hidden state is projected at
    every step and the projections are averaged."""
    p = _params(encoder)
    hidden = p["wh_i"].shape[0]
    h, c = np.zeros(hidden), np.zeros(hidden)
    outputs = []
    for x in np.asarray(feats, dtype=np.float64):
        pre = {g: x @ p[f"wx_{g}"] + h @ p[f"wh_{g}"] + p[f"b_{g}"] for g in "ifgo"}
        i, f, o = (1.0 / (1.0 + np.exp(-pre[g])) for g in "ifo")
        c = f * c + i * np.tanh(pre["g"])
        h = o * np.tanh(c)
        outputs.append(h @ p["wy"] + p["by"])
    return np.mean(outputs, axis=0)


def _conv1d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    k = w.shape[0]
    padded = np.pad(x, ((k // 2, k // 2), (0, 0)))
    patches = sliding_window_view(padded, k, axis=0)                # (T, C, K)
    return np.einsum("tck,kco->to", patches, w, optimize=True) + b


def sincnet(encoder, samples: np.ndarray) -> np.ndarray:
    """Band-pass sinc kernels from clamped cutoffs (hamming-windowed) at
    stride 80 -> log(|x| + 1e-6) -> max-pool 2 -> two same-padded 5-tap convs
    with ReLU -> mean over time."""
    p = _params(encoder)
    f1 = np.clip(np.abs(p["theta_low"]), 0.0, 0.5 - MIN_BAND)
    f2 = np.clip(f1 + MIN_BAND + np.abs(p["theta_band"]), 0.0, 0.5)
    taps = encoder.kernel_len
    n = np.arange(taps) - (taps - 1) // 2
    kernels = (2 * f2[:, None] * np.sinc(2 * f2[:, None] * n)
               - 2 * f1[:, None] * np.sinc(2 * f1[:, None] * n)) * np.hamming(taps)
    x = np.asarray(samples, dtype=np.float64)
    h = sliding_window_view(x, taps)[::SINC_STRIDE] @ kernels.T      # (T, F)
    h = np.log(np.abs(h) + LOG_EPS)
    h = h[:len(h) // 2 * 2].reshape(len(h) // 2, 2, -1).max(axis=1)
    h = _relu(_conv1d_same(h, p["conv1_w"], p["conv1_b"]))
    h = _relu(_conv1d_same(h, p["conv2_w"], p["conv2_b"]))
    return h.mean(axis=0)


FORWARD = {"vgg": vgg, "lstm": lstm, "sincnet": sincnet}

# -- episodes and the prototype rule ----------------------------------------------


def sample_episode(split, n: int, k: int, q: int, rng):
    """The documented draw order: k classes from the sorted class list, then
    n + q clips per class, the first n for support. Returns (support, query)
    as k lists of paths each."""
    chosen = rng.sample(sorted(split), k)
    picks = [rng.sample(list(split[c]), n + q) for c in chosen]
    return [pk[:n] for pk in picks], [pk[n:] for pk in picks]


def prototype_logits(support: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """support (k, n, d), queries (Q, d) -> (Q, k) negative squared distances
    to the class means."""
    diff = queries[:, None, :] - support.mean(axis=1)[None, :, :]
    return -(diff * diff).sum(axis=-1)


def prototype_loss(embeddings: np.ndarray, k: int, n: int, q: int) -> float:
    """Mean query cross-entropy of one episode whose rows are k*n support
    clips (class-major) followed by k*q query clips (class-major)."""
    e = np.asarray(embeddings, dtype=np.float64)
    logits = prototype_logits(e[:k * n].reshape(k, n, -1), e[k * n:])
    top = logits.max(axis=1)
    lse = top + np.log(np.exp(logits - top[:, None]).sum(axis=1))
    labels = np.repeat(np.arange(k), q)
    return float(np.mean(lse - logits[np.arange(k * q), labels]))


def score_episodes(table: dict, episodes) -> tuple:
    """Accuracy of each episode under the prototype rule (argmax, ties to the
    lowest class), plus the number of queries whose best two classes are
    within rounding of each other and so may go either way."""
    accuracy, near_ties = [], 0
    for support, query in episodes:
        logits = prototype_logits(np.array([[table[p] for p in block] for block in support]),
                                  np.array([table[p] for block in query for p in block]))
        labels = np.repeat(np.arange(len(support)), len(query[0]))
        accuracy.append(np.mean(logits.argmax(axis=1) == labels))
        top2 = np.sort(logits, axis=1)[:, -2:]
        near_ties += int(np.sum(top2[:, 1] - top2[:, 0] <= 1e-9 * np.maximum(1.0, np.abs(top2[:, 1]))))
    return np.array(accuracy), near_ties
