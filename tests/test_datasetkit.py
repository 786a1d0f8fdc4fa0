import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from protoaudio.datasetkit import (
    Manifest,
    ManifestEntry,
    exhaustive_single_label_subset,
    filter_to_subset,
    gen_synthetic_corpus,
    load_manifest,
    make_splits,
    save_manifest,
    save_split,
    select_single_label_subset,
    single_label_count,
)
from protoaudio.dsp import extract_features
from protoaudio.errors import (
    ConfigError,
    DuplicatePathError,
    EmptyLabelSetError,
    ManifestParseError,
    TooFewClassesError,
)
from protoaudio.audio_io import load_wav
from protoaudio.protonet import episode_loss, sample_episode

import reference_subset


def write_manifest(tmp_path, lines, name="m.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# -- manifest parsing --------------------------------------------------------------


def test_load_well_formed(tmp_path):
    path = write_manifest(tmp_path, ["a.wav\tcat", "b.wav\tdog", "c.wav\tcat,dog"])
    m = load_manifest(path)
    assert len(m) == 3
    assert m.classes == ["cat", "dog"]
    assert not m.is_single_label


def test_duplicate_path_reports_line(tmp_path):
    lines = [f"clip{i}.wav\tx" for i in range(7)]
    lines[6] = "clip1.wav\tx"  # duplicates line 2 at line 7
    path = write_manifest(tmp_path, lines)
    with pytest.raises(DuplicatePathError) as err:
        load_manifest(path)
    assert err.value.line_no == 7


def test_empty_label_set_reports_line(tmp_path):
    path = write_manifest(tmp_path, ["a.wav\t"])
    with pytest.raises(EmptyLabelSetError) as err:
        load_manifest(path)
    assert err.value.line_no == 1


def test_missing_tab_is_parse_error(tmp_path):
    path = write_manifest(tmp_path, ["a.wav cat"])
    with pytest.raises(ManifestParseError):
        load_manifest(path)


def test_relative_paths_resolve_against_manifest_dir(tmp_path):
    sub = tmp_path / "corpus"
    sub.mkdir()
    path = write_manifest(sub, ["x.wav\tk"])
    m = load_manifest(path)
    assert m.entries[0].path == str(sub / "x.wav")


def test_save_load_round_trip(tmp_path):
    m = Manifest((
        ManifestEntry(str(tmp_path / "a.wav"), frozenset({"u"})),
        ManifestEntry(str(tmp_path / "b.wav"), frozenset({"u", "v"})),
    ))
    path = tmp_path / "out.tsv"
    save_manifest(m, path, relative_to=tmp_path)
    again = load_manifest(path)
    assert again.entries == m.entries


# -- splits ------------------------------------------------------------------------


def single_label_manifest(n_classes, clips, prefix="p"):
    entries = []
    for c in range(n_classes):
        for i in range(clips):
            entries.append(ManifestEntry(f"/{prefix}/c{c}_{i}.wav", frozenset({f"c{c:02d}"})))
    return Manifest(tuple(entries))


def test_split_ratios_ten_classes():
    split = make_splits(single_label_manifest(10, 12), (0.6, 0.2, 0.2),
                        min_per_class=5, seed=3)
    assert (len(split.train), len(split.val), len(split.test)) == (6, 2, 2)


def test_split_classes_disjoint_and_complete():
    m = single_label_manifest(13, 8)
    split = make_splits(m, min_per_class=4, seed=1)
    groups = [set(split.train), set(split.val), set(split.test)]
    assert not (groups[0] & groups[1] or groups[0] & groups[2] or groups[1] & groups[2])
    assert groups[0] | groups[1] | groups[2] == set(m.classes)


def test_underpopulated_classes_dropped_and_reported():
    entries = list(single_label_manifest(6, 10).entries)
    entries += [ManifestEntry("/p/tiny_0.wav", frozenset({"tiny"}))]
    split = make_splits(Manifest(tuple(entries)), min_per_class=5, seed=0)
    assert split.dropped_classes == ("tiny",)
    assert "tiny" not in set(split.train) | set(split.val) | set(split.test)


def test_split_deterministic():
    m = single_label_manifest(9, 6)
    a = make_splits(m, min_per_class=3, seed=11)
    b = make_splits(m, min_per_class=3, seed=11)
    assert (a.train, a.val, a.test) == (b.train, b.val, b.test)
    c = make_splits(m, min_per_class=3, seed=12)
    assert (a.train, a.val, a.test) != (c.train, c.val, c.test)


def test_split_needs_three_classes():
    with pytest.raises(TooFewClassesError):
        make_splits(single_label_manifest(2, 10), min_per_class=3)


@pytest.mark.parametrize("ratios", [(0, 0, 0), (float("nan"), 1, 1), (-1, 1, 1),
                                    (1, 1, float("inf")), (0.5, 0.5)])
def test_split_rejects_bad_ratios(ratios):
    with pytest.raises(ConfigError):
        make_splits(single_label_manifest(10, 12), ratios, min_per_class=5)


def test_every_split_gets_a_class_even_with_skewed_ratios():
    split = make_splits(single_label_manifest(4, 10), (0.9, 0.05, 0.05), min_per_class=3)
    assert min(len(split.train), len(split.val), len(split.test)) >= 1


def test_split_files_written_with_provenance(tmp_path):
    split = make_splits(single_label_manifest(5, 8), min_per_class=3, seed=7)
    save_split(split, tmp_path)
    text = (tmp_path / "train_classes.txt").read_text()
    assert text.startswith("# seed=7")
    listed = [l for l in text.splitlines() if not l.startswith("#")]
    assert listed == sorted(split.train)


# -- subset selection -----------------------------------------------------------------


def worked_instance():
    return Manifest((
        ManifestEntry("/1.wav", frozenset({"A"})),
        ManifestEntry("/2.wav", frozenset({"B"})),
        ManifestEntry("/3.wav", frozenset({"A", "B"})),
        ManifestEntry("/4.wav", frozenset({"C"})),
    ))


def test_worked_instance_optimum_is_three():
    m = worked_instance()
    # enumeration oracle over all 2-subsets
    best = max(single_label_count(m, s) for s in combinations(m.classes, 2))
    assert best == 3
    assert single_label_count(m, ("A", "B")) == 2
    chosen, j = select_single_label_subset(m, 2)
    assert j == 3
    assert set(chosen) in ({"A", "C"}, {"B", "C"})
    s_star, j_star = exhaustive_single_label_subset(m, 2)
    assert j == j_star


def test_all_single_label_greedy_picks_most_frequent():
    entries = []
    counts = {"a": 5, "b": 3, "c": 2, "d": 1}
    for cls, n in counts.items():
        for i in range(n):
            entries.append(ManifestEntry(f"/{cls}{i}.wav", frozenset({cls})))
    m = Manifest(tuple(entries))
    chosen, j = select_single_label_subset(m, 2)
    assert set(chosen) == {"a", "b"}
    assert j == 8


def random_multilabel_manifest(rng, max_classes=12, max_clips=60):
    n_classes = rng.integers(4, max_classes + 1)
    classes = [f"c{i:02d}" for i in range(n_classes)]
    entries = []
    for i in range(rng.integers(10, max_clips + 1)):
        n_labels = rng.integers(1, 4)
        labels = rng.choice(classes, size=n_labels, replace=False)
        entries.append(ManifestEntry(f"/r{i}.wav", frozenset(labels.tolist())))
    return Manifest(tuple(entries))


def test_greedy_swap_near_optimal_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(12):
        m = random_multilabel_manifest(rng)
        m_classes = int(rng.integers(2, min(7, len(m.classes) + 1)))
        chosen, j = select_single_label_subset(m, m_classes)
        assert len(chosen) == m_classes
        _, j_star = exhaustive_single_label_subset(m, m_classes)
        assert j >= 0.95 * j_star, (j, j_star)


def test_result_is_swap_local_optimal():
    rng = np.random.default_rng(5)
    m = random_multilabel_manifest(rng)
    chosen, j = select_single_label_subset(m, 4)
    chosen = set(chosen)
    for out_cls in chosen:
        for in_cls in set(m.classes) - chosen:
            assert single_label_count(m, (chosen - {out_cls}) | {in_cls}) <= j


def equivalence_instances():
    """Seeded manifests for the search against its reference: multi-label ones
    of up to 24 classes, single-label ones, and m up to every class."""
    rng = np.random.default_rng(23)
    for _ in range(40):
        m = random_multilabel_manifest(rng, max_classes=24, max_clips=200)
        n = len(m.classes)
        yield m, [1, n, int(rng.integers(1, n + 1))]
    for _ in range(6):
        n = int(rng.integers(2, 9))
        m = Manifest(tuple(ManifestEntry(f"/s{k}.wav", frozenset({f"c{int(c)}"}))
                           for k, c in enumerate(rng.integers(0, n, size=50))))
        yield m, [1, len(m.classes), max(1, len(m.classes) // 2)]


def test_subset_search_matches_reference():
    """The running-sum search chooses the classes and reaches the J of the
    search that recomputed J from a dense incidence matrix for every trial."""
    for m, sizes in equivalence_instances():
        for m_classes in sizes:
            for budget in (0, 1, 7, 60, 400):
                assert (select_single_label_subset(m, m_classes, budget)
                        == reference_subset.select_single_label_subset(m, m_classes, budget))


def test_subset_search_holds_no_classes_by_clips_array():
    """1000 classes x 10,000 clips: the search's traced peak stays under half
    of one int16 classes x clips array (20 MB)."""
    rng = np.random.default_rng(9)
    classes = [f"/m/{i:04d}" for i in range(1000)]
    m = Manifest(tuple(
        ManifestEntry(f"/c{k}.wav", frozenset(rng.choice(classes, int(rng.integers(1, 4)),
                                                         replace=False).tolist()))
        for k in range(10_000)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        select_single_label_subset(m, 20, budget=50)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000, peak


def test_objective_not_monotone():
    m = Manifest((
        ManifestEntry("/1.wav", frozenset({"A"})),
        ManifestEntry("/2.wav", frozenset({"A", "B"})),
        ManifestEntry("/3.wav", frozenset({"A", "B"})),
    ))
    assert single_label_count(m, {"A"}) == 3
    assert single_label_count(m, {"A", "B"}) == 1  # adding B collapses coverage


def test_subset_needs_enough_classes():
    with pytest.raises(TooFewClassesError):
        select_single_label_subset(worked_instance(), 5)


@pytest.mark.parametrize("m_classes", [0, -1])
def test_subset_needs_at_least_one_class(m_classes):
    with pytest.raises(ConfigError):
        select_single_label_subset(worked_instance(), m_classes)


def test_filter_to_subset_worked_instance():
    m = worked_instance()
    filtered = filter_to_subset(m, {"A", "C"})
    assert len(filtered) == 3
    assert filtered.is_single_label
    labels = sorted((e.path, next(iter(e.labels))) for e in filtered.entries)
    assert labels == [("/1.wav", "A"), ("/3.wav", "A"), ("/4.wav", "C")]


def test_filter_to_empty_subset():
    assert len(filter_to_subset(worked_instance(), set())) == 0


# -- synthetic corpus ------------------------------------------------------------------


def test_corpus_generation_counts(tmp_path):
    manifest, manifest_path = gen_synthetic_corpus(tmp_path / "corpus", 4, 3, seed=0)
    wavs = sorted((tmp_path / "corpus").glob("*.wav"))
    assert len(wavs) == 12
    assert len(manifest) == 12
    assert manifest.is_single_label
    assert len(manifest.classes) == 4
    reloaded = load_manifest(manifest_path)
    assert len(reloaded) == 12
    w = load_wav(manifest.entries[0].path)
    assert 0.8 <= w.duration_s <= 1.2


def test_corpus_clips_differ_within_class(tmp_path):
    manifest, _ = gen_synthetic_corpus(tmp_path / "c2", 2, 2, seed=1)
    per_class = manifest.by_class()
    for clips in per_class.values():
        a = load_wav(clips[0]).samples
        b = load_wav(clips[1]).samples
        assert a.shape != b.shape or not np.array_equal(a, b)


def test_corpus_deterministic(tmp_path):
    m1, _ = gen_synthetic_corpus(tmp_path / "d1", 3, 2, seed=9)
    m2, _ = gen_synthetic_corpus(tmp_path / "d2", 3, 2, seed=9)
    for e1, e2 in zip(m1.entries, m2.entries):
        np.testing.assert_array_equal(load_wav(e1.path).samples, load_wav(e2.path).samples)


def test_untrained_feature_prototypes_beat_chance(tmp_path):
    """Mean log-mel embeddings alone separate the timbre classes well above 1/k."""
    manifest, _ = gen_synthetic_corpus(tmp_path / "sep", 6, 10, seed=4)
    table = {
        e.path: extract_features(load_wav(e.path)).mean(axis=0)
        for e in manifest.entries
    }
    split = manifest.by_class()
    rng = random.Random(0)
    accs = []
    for _ in range(60):
        ep = sample_episode(split, 3, 5, 3, rng)
        support = np.stack([np.stack([table[p] for p in block]) for block in ep.support])
        queries = np.stack([table[p] for p in ep.query_paths()])
        _, acc = episode_loss(support, queries, ep.query_labels())
        accs.append(acc)
    mean_acc = float(np.mean(accs))
    sigma = np.sqrt(0.2 * 0.8 / (60 * 15))
    assert mean_acc > 0.2 + 3 * sigma, mean_acc
