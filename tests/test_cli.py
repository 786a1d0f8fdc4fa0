import hashlib
import json
import re
import shutil
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

from protoaudio.audio_io import Waveform, load_wav, write_wav
from protoaudio import errors
from protoaudio.cli import (CONFIG_DEFAULTS, build_train_config, load_run, main,
                            parse_config_text)
from protoaudio.datasetkit import gen_synthetic_corpus, load_manifest, save_split
from protoaudio.diffcore import load_archive, save_archive
from protoaudio.dsp import load_features
from protoaudio.encoders import build_encoder
from protoaudio.errors import ConfigError
from protoaudio.training import TrainConfig, Trainer, load_history, save_encoder_checkpoint


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest, manifest_path = gen_synthetic_corpus(root, n_classes=10,
                                                   clips_per_class=6, seed=5)
    return manifest_path


TINY_TRAIN = """\
encoder = vgg
scale = desk
manifest = {manifest}
split_ratios = 0.6,0.2,0.2
min_per_class = 4
n_shot = 1
k_way = 2
q_query = 1
max_episodes = 8
eval_interval = 4
patience_checks = 2
lr = 1e-3
test_episodes = 25
val_episodes = 10
seed = 3
"""


def write_config(tmp_path, manifest_path, name="run.cfg", **overrides):
    text = TINY_TRAIN.format(manifest=manifest_path)
    for key, value in overrides.items():
        text = "\n".join(
            line if not line.startswith(f"{key} =") else f"{key} = {value}"
            for line in text.splitlines()
        ) + "\n"
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained_run(corpus, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = write_config(tmp, corpus)
    run = tmp / "rundir"
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    return run


# -- train --------------------------------------------------------------------


def test_train_populates_run_dir(trained_run):
    assert (trained_run / "config.snapshot").exists()
    assert (trained_run / "history.jsonl").exists()
    assert (trained_run / "best.ckpt").exists()
    assert (trained_run / "last.ckpt").exists()
    assert (trained_run / "splits" / "train_classes.txt").exists()
    history = load_history(trained_run / "history.jsonl")
    assert [r.episode for r in history] == list(range(1, 9))
    vals = [r.val_accuracy for r in history if r.val_accuracy is not None]
    assert len(vals) == 2  # checks at episodes 4 and 8


def test_snapshot_is_exact_config_copy(trained_run, corpus):
    snapshot = (trained_run / "config.snapshot").read_text()
    assert snapshot == TINY_TRAIN.format(manifest=corpus)


def test_best_checkpoint_val_accuracy_matches_history_max(trained_run):
    _, meta = load_archive(trained_run / "best.ckpt")
    history = load_history(trained_run / "history.jsonl")
    vals = [r.val_accuracy for r in history if r.val_accuracy is not None]
    assert meta["val_accuracy"] == max(vals)
    assert meta["spec"]["kind"] == "vgg"


def test_train_rerun_identical_modulo_timestamps(corpus, tmp_path):
    config = write_config(tmp_path, corpus)
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        runs.append(load_history(out / "history.jsonl"))
    strip = lambda recs: [(r.episode, r.loss, r.val_accuracy) for r in recs]
    assert strip(runs[0]) == strip(runs[1])


def test_train_non_finite_step_exits_4_without_checkpoints(tmp_path, corpus, capsys):
    config = write_config(tmp_path, corpus, lr="1e30")
    run = tmp_path / "rundir"
    with warnings.catch_warnings():
        # The exit-4 message is the whole report: no numpy warning on the way.
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", str(config), "--out", str(run)]) == 4
    assert "episode 2" in capsys.readouterr().err
    assert not (run / "best.ckpt").exists()
    assert not (run / "last.ckpt").exists()
    assert [r.episode for r in load_history(run / "history.jsonl")] == [1]


def test_failed_retrain_leaves_no_results_of_the_previous_run(trained_run, corpus, tmp_path):
    """A re-train into a finished run directory that fails part-way leaves
    neither the old checkpoints nor the old reports beside its snapshot."""
    run = tmp_path / "rundir"
    shutil.copytree(trained_run, run)
    assert main(["eval", "--run", str(run), "--episodes", "5"]) == 0
    assert (run / "eval_test.json").exists() and (run / "eval_test.txt").exists()
    config = write_config(tmp_path, corpus, lr="1e30")
    assert main(["train", "--config", str(config), "--out", str(run)]) == 4
    assert not any((run / name).exists() for name in
                   ("best.ckpt", "last.ckpt", "eval_test.json", "eval_test.txt"))
    assert main(["eval", "--run", str(run)]) == 3


def test_retrain_whose_validation_split_holds_no_episode_exits_3_before_training(
        trained_run, corpus, tmp_path, capsys):
    """Ratios that leave the validation split one class, fewer than k_way,
    fail before the first episode: exit 3, and neither the previous run's
    history nor its checkpoints are left beside the new snapshot."""
    run = tmp_path / "rundir"
    shutil.copytree(trained_run, run)
    config = write_config(tmp_path, corpus, split_ratios="0.8,0.1,0.1")
    assert main(["train", "--config", str(config), "--out", str(run)]) == 3
    assert "need 2 classes, split has 1" in capsys.readouterr().err
    assert not (run / "history.jsonl").exists()
    assert not any((run / name).exists() for name in ("best.ckpt", "last.ckpt"))
    assert (run / "config.snapshot").read_bytes() == config.read_bytes()


def test_retrain_whose_classes_cannot_be_split_leaves_the_previous_run(trained_run, corpus,
                                                                      tmp_path):
    """A re-train whose manifest has too few classes of min_per_class clips
    fails before it writes anything: the previous run stays as it was."""
    run = tmp_path / "rundir"
    shutil.copytree(trained_run, run)
    files = {path: path.read_bytes() for path in run.rglob("*") if path.is_file()}
    config = write_config(tmp_path, corpus, min_per_class="100")
    assert main(["train", "--config", str(config), "--out", str(run)]) == 3
    assert {path: path.read_bytes() for path in run.rglob("*") if path.is_file()} == files


def test_interrupted_train_keeps_each_finished_episode_on_disk(tmp_path, corpus, monkeypatch):
    """history.jsonl gets each episode's line as the episode ends, so a run
    stopped at episode 5 leaves episodes 1-4 in it, and no checkpoint."""
    run = tmp_path / "rundir"
    real_step, seen = Trainer.step, []

    def step(self):
        if self.episodes_run == 4:
            seen.append((run / "history.jsonl").read_text(encoding="utf-8"))
            raise KeyboardInterrupt
        return real_step(self)

    monkeypatch.setattr(Trainer, "step", step)
    with pytest.raises(KeyboardInterrupt):
        main(["train", "--config", str(write_config(tmp_path, corpus)), "--out", str(run)])
    assert seen == [(run / "history.jsonl").read_text(encoding="utf-8")]
    assert seen[0].endswith("\n")
    assert [r.episode for r in load_history(run / "history.jsonl")] == [1, 2, 3, 4]
    assert not (run / "best.ckpt").exists()
    assert not (run / "last.ckpt").exists()


@pytest.mark.parametrize("target", ["config.snapshot", "splits/train_classes.txt"])
def test_train_write_failing_part_way_keeps_previous_run_file(trained_run, corpus, tmp_path,
                                                             target, disk_full):
    """Training again into an existing run directory: a snapshot or split
    file whose write stops half-way leaves the previous file as it was, and
    with it every other file of the previous run: nothing is replaced or
    removed before all of the new snapshot and split files are written."""
    run = tmp_path / "rundir"
    shutil.copytree(trained_run, run)
    before = (run / target).read_bytes()
    listing = sorted(run.rglob("*"))
    contents = {p: p.read_bytes() for p in listing if p.is_file()}
    config = write_config(tmp_path, corpus, seed="4")
    disk_full(Path(target).name)
    with pytest.raises(OSError):
        main(["train", "--config", str(config), "--out", str(run)])
    assert (run / target).read_bytes() == before
    assert sorted(run.rglob("*")) == listing
    assert {p: p.read_bytes() for p in listing if p.is_file()} == contents


def test_train_missing_manifest_exits_3(tmp_path, capsys):
    config = write_config(tmp_path, tmp_path / "nowhere" / "m.tsv")
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "r")])
    assert rc == 3
    assert "m.tsv" in capsys.readouterr().err


def test_train_sincnet_on_clips_without_a_pooled_frame_exits_3(tmp_path, capsys):
    """Clips of 251-330 samples fill the sinc kernel but give no pooled
    frame: a data error (exit 3) naming the 331-sample minimum."""
    manifest, manifest_path = gen_synthetic_corpus(tmp_path / "short", n_classes=10,
                                                   clips_per_class=6, seed=5)
    for i, entry in enumerate(manifest.entries):
        samples = load_wav(entry.path).samples
        write_wav(entry.path, Waveform(samples[:251 + (37 * i) % 80]))
    config = write_config(tmp_path, manifest_path, encoder="sincnet")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "r")]) == 3
    assert "needs 331" in capsys.readouterr().err


def test_train_unknown_config_key_exits_2(tmp_path, corpus):
    config = tmp_path / "bad.cfg"
    config.write_text(f"manifest = {corpus}\nbogus_key = 1\n")
    assert main(["train", "--config", str(config), "--out", str(tmp_path / "r")]) == 2


@pytest.mark.parametrize("key,value", [
    ("lr", "nan"), ("lr", "inf"),
    ("split_ratios", "0,0,0"), ("split_ratios", "nan,1,1"), ("split_ratios", "-1,1,1"),
])
def test_train_non_finite_or_non_positive_numbers_exit_2(tmp_path, corpus, key, value, capsys):
    config = write_config(tmp_path, corpus, **{key: value})
    out = tmp_path / "r"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert "finite and positive" in capsys.readouterr().err
    assert not (out / "history.jsonl").exists()


def test_env_seed_overrides_config(corpus, tmp_path, monkeypatch):
    config = write_config(tmp_path, corpus)
    monkeypatch.setenv("PROTOAUDIO_SEED", "77")
    out = tmp_path / "env_run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    _, meta = load_archive(out / "best.ckpt")
    assert meta["seed"] == 77


# -- eval ----------------------------------------------------------------------


def test_eval_writes_reports(trained_run, capsys):
    assert main(["eval", "--run", str(trained_run), "--split", "test",
                 "--episodes", "20"]) == 0
    out = capsys.readouterr().out
    assert "accuracy" in out and "95% CI" in out and "20 episodes" in out
    record = json.loads((trained_run / "eval_test.json").read_text())
    assert record["encoder"] == "vgg"
    assert record["report"]["n_episodes"] == 20
    table = (trained_run / "eval_test.txt").read_text()
    assert "1-shot 2-way" in table


def test_eval_defaults_to_config_test_episodes(trained_run):
    assert main(["eval", "--run", str(trained_run)]) == 0
    record = json.loads((trained_run / "eval_test.json").read_text())
    assert record["report"]["n_episodes"] == 25  # config test_episodes


def test_eval_byte_identical_reruns(trained_run):
    assert main(["eval", "--run", str(trained_run), "--episodes", "15"]) == 0
    first = (trained_run / "eval_test.json").read_bytes()
    first_txt = (trained_run / "eval_test.txt").read_bytes()
    assert main(["eval", "--run", str(trained_run), "--episodes", "15"]) == 0
    assert (trained_run / "eval_test.json").read_bytes() == first
    assert (trained_run / "eval_test.txt").read_bytes() == first_txt


@pytest.mark.parametrize("report", ["eval_test.txt", "eval_test.json"])
def test_eval_report_write_failing_part_way_keeps_previous_report(trained_run, report,
                                                                  disk_full):
    assert main(["eval", "--run", str(trained_run), "--episodes", "15"]) == 0
    before = (trained_run / report).read_bytes()
    files = sorted(trained_run.iterdir())
    disk_full(report)
    with pytest.raises(OSError):
        main(["eval", "--run", str(trained_run), "--episodes", "20"])
    assert (trained_run / report).read_bytes() == before
    assert sorted(trained_run.iterdir()) == files


@pytest.mark.parametrize("episodes", ["0", "-1"])
def test_eval_non_positive_episodes_exits_2(trained_run, episodes, capsys):
    assert main(["eval", "--run", str(trained_run), "--split", "val",
                 "--episodes", episodes]) == 2
    assert "n_episodes" in capsys.readouterr().err
    assert not (trained_run / "eval_val.json").exists()


def test_eval_missing_run_exits_3(tmp_path):
    assert main(["eval", "--run", str(tmp_path / "ghost")]) == 3


def test_eval_of_a_run_whose_manifest_lost_a_class_exits_3(tmp_path, capsys):
    """A manifest edited after training gives other splits; eval then names
    the part whose classes differ and exits 3, before it writes a report,
    rather than score the model on classes it may have trained on."""
    _, manifest_path = gen_synthetic_corpus(tmp_path / "corpus", n_classes=10,
                                            clips_per_class=6, seed=5)
    run = tmp_path / "rundir"
    config = write_config(tmp_path, manifest_path, max_episodes=2, eval_interval=2)
    assert main(["train", "--config", str(config), "--out", str(run)]) == 0
    lines = manifest_path.read_text(encoding="utf-8").splitlines(keepends=True)
    manifest_path.write_text("".join(line for line in lines if "class03" not in line),
                             encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--run", str(run)]) == 3
    err = capsys.readouterr().err
    part = re.match(r"data error: (train|val|test) split: the manifest now gives \[.*\] "
                    r"where the run's .*_classes\.txt has \['class\d\d'", err)
    assert part, err
    assert f"{part.group(1)}_classes.txt" in err
    assert not list(run.glob("eval_*"))


# -- features / subset / synth -----------------------------------------------------


def test_features_command(tone_wav, tmp_path, capsys):
    out = tmp_path / "tone.lmel"
    assert main(["features", "--wav", str(tone_wav), "--out", str(out)]) == 0
    assert "98x64" in capsys.readouterr().out
    assert load_features(out).shape == (98, 64)


def test_features_rejects_missing_wav(tmp_path):
    assert main(["features", "--wav", str(tmp_path / "no.wav"),
                 "--out", str(tmp_path / "o.lmel")]) == 3


def test_subset_command_worked_instance(tmp_path, capsys):
    manifest = tmp_path / "multi.tsv"
    manifest.write_text("1.wav\tA\n2.wav\tB\n3.wav\tA,B\n4.wav\tC\n")
    filtered = tmp_path / "filtered.tsv"
    assert main(["subset", "--manifest", str(manifest), "--classes", "2",
                 "--out", str(filtered)]) == 0
    out = capsys.readouterr().out
    assert "J=3" in out
    kept = load_manifest(filtered)
    assert len(kept) == 3
    assert kept.is_single_label


def test_subset_out_write_failing_part_way_keeps_previous_file(tmp_path, disk_full):
    manifest = tmp_path / "multi.tsv"
    manifest.write_text("1.wav\tA\n2.wav\tB\n3.wav\tA,B\n4.wav\tC\n")
    filtered = tmp_path / "filtered.tsv"
    assert main(["subset", "--manifest", str(manifest), "--classes", "1",
                 "--out", str(filtered)]) == 0
    before = filtered.read_bytes()
    listing = sorted(tmp_path.iterdir())
    disk_full(filtered.name)
    with pytest.raises(OSError):
        main(["subset", "--manifest", str(manifest), "--classes", "2", "--out", str(filtered)])
    assert filtered.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == listing


@pytest.mark.parametrize("classes", ["0", "-1"])
def test_subset_fewer_than_one_class_exits_2(tmp_path, classes, capsys):
    manifest = tmp_path / "multi.tsv"
    manifest.write_text("1.wav\tA\n2.wav\tB\n")
    assert main(["subset", "--manifest", str(manifest), "--classes", classes]) == 2
    captured = capsys.readouterr()
    assert "at least 1 class" in captured.err
    assert "J=" not in captured.out


def test_synth_command_counts(tmp_path, capsys):
    out_dir = tmp_path / "synth_corpus"
    assert main(["synth", "--out", str(out_dir), "--classes", "4",
                 "--per-class", "3", "--seed", "1"]) == 0
    assert "wrote 12 clips across 4 classes" in capsys.readouterr().out
    assert len(list(out_dir.glob("*.wav"))) == 12
    assert load_manifest(out_dir / "manifest.tsv").classes == [
        "class00", "class01", "class02", "class03"
    ]


@pytest.mark.parametrize("per_class", ["0", "-3"])
def test_synth_fewer_than_one_clip_per_class_exits_3(tmp_path, per_class, capsys):
    out_dir = tmp_path / "synth_corpus"
    assert main(["synth", "--out", str(out_dir), "--classes", "2",
                 "--per-class", per_class]) == 3
    captured = capsys.readouterr()
    assert f"clips_per_class={per_class} must be >= 1" in captured.err
    assert "wrote" not in captured.out
    assert not out_dir.exists()


def test_synth_non_integer_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("PROTOAUDIO_SEED", "abc")
    out_dir = tmp_path / "synth_corpus"
    assert main(["synth", "--out", str(out_dir), "--classes", "2",
                 "--per-class", "2"]) == 2
    assert "'abc'" in capsys.readouterr().err
    assert not out_dir.exists()


def fake_run(tmp_path, snapshot: bytes):
    """A run directory whose snapshot is `snapshot`; eval reads the manifest
    before it opens the (empty) checkpoint."""
    run = tmp_path / "fake_run"
    run.mkdir()
    (run / "config.snapshot").write_bytes(snapshot)
    (run / "best.ckpt").write_bytes(b"")
    return run


def run_with_checkpoint(tmp_path, corpus, save):
    """A run directory of the tiny config, with its saved splits, whose
    best.ckpt save(path, encoder) writes for a fresh encoder of the config."""
    config = write_config(tmp_path, corpus)
    _, spec, split = load_run(config)
    run = tmp_path / "ckpt_run"
    run.mkdir()
    shutil.copy(config, run / "config.snapshot")
    save_split(split, run / "splits")
    save(run / "best.ckpt", build_encoder(spec))
    return run


def repeated_key_config(tmp_path, corpus):
    path = write_config(tmp_path, corpus)
    path.write_text(path.read_text(encoding="utf-8") + "seed = 4\n", encoding="utf-8")
    return path


def truncated_wav(tmp_path, corpus):
    path = tmp_path / "short.wav"
    path.write_bytes(Path(load_manifest(corpus).entries[0].path).read_bytes()[:-101])
    return path


def list_metadata_checkpoint(path, enc):
    """A checkpoint of enc whose metadata block is a JSON list, with a valid
    checksum: what a writer other than save_archive, which refuses such
    metadata, could leave behind."""
    save_archive(path, enc.state_dict(), {})
    body = path.read_bytes()[:-32]
    (meta_len,) = struct.unpack("<I", body[8:12])
    meta = json.dumps([{"spec": enc.spec.header()}]).encode("utf-8")
    body = body[:8] + struct.pack("<I", len(meta)) + meta + body[12 + meta_len:]
    path.write_bytes(body + hashlib.sha256(body).digest())


def bad_chunk_size_wav(tmp_path, corpus):
    """A corpus clip whose `fmt ` chunk size (byte 16) reads 0x20, not 0x10."""
    blob = bytearray(Path(load_manifest(corpus).entries[0].path).read_bytes())
    blob[16] = 0x20
    path = tmp_path / "bad_chunk.wav"
    path.write_bytes(bytes(blob))
    return path


def run_with_history_dir(tmp_path):
    run = tmp_path / "r"
    (run / "history.jsonl").mkdir(parents=True)
    return run


NOT_UTF8 = "latin1.txt"  # holds "manifest = café" in Latin-1

# id, exit code, PROTOAUDIO_SEED, argv(tmp_path, corpus)
BAD_INPUTS = [
    ("train-config-dir", 2, None,
     lambda t, c: ["train", "--config", str(t / "dir"), "--out", str(t / "r")]),
    ("train-config-not-utf8", 2, None,
     lambda t, c: ["train", "--config", str(t / NOT_UTF8), "--out", str(t / "r")]),
    ("train-manifest-dir", 3, None,
     lambda t, c: ["train", "--config", str(write_config(t, t / "dir")), "--out", str(t / "r")]),
    ("train-manifest-not-utf8", 3, None,
     lambda t, c: ["train", "--config", str(write_config(t, t / NOT_UTF8)),
                   "--out", str(t / "r")]),
    ("train-out-file", 3, None,
     lambda t, c: ["train", "--config", str(write_config(t, c)), "--out", str(t / "file")]),
    ("train-history-dir", 3, None,
     lambda t, c: ["train", "--config", str(write_config(t, c)),
                   "--out", str(run_with_history_dir(t))]),
    ("train-config-key-repeated", 2, None,
     lambda t, c: ["train", "--config", str(repeated_key_config(t, c)), "--out", str(t / "r")]),
    ("train-config-seed-negative", 2, None,
     lambda t, c: ["train", "--config", str(write_config(t, c, seed="-1")),
                   "--out", str(t / "r")]),
    ("train-env-seed-negative", 2, "-1",
     lambda t, c: ["train", "--config", str(write_config(t, c)), "--out", str(t / "r")]),
    ("eval-snapshot-not-utf8", 2, None,
     lambda t, c: ["eval", "--run", str(fake_run(t, (t / NOT_UTF8).read_bytes()))]),
    ("eval-manifest-dir", 3, None,
     lambda t, c: ["eval", "--run", str(fake_run(t, f"manifest = {t / 'dir'}\n".encode()))]),
    ("eval-seed-negative", 2, None,
     lambda t, c: ["eval", "--run", str(fake_run(t, write_config(t, c).read_bytes())),
                   "--seed", "-3"]),
    ("eval-splits-missing", 3, None,
     lambda t, c: ["eval", "--run", str(fake_run(t, write_config(t, c).read_bytes()))]),
    ("eval-checkpoint-tensor-missing", 3, None,
     lambda t, c: ["eval", "--run", str(run_with_checkpoint(t, c, lambda path, enc: (
         save_encoder_checkpoint(path, enc, {name: a for name, a in enc.state_dict().items()
                                             if name != "conv1_b"}))))]),
    ("eval-checkpoint-metadata-list", 3, None,
     lambda t, c: ["eval", "--run", str(run_with_checkpoint(t, c, list_metadata_checkpoint))]),
    ("eval-manifest-not-utf8", 3, None,
     lambda t, c: ["eval", "--run", str(fake_run(t, f"manifest = {t / NOT_UTF8}\n".encode()))]),
    ("subset-manifest-dir", 3, None,
     lambda t, c: ["subset", "--manifest", str(t / "dir"), "--classes", "1"]),
    ("subset-manifest-not-utf8", 3, None,
     lambda t, c: ["subset", "--manifest", str(t / NOT_UTF8), "--classes", "1"]),
    ("subset-budget-negative", 2, None,
     lambda t, c: ["subset", "--manifest", str(c), "--classes", "1", "--budget", "-5"]),
    ("subset-out-dir", 3, None,
     lambda t, c: ["subset", "--manifest", str(c), "--classes", "1", "--out", str(t / "dir")]),
    ("features-wav-dir", 3, None,
     lambda t, c: ["features", "--wav", str(t / "dir"), "--out", str(t / "f.lmel")]),
    ("features-wav-truncated", 3, None,
     lambda t, c: ["features", "--wav", str(truncated_wav(t, c)), "--out", str(t / "f.lmel")]),
    ("features-wav-bad-chunk-size", 3, None,
     lambda t, c: ["features", "--wav", str(bad_chunk_size_wav(t, c)),
                   "--out", str(t / "f.lmel")]),
    ("features-out-dir", 3, None,
     lambda t, c: ["features", "--wav", load_manifest(c).entries[0].path, "--out", str(t / "dir")]),
    ("synth-out-file", 3, None,
     lambda t, c: ["synth", "--out", str(t / "file"), "--classes", "2", "--per-class", "2"]),
    ("synth-env-seed-negative", 2, "-1",
     lambda t, c: ["synth", "--out", str(t / "s"), "--classes", "2", "--per-class", "2"]),
    ("synth-seed-negative", 2, None,
     lambda t, c: ["synth", "--out", str(t / "s"), "--classes", "2", "--per-class", "2",
                   "--seed", "-1"]),
]


@pytest.mark.parametrize("code,env_seed,argv", [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exits_with_its_code_and_one_line(tmp_path, corpus, monkeypatch, capsys,
                                                    code, env_seed, argv):
    """Directories where files belong (to read or to write), text that is not
    UTF-8, a truncated WAV, an existing file as the output directory, negative
    seeds, a negative subset budget, a repeated config key and a checkpoint
    that is malformed or does not fit its encoder each end in one
    `<kind> error:` line on stderr and their exit code."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("x\n")
    (tmp_path / NOT_UTF8).write_bytes("manifest = café\n".encode("latin-1"))
    if env_seed is None:
        monkeypatch.delenv("PROTOAUDIO_SEED", raising=False)
    else:
        monkeypatch.setenv("PROTOAUDIO_SEED", env_seed)
    assert main(argv(tmp_path, corpus)) == code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith({2: "config error: ", 3: "data error: "}[code])
    assert "Traceback" not in captured.err
    assert "wrote" not in captured.out
    assert not (tmp_path / "s").exists()


PROGRAM_FAULTS = {errors.NonScalarLossError, errors.TapeConsumedError, errors.DomainError,
                  errors.InvalidProfileError}


def test_every_error_class_has_an_exit_code_or_is_a_program_fault():
    """The CLI's exit code for an error is the class's `exit_code`; None (a
    program fault, left to end in a traceback) only for the four named here."""
    seen, todo = set(), [errors.ProtoAudioError]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        todo.extend(cls.__subclasses__())
    seen.discard(errors.ProtoAudioError)
    assert PROGRAM_FAULTS < seen
    for cls in seen:
        if cls in PROGRAM_FAULTS:
            assert cls.exit_code is None, cls.__name__
        else:
            assert cls.exit_code in {2, 3, 4}, cls.__name__


def test_config_defaults_are_train_config_defaults(monkeypatch):
    monkeypatch.delenv("PROTOAUDIO_SEED", raising=False)
    assert build_train_config(parse_config_text("manifest = m.tsv")) == TrainConfig()
    assert list(CONFIG_DEFAULTS) == [
        "encoder", "scale", "manifest", "split_ratios", "min_per_class", "n_shot", "k_way",
        "q_query", "max_episodes", "eval_interval", "patience_checks", "lr", "test_episodes",
        "val_episodes", "seed",
    ]


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config"])  # missing value
    assert exc.value.code == 2


def test_parse_config_rejects_a_repeated_key_naming_both_lines():
    with pytest.raises(ConfigError, match=r"line 4: key 'seed' already set on line 2"):
        parse_config_text("# comment\nseed = 9\nlr = 0.01\n seed = 9\n")


def test_parse_config_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("this is not a config\n")
    values = parse_config_text("# comment\n\nseed = 9\n")
    assert values["seed"] == "9"
    assert values["encoder"] == "vgg"
