"""Command-line entry point: train / eval / features / subset / synth.

Config files are flat key = value text. Exit codes: 0 success, 2 config
error, 3 data error, 4 numerical error. PROTOAUDIO_SEED overrides the
config seed for any command that uses one.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
from pathlib import Path

from .audio_io import load_wav
from .datasetkit import (
    check_saved_split,
    filter_to_subset,
    gen_synthetic_corpus,
    load_manifest,
    make_splits,
    save_manifest,
    save_split,
    select_single_label_subset,
)
from .diffcore.checkpoint import write_atomic
from .dsp import extract_features, save_features
from .encoders import EncoderSpec, build_encoder
from .errors import ConfigError, MissingRunError, ProtoAudioError
from .training import (
    TrainConfig,
    evaluate,
    InputCache,
    render_eval_table,
    restore_encoder,
    save_encoder_checkpoint,
    Trainer,
)

_EXIT_LABELS = {2: "config", 3: "data", 4: "numerical"}

# The run keys, then TrainConfig's fields with their defaults.
CONFIG_DEFAULTS = {
    "encoder": "vgg",
    "scale": "desk",
    "manifest": "",
    "split_ratios": "0.6,0.2,0.2",
    "min_per_class": "10",
    **{f.name: str(f.default) for f in dataclasses.fields(TrainConfig)},
}


def parse_config_text(text: str) -> dict:
    values = dict(CONFIG_DEFAULTS)
    seen_at = {}   # key -> the line that set it
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"config line {line_no}: unknown key {key!r}")
        if key in seen_at:
            raise ConfigError(f"config line {line_no}: key {key!r} already set on "
                              f"line {seen_at[key]}")
        seen_at[key] = line_no
        values[key] = value.strip()
    return values


def effective_seed(values: dict) -> int:
    env = os.environ.get("PROTOAUDIO_SEED")
    raw = env if env is not None else values["seed"]
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ConfigError(f"seed {raw!r} is not an integer") from exc
    return checked_seed(seed)


def checked_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError(f"seed {seed} must be >= 0")
    return seed


def build_train_config(values: dict) -> TrainConfig:
    kwargs = {"seed": effective_seed(values)}
    for f in dataclasses.fields(TrainConfig):
        if f.name not in kwargs:
            try:
                kwargs[f.name] = type(f.default)(values[f.name])
            except ValueError as exc:
                raise ConfigError(f"bad {f.name} {values[f.name]!r} in config") from exc
    return TrainConfig(**kwargs)


def load_run(config_path: Path):
    """The TrainConfig, EncoderSpec and splits of the run a config file describes."""
    if not config_path.is_file():
        raise ConfigError(f"no config file at {config_path}")
    try:
        text = config_path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{config_path} is not UTF-8 text ({exc})") from exc
    values = parse_config_text(text)
    cfg = build_train_config(values)
    spec = EncoderSpec(values["encoder"], values["scale"])
    if not values["manifest"]:
        raise ConfigError("config key 'manifest' is required")
    manifest = load_manifest(values["manifest"])
    try:
        ratios = tuple(float(r) for r in values["split_ratios"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad split_ratios {values['split_ratios']!r}") from exc
    try:
        min_per_class = int(values["min_per_class"])
    except ValueError as exc:
        raise ConfigError(f"bad min_per_class {values['min_per_class']!r}") from exc
    return cfg, spec, make_splits(manifest, ratios, min_per_class, seed=cfg.seed)


def cmd_train(args) -> int:
    config_path = Path(args.config)
    cfg, spec, split = load_run(config_path)
    run = Path(args.out)
    run.mkdir(parents=True, exist_ok=True)
    # The snapshot and splits are staged; only once all are written do the
    # previous run's results, not of this snapshot's model, make way for them.
    staging = run / f".staging.{os.getpid()}"
    try:
        staging.mkdir()
        write_atomic(staging / "config.snapshot",
                     config_path.read_text(encoding="utf-8").encode("utf-8"))
        save_split(split, staging / "splits")
        for stale in [run / "history.jsonl", run / "best.ckpt", run / "last.ckpt",
                      *run.glob("eval_*.txt"), *run.glob("eval_*.json")]:
            stale.unlink(missing_ok=True)
        (run / "splits").mkdir(exist_ok=True)
        for new in [staging / "config.snapshot", *(staging / "splits").iterdir()]:
            os.replace(new, run / new.relative_to(staging))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    encoder = build_encoder(spec, seed=cfg.seed)
    print(f"training {spec.kind} ({spec.scale}) seed={cfg.seed} "
          f"{cfg.n_shot}-shot {cfg.k_way}-way")

    trainer = Trainer(encoder, split.train, split.val, cfg)
    with open(run / "history.jsonl", "w", encoding="utf-8") as history:
        while not trainer.done:
            r = trainer.step()
            print(r.to_json(), file=history, flush=True)
            if r.val_accuracy is not None:
                print(f"episode {r.episode}: loss {r.loss:.4f} val_accuracy {r.val_accuracy:.4f}")
    meta = {
        "seed": cfg.seed,
        "episode": trainer.best_episode,
        "val_accuracy": trainer.best_val_accuracy,
    }
    save_encoder_checkpoint(run / "best.ckpt", encoder, params=trainer.best_params,
                            extra_meta=meta)
    save_encoder_checkpoint(run / "last.ckpt", encoder,
                            extra_meta={**meta, "episode": trainer.episodes_run})
    stop = "early stop" if trainer.stopped_early else "max episodes"
    print(f"done after {trainer.episodes_run} episodes ({stop}); "
          f"best val_accuracy "
          f"{'n/a' if trainer.best_val_accuracy is None else f'{trainer.best_val_accuracy:.4f}'} "
          f"at episode {trainer.best_episode}")
    return 0


def cmd_eval(args) -> int:
    run = Path(args.run)
    snapshot = run / "config.snapshot"
    ckpt = run / "best.ckpt"
    if args.seed is not None:
        checked_seed(args.seed)
    if not snapshot.is_file() or not ckpt.is_file():
        raise MissingRunError(f"{run}: missing config.snapshot or best.ckpt")
    cfg, spec, split = load_run(snapshot)
    check_saved_split(split, run / "splits")
    encoder = restore_encoder(ckpt, spec)
    cache = InputCache(encoder)
    part = split.part(args.split)
    seed = cfg.seed if args.seed is None else args.seed
    report = evaluate(encoder, cache, part, cfg, n_episodes=args.episodes, seed=seed)
    print(report.summary())
    table = render_eval_table(spec.kind, cfg, report)
    record = {
        "encoder": spec.kind,
        "scale": spec.scale,
        "split": args.split,
        "n_shot": cfg.n_shot,
        "k_way": cfg.k_way,
        "seed": seed,
        "report": report.to_dict(),
    }
    write_atomic(run / f"eval_{args.split}.txt", table.encode("utf-8"))
    write_atomic(run / f"eval_{args.split}.json",
                 (json.dumps(record, sort_keys=True, indent=2) + "\n").encode("utf-8"))
    return 0


def cmd_features(args) -> int:
    waveform = load_wav(args.wav)
    feats = extract_features(waveform)
    save_features(args.out, feats)
    print(f"wrote {feats.shape[0]}x{feats.shape[1]} features to {args.out}")
    return 0


def cmd_subset(args) -> int:
    manifest = load_manifest(args.manifest)
    chosen, j = select_single_label_subset(manifest, args.classes, budget=args.budget)
    print(f"J={j}")
    print("classes: " + ",".join(chosen))
    if args.out:
        save_manifest(filter_to_subset(manifest, chosen), args.out)
        print(f"wrote filtered manifest to {args.out}")
    return 0


def cmd_synth(args) -> int:
    manifest, manifest_path = gen_synthetic_corpus(
        args.out, args.classes, args.per_class, seed=effective_seed({"seed": args.seed})
    )
    print(f"wrote {len(manifest)} clips across {len(manifest.classes)} classes; "
          f"manifest at {manifest_path}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoaudio",
        description="Few-shot audio classification: training, evaluation, and data tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train an encoder on a manifest")
    p.add_argument("--config", required=True, help="flat key=value config file")
    p.add_argument("--out", required=True, help="run directory to create/populate")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a run's best checkpoint")
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--episodes", type=int, default=None,
                   help="episode count (default: config test_episodes, 1000)")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("features", help="dump log-mel features for one WAV")
    p.add_argument("--wav", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("subset", help="pick a near-optimal single-label class subset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--budget", type=int, default=50_000)
    p.add_argument("--out", default=None, help="write the filtered manifest here")
    p.set_defaults(fn=cmd_subset)

    p = sub.add_parser("synth", help="generate a synthetic timbre corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)
    return parser


def main(argv=None) -> int:
    """Run one command. A bad input prints one `<kind> error: ...` line and
    returns its exit code; the path errors count as data errors (3)."""
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ProtoAudioError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError) as exc:
        code = getattr(exc, "exit_code", 3)
        if code is None:
            raise
        print(f"{_EXIT_LABELS[code]} error: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
