"""Command-line front end.

Subcommands: synth, train, predict, segment, eval, sweep, theory.  Each
command returns the config it ran, and ``main`` alone writes the run
record: when the command has an ``--out`` directory, ``main`` echoes the
command, seed, options and config sections there as ``config.json``, so the
run can be reproduced bit-for-bit from that file alone (``--config
config.json``).  Replaying an echo applies its config sections to any
command, but its options and seed only to the command that wrote it; an
option given on the command line wins over a stored one.  The config
sections model, loss, train, segment and data are the fields of
``ModelConfig``, ``LossConfig``, ``TrainConfig``, ``SegmenterConfig`` and
``DataConfig``; a bad value in any of them exits 2 before a command writes
anything.  A command that loads a checkpoint echoes the checkpoint's model,
the one that ran.  A command creates ``--out`` only with its first file, and
``train`` rewrites ``loss_trace.tsv`` with the checkpoint after every epoch.

``predict``, ``segment`` and ``sweep`` read their dataset one image at a
time, twice: a check pass reads, prepares and checks every image, so a bad
one exits 2 before anything is written, and the run pass holds one image
at a time.  ``eval`` checks that both label sets hold the same stems, then
reads the set once, or twice with ``--seg``, one (gt, prediction) pair at a
time, and writes its table only after scoring ends.  ``train`` holds every
prepared image, as each step crops across them, but reads and prepares
them one at a time.

Before it runs a command, ``main`` fixes glibc's mmap threshold at
``MMAP_THRESHOLD``.  glibc otherwise raises the threshold each time a large
mmapped block is freed, after which a train step's conv temporaries come from
a heap that stays resident when they are freed: peak RSS ran 65-95 MB above
the step's allocations, by an amount that changed from run to run.  With the
threshold fixed, they are mmapped and given back when freed.  The trim
threshold is fixed beside it (``TRIM_THRESHOLD``).  Where the C library has
no ``mallopt``, nothing changes.

Exit codes: 0 success, 1 usage error, 2 data or config error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import json
import os
import sys

import numpy as np

from . import data as dataio
from . import synth as synthmod
from . import theory as theorymod
from .errors import ConfigError, FormatError, PlacementError
from .loss import LossConfig
from .metrics import format_score_table, seg_score_dataset, threshold_sweep
from .network import (
    ModelConfig,
    TrainConfig,
    TrainResult,
    check_image,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .segmentation import SegmenterConfig, bandwidth_search, predict_full, segment_image

_SECTIONS = {
    "model": ModelConfig,
    "loss": LossConfig,
    "train": TrainConfig,
    "segment": SegmenterConfig,
    "data": dataio.DataConfig,
}

DEFAULT_CONFIG = {name: dataclasses.asdict(cls()) for name, cls in _SECTIONS.items()}


def _build_config(sections: dict) -> dict:
    """The config objects by section, with ``sections`` overriding defaults;
    every field is checked here, before a command writes anything."""
    for name in sections:
        if name not in _SECTIONS:
            raise ConfigError(f"unknown config key {name!r}")
    config = {}
    for name, cls in _SECTIONS.items():
        given = sections.get(name, {})
        if not isinstance(given, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        for key in given:
            if key not in DEFAULT_CONFIG[name]:
                raise ConfigError(f"unknown config key {name + '.' + key!r}")
        config[name] = cls(**given)
    return config


def _load_run_config(path, command):
    """The config sections and stored options of an effective-config echo (or
    of a bare sections file, which stores none); an echo stores its options
    and seed only for the command that wrote it."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    if "config" not in payload:
        return payload, {}
    extra = {k for k in payload if k not in ("config", "options", "seed", "command")}
    if extra:
        raise ConfigError(f"unknown config key {sorted(extra)[0]!r}")
    sections, stored = payload["config"], payload.get("options", {})
    if not isinstance(sections, dict):
        raise ConfigError("config sections must be a JSON object")
    if not isinstance(stored, dict):
        raise ConfigError(f"stored 'options' must be a JSON object, got {stored!r}")
    if payload.get("command") != command:
        return sections, {}
    return sections, ({**stored, "seed": payload["seed"]} if "seed" in payload else stored)


def _stored_option(name, typ, value):
    """A stored option as ``typ``: a bool takes a JSON bool, an int a non-bool
    int, a float any number, a str a string; anything else is a ConfigError."""
    allowed = (int, float) if typ is float else typ
    if not isinstance(value, allowed) or (typ is not bool and isinstance(value, bool)):
        raise ConfigError(f"stored option {name!r} must be a {typ.__name__}, got {value!r}")
    return typ(value)


def _echo_config(command, options, config) -> None:
    """Write the run record ``<out>/config.json``, which ``--config`` replays."""
    options = dict(options)
    seed = options.pop("seed")
    dataio.write_json(
        os.path.join(options["out"], "config.json"),
        {"command": command, "seed": seed, "options": options,
         "config": {name: dataclasses.asdict(c) for name, c in config.items()}},
    )


def _emit_table(name, table, out) -> None:
    """Print ``table``; with an ``out`` directory also write ``<out>/<name>.tsv``."""
    if out:
        dataio.write_text(os.path.join(out, name + ".tsv"), table)
    sys.stdout.write(table)


def _prepare_image(arr, data: dataio.DataConfig) -> np.ndarray:
    img = np.asarray(arr, np.float32)
    if img.ndim == 2:
        img = img[None]
    if data.normalize:
        img = dataio.normalize_percentile(img)
    if data.rescale != 1.0:
        img = dataio.rescale_image(img, data.rescale)
    return img


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_synth(config, options):
    spec = synthmod.SceneSpec(
        height=options["size"],
        width=options["size"],
        n_objects=options["objects"],
        radius_range=(options["radius_min"], options["radius_max"]),
        noise_std=options["noise_std"],
    )
    scenes = synthmod.generate_dataset(spec, options["images"], seed=options["seed"])
    dataio.save_dataset(
        options["out"],
        [img for img, _ in scenes],
        [lab for _, lab in scenes],
    )
    print(f"wrote {len(scenes)} images to {options['out']}")
    return config


def _cmd_train(config, options):
    stems, read = dataio.dataset_reader(options["data"], with_labels=False)
    images = [_prepare_image(read(stem)[0], config["data"]) for stem in stems]
    resume = None
    if options["resume"]:
        params, adam, next_epoch = load_checkpoint(options["resume"])
        resume = TrainResult(params, adam, [], next_epoch)
        config = {**config, "model": params.config}
    ckpt_path = os.path.join(options["out"], "checkpoint.ocec")
    trace_path = os.path.join(options["out"], "loss_trace.tsv")
    rows = ["epoch\tmean_loss\n"]
    if resume is not None and os.path.exists(trace_path):
        # resuming into the run's own directory keeps the epochs already run
        with open(trace_path, encoding="utf-8") as fh:
            rows += [r for r in fh.readlines()[1:] if int(r.split("\t")[0]) < resume.next_epoch]

    def save(state):  # the trace is rewritten whole with each checkpoint
        save_checkpoint(ckpt_path, state.params, state.adam, state.next_epoch)
        dataio.write_text(trace_path, "".join(rows))

    def log(state):
        epoch, loss = state.next_epoch - 1, state.epoch_losses[-1]
        rows.append(f"{epoch}\t{loss:.8f}\n")
        save(state)
        print(f"epoch {epoch}: mean loss {loss:.4f}")

    result = train(images, config["model"], config["loss"], config["train"],
                   seed=options["seed"], resume=resume, log=log)
    if not result.epoch_losses:  # a resume at or past the last epoch runs none
        save(result)
    print(f"checkpoint written to {options['out']}/checkpoint.ocec")
    return config


def _inference_inputs(config, options, with_labels=False):
    """The checkpoint, the config with the checkpoint's model, the dataset
    stems and ``samples()``, which yields each stem's image side (H, W),
    prepared image and label (None unless ``with_labels``, which only
    ``sweep`` sets, as only it scores), reading one image at a time.

    ``samples()`` is run through once here, so every image is read, prepared
    and checked against the model before the command writes; the command
    runs it again and holds one image at a time."""
    params, _, _ = load_checkpoint(options["model"])
    stems, read = dataio.dataset_reader(options["data"], with_labels)

    def samples():
        for stem in stems:
            image, labels = read(stem)
            # the raw image dies here, before the command runs on the prepared one
            side, image = image.shape[-2:], _prepare_image(image, config["data"])
            check_image(image, params.config.in_channels)
            yield side, image, labels

    for _ in samples():
        pass
    return params, {**config, "model": params.config}, stems, samples


def _cmd_predict(config, options):
    params, config, stems, samples = _inference_inputs(config, options)
    out_dir = os.path.join(options["out"], "fields")
    for stem, (_, img, _) in zip(stems, samples()):
        dataio.tensor_write(os.path.join(out_dir, stem + ".ocet"), predict_full(params, img))
    print(f"wrote {len(stems)} offset fields to {out_dir}")
    return config


def _cmd_segment(config, options):
    params, config, stems, samples = _inference_inputs(config, options)
    lab_dir = os.path.join(options["out"], "labels")
    for i, (stem, (side, img, _)) in enumerate(zip(stems, samples())):
        labels = segment_image(params, img, config["segment"], seed=options["seed"] + i)
        labels = dataio.rescale_labels(labels, side)
        dataio.tensor_write(os.path.join(lab_dir, stem + ".ocet"), labels)
        if options["pgm"]:
            dataio.pgm_write(os.path.join(options["out"], "vis", stem + ".pgm"),
                             dataio.labels_to_gray(labels))
        del labels  # so the next image is segmented without this one's labels
    print(f"wrote {len(stems)} label masks to {lab_dir}")
    return config


def _cmd_eval(config, options):
    stems, read_gt = dataio.label_reader(options["gt"])
    pred_stems, read_pred = dataio.label_reader(options["pred"])
    unmatched = sorted(set(stems) ^ set(pred_stems))
    if unmatched:
        found_in = "ground truth" if unmatched[0] in stems else "prediction"
        raise FormatError(f"stem {unmatched[0]} is in the {found_in} only")

    def pairs():  # one (gt, prediction) pair at a time, in stem order
        return zip(map(read_gt, stems), map(read_pred, stems))

    thresholds = [float(t) for t in options["thresholds"].split(",") if t]
    rows = threshold_sweep(pairs(), thresholds, per_image=options["per_image"])
    if options["seg"]:
        rows.append(("seg", 0.5, seg_score_dataset(pairs())))
    _emit_table("scores", format_score_table(rows), options["out"])
    return config


def _cmd_sweep(config, options):
    params, config, _, samples = _inference_inputs(config, options, with_labels=True)
    bandwidths = [float(b) for b in options["bandwidths"].split(",") if b]
    best_bw, best_s, rows = bandwidth_search(
        params, ((img, labels) for _, img, labels in samples()), bandwidths,
        config=config["segment"], metric=options["metric"],
        iou_threshold=options["threshold"], seed=options["seed"])
    lines = ["bandwidth\tshrink\tscore"]
    for bw, s, score in rows:
        lines.append(f"{bw:g}\t{s:g}\t{score:.6f}")
    _emit_table("sweep", "\n".join(lines) + "\n", options["out"])
    print(f"best bandwidth {best_bw:g}, shrink {best_s:g}")
    return config


def _cmd_theory(config, options):
    radius, p = options["radius"], options["patch"]
    if not 0 < radius < np.inf:
        raise ConfigError(f"--radius must be a finite number > 0, got {radius:g}")
    template, _ = synthmod.object_template(radius)
    side = template.shape[0]
    half = side // 2
    # patch a ends at the template center and patch b starts there
    if not 1 <= p <= half + 1:
        raise ConfigError(f"--patch must be in 1..{half + 1} at --radius {radius:g}, got {p}")
    if options["objects"] < 1:
        raise ConfigError(f"--objects must be at least 1, got {options['objects']}")
    if options["canvas"] < side:
        raise ConfigError(f"--canvas must be at least the template side {side} "
                          f"at --radius {radius:g}, got {options['canvas']}")
    off_a = (half - p + 1, half - p + 1)
    off_b = (half, half)
    pa = template[off_a[0]:off_a[0] + p, off_a[1]:off_a[1] + p]
    pb = template[off_b[0]:off_b[0] + p, off_b[1]:off_b[1] + p]
    samples = theorymod.make_scenes(
        options["scenes"],
        options["objects"],
        options["canvas"],
        template,
        seed=options["seed"],
        boundary=options["boundary"],
    )
    label = f"a@{off_a}/b@{off_b}"
    table = theorymod.offset_report(label, pa, pb, samples)
    _emit_table("theory", table, options["out"])
    return config


# ---------------------------------------------------------------------------
# Parser

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# command -> (function, {option: (type, default, help)}); an option whose
# default is None is required, and every command returns the config it ran
_COMMANDS = {
    "synth": (_cmd_synth, {
        "out": (str, None, "output dataset directory"),
        "images": (int, 50, "number of scenes"),
        "size": (int, 252, "canvas side length"),
        "objects": (int, 20, "objects per scene"),
        "radius_min": (float, 8.0, "smallest object radius"),
        "radius_max": (float, 14.0, "largest object radius"),
        "noise_std": (float, 0.02, "background noise sigma"),
    }),
    "train": (_cmd_train, {
        "data": (str, None, "dataset directory"),
        "out": (str, None, "output directory"),
        "resume": (str, "", "checkpoint to resume from"),
    }),
    "predict": (_cmd_predict, {
        "model": (str, None, "checkpoint file"),
        "data": (str, None, "dataset directory"),
        "out": (str, None, "output directory"),
    }),
    "segment": (_cmd_segment, {
        "model": (str, None, "checkpoint file"),
        "data": (str, None, "dataset directory"),
        "out": (str, None, "output directory"),
        "pgm": (bool, False, "also write PGM visualizations"),
    }),
    "eval": (_cmd_eval, {
        "gt": (str, None, "ground truth labels (dataset root or directory)"),
        "pred": (str, None, "predicted labels (dataset root or directory)"),
        "thresholds": (str, "0.5", "comma-separated IoU thresholds"),
        "per_image": (bool, False, "average scores per image instead of pooling"),
        "seg": (bool, False, "also report the SEG score"),
        "out": (str, "", "optional output directory"),
    }),
    "sweep": (_cmd_sweep, {
        "model": (str, None, "checkpoint file"),
        "data": (str, None, "labelled validation dataset"),
        "bandwidths": (str, "4,6,8,10,12,14", "comma-separated candidates"),
        "metric": (str, "f1", "f1 or seg, pooled over the set as eval and eval --seg print them"),
        "threshold": (float, 0.5, "IoU threshold for f1"),
        "out": (str, "", "optional output directory"),
    }),
    "theory": (_cmd_theory, {
        "scenes": (int, 500, "number of scenes"),
        "objects": (int, 30, "objects per scene"),
        "canvas": (int, 511, "canvas side (odd sides keep wrapped offsets symmetric)"),
        "radius": (float, 7.0, "template radius"),
        "patch": (int, 5, "patch side length, 1 to ceil(radius) + 1"),
        "boundary": (str, "periodic",
                     "periodic (cross term of mean zero) or bounded (cross term exactly "
                     "the intra-object offset)"),
        "out": (str, "", "optional output directory"),
    }),
}
for _fn, _spec in _COMMANDS.values():  # every command takes a seed, echoed beside its options
    _spec["seed"] = (int, 0, "seed of the run's random draws")


def _build_parser() -> _Parser:
    parser = _Parser(prog="oceseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (_fn, spec) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        for opt, (typ, _default, help_text) in spec.items():
            flag = "--" + opt.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True, default=None,
                               help=help_text)
            else:
                p.add_argument(flag, type=typ, default=None, help=help_text)
    return parser


# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the
# values main fixes them at.  A fixed mmap threshold stops glibc raising it
# (up to 32 MiB) each time a large mmapped block is freed, so every temporary
# above it is mmapped and given back to the OS when freed.  Bench ``train``
# peak RSS, MB, medians of 5-10 alternating runs on a 2-core host: glibc's
# default 443-466; fixed at 4, 8 or 12 MiB 372-377; at 16 MiB 418-426, as
# the 13.5 MiB conv patch buffers come from the heap again.  The price is a
# page fault per fresh page of those temporaries: ``train`` s/Mpix +6 %.
# Fixing the mmap threshold also stops glibc keeping the trim threshold at
# twice it, so that is fixed by hand: at glibc's default of 128 KiB the heap
# top is given back and faulted in again around every conv (a 48^2 train
# step took 15,000 page faults, against about 1,000 at twice).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 12 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


def _libc():
    """The C library of this process, or None where it cannot be loaded."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _fix_malloc_thresholds() -> None:
    """Fix the C library's mmap and trim thresholds; a library without
    ``mallopt`` (not glibc, or none loaded) is left as it is."""
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _fix_malloc_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not args.command:
        parser.print_usage(sys.stderr)
        return 1
    try:
        sections, stored = _load_run_config(args.config, args.command) if args.config else ({}, {})
        config = _build_config(sections)
        command, spec = _COMMANDS[args.command]
        options = {}
        for opt, (typ, default, _help) in spec.items():
            given = getattr(args, opt)
            if given is not None:
                options[opt] = given
            elif opt in stored:
                options[opt] = _stored_option(opt, typ, stored[opt])
            else:
                options[opt] = default
        # a required option (default None) given as "" is missing too
        missing = [o for o, (_typ, default, _help) in spec.items()
                   if default is None and options[o] in (None, "")]
        if missing:
            print(
                f"oceseg {args.command}: missing required option "
                f"--{missing[0].replace('_', '-')}",
                file=sys.stderr,
            )
            return 1
        if options["seed"] < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {options['seed']}")
        config = command(config, options)
        if options["out"]:
            _echo_config(args.command, options, config)
        return 0
    except (ValueError, OSError, PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
