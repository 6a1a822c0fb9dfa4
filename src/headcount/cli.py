"""Command-line front end: count people in a sequence, generate synthetic
scenes, and evaluate reports against ground truth.

Exit codes: 0 success, 1 I/O problems, 2 configuration/validation problems.
stdout carries exactly one JSON document per successful invocation; all
diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .counting import LinePair
from .errors import (ConfigError, EmptySequence, HeadcountError, ParseError,
                     TruncatedStream, UnsupportedFormat, digits, json_value, quote)
from .frame_io import SequenceSpec, open_sequence, write_annotated
from .metrics import CountReport, GroundTruth
from .pipeline import PARAMS, CountingPipeline, PipelineConfig
from .synthetic import SceneSpec, ground_truth_events, render_scene
from . import frame_io

_IO_ERRORS = (OSError, ParseError, UnsupportedFormat, EmptySequence, TruncatedStream)


def _lines_flag(text: str) -> list[int]:
    """The --lines text Y1,Y2 as the JSON array that LinePair.from_json reads."""
    try:
        return [digits(y) for y in text.split(",")]
    except ValueError:
        raise ConfigError(f"lines must be Y1,Y2, got {quote(text)}") from None


def _parse_geometry(text: str) -> tuple[int, int]:
    try:
        w, h = map(digits, text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"geometry must be WxH, got {quote(text)}") from None
    return w, h


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ValueError on a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {quote(key)}")
        doc[key] = value
    return doc


def _load_json(path, from_dict=dict):
    """``from_dict`` of the JSON object at ``path``; its ConfigErrors name the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError is a ValueError
        raise ConfigError(f"{path}: not a UTF-8 JSON document: {exc}") from None
    try:
        return from_dict(json_value("document", doc, dict))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _reader(from_dict):
    """``from_dict`` that also reads the document's ``params``, if any, as
    ``count`` writes them: a report's, or those of a truth document that is
    a report."""
    def read(doc):
        result = from_dict(doc)
        if doc.get("params"):
            PipelineConfig.from_params(doc["params"])
        return result
    return read


def _build_config(args) -> PipelineConfig:
    """The --config document, overlaid with every flag given, as a config."""
    params = _load_json(args.config) if args.config else {}
    params.update({key: getattr(args, key) for key in PARAMS
                   if getattr(args, key) is not None})
    if args.lines is not None:
        params["lines"] = _lines_flag(args.lines)
    return PipelineConfig.from_params(params)


def cmd_count(args) -> int:
    config = _build_config(args)
    truth = _load_json(args.truth, _reader(GroundTruth.from_dict)) if args.truth else None

    spec = SequenceSpec(source=Path(args.input))
    if args.raw:
        spec.width, spec.height = _parse_geometry(args.raw)

    annotate_dir = Path(args.annotate) if args.annotate else None
    pipeline = CountingPipeline(config)
    for frame in open_sequence(spec):
        keypoints = pipeline.process_frame(frame)
        if annotate_dir is not None:
            # made after a frame has passed: a bad source, geometry or line writes nothing
            annotate_dir.mkdir(parents=True, exist_ok=True)
            write_annotated(frame, keypoints, config.lines,
                            annotate_dir / f"{frame.index:06d}.pgm")
    print(pipeline.report(truth).to_json())
    return 0


def cmd_synth(args) -> int:
    doc = _load_json(args.spec)
    lines_doc = doc.pop("lines", None)
    if args.seed is not None:
        doc["seed"] = args.seed
    scene = SceneSpec.from_dict(doc)

    lines = _lines_flag(args.lines) if args.lines is not None else lines_doc
    if lines is None:
        raise ConfigError("counting lines are required to compute ground truth "
                          "(--lines or a \"lines\" entry in the scene spec)")
    lines = LinePair.from_json(lines)
    lines.check_fits(scene.height)

    frames = render_scene(scene)
    frame = next(frames)  # rendered first, so a scene too big to render writes nothing
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    while frame is not None:
        frame_io.write_frame(frame, out_dir / f"{frame.index:06d}.pgm")
        frame = next(frames, None)

    truth = ground_truth_events(scene, lines)[0].to_dict()
    (out_dir / "truth.json").write_text(json.dumps(truth, sort_keys=True) + "\n",
                                        encoding="utf-8")
    print(json.dumps({"frames": scene.frames, "out": str(out_dir), **truth},
                     sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    report = _load_json(args.report, _reader(CountReport.from_dict))
    truth = _load_json(args.truth, _reader(GroundTruth.from_dict))
    accuracies = CountReport(report.counters, ground_truth=truth).accuracies()
    print(json.dumps({key: round(value, 2) for key, value in accuracies.items()},
                     sort_keys=True))
    return 0


def _flag_type(kind: type):
    """``kind`` as an argparse type whose error quotes the rejected text in part.
    An int is an optional ``-`` then ASCII digits, a float ASCII text without
    ``_`` or whitespace: ``int()`` and ``float()`` alone take " +1_0" too."""
    def parse(text: str):
        try:
            if kind is int:
                return -digits(text[1:]) if text.startswith("-") else digits(text)
            if not text.isascii() or "_" in text or text.split() != [text]:
                raise ValueError(text)
            return kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {quote(text)}")
    return parse


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lines", help="counting rows as Y1,Y2 (Y1 above Y2)")
    for key, (_, kind, text) in PARAMS.items():
        flag = "--" + key.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True, help=text)
        else:
            p.add_argument(flag, type=_flag_type(kind), help=text)
    p.add_argument("--config", help="JSON file with the same keys as the flags")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="headcount",
        description="Bidirectional people counting over grayscale frame sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count crossings in a frame sequence")
    p_count.add_argument("--input", required=True,
                         help="directory of .pgm frames, or a raw frame file")
    p_count.add_argument("--raw", help="raw-file frame geometry as WxH")
    p_count.add_argument("--truth", help="ground-truth JSON for accuracy fields")
    p_count.add_argument("--annotate", help="directory for annotated debug frames")
    _add_pipeline_flags(p_count)
    p_count.set_defaults(func=cmd_count)

    p_synth = sub.add_parser("synth", help="render a synthetic scene + truth.json")
    p_synth.add_argument("--spec", required=True, help="scene spec JSON")
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument("--seed", type=_flag_type(int),
                         help="override the spec's noise seed")
    p_synth.add_argument("--lines", help="counting rows Y1,Y2 for the ground truth")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="compare a report against ground truth")
    p_eval.add_argument("--report", required=True, help="count report JSON")
    p_eval.add_argument("--truth", required=True, help="ground-truth JSON")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, HeadcountError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _IO_ERRORS) else 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
