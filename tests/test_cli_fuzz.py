"""Seeded fuzz of the four JSON documents the CLI reads, and of its flags.

Every key of a ``count --config``, ``synth --spec``, truth and ``eval
--report`` document is set in turn to each value of a fixed set of bad ones
(wrong JSON types, NaN and infinities, wrong list lengths, negative and huge
integers, deep nesting) or removed, whole files are corrupted (bytes that are
not UTF-8, truncation), and then seeded random mixes of those mutations are
run. Every ``count`` flag that takes a value gets fixed and seeded random bad
text. Each run goes through ``cli.main`` in-process and must return 0, 1 or 2
(argparse's own exit 2 included) without an exception escaping, and print
nothing on stdout and under 1 KB on stderr when it fails: a rejected value is
quoted in part, never echoed whole.

Scenes stay at 64x64 pixels and 4 frames: a huge width, height or frame count
that fits in 64 bits is a valid request for a scene too big to render here,
so those three keys are never given one.
"""

import copy
import json
import math
import random

import pytest

from headcount.cli import main
from headcount.errors import quote
from headcount.pipeline import PARAMS, PipelineConfig
from headcount.counting import LinePair

MISSING = object()
# stand for arrays nested 100,000 deep (beyond what the JSON decoder takes)
# and 900 deep (decoded, then rejected)
DEEP, NESTED = "@deep@", "@nested@"
DEEP_TEXT = "[" * 100_000 + "]" * 100_000
NESTED_TEXT = "[" * 900 + "]" * 900

BAD_VALUES = [
    MISSING, "abc", "", True, False, None, {}, [], 0, 1.5, -0.5,
    math.nan, math.inf, -math.inf,
    [5], [5, 5, 5], ["a", "b"], [math.nan, 5], [True, 5], [5, math.inf], [1, 2],
    -1, -5, -2**63, 2**62, 2**63, 10**400, DEEP, NESTED,
]
# fits in 64 bits, so a scene this big would be rendered
HUGE_SIZES = (2**62,)
SIZE_KEYS = ("width", "height", "frames")

SCENE = {
    "width": 64, "height": 64, "frames": 4, "background_intensity": 50,
    "noise_amplitude": 5, "seed": 3, "lines": [20, 40],
    "actors": [{"radius": 6, "start": [30.0, 10.0], "velocity": [0.0, 12.0],
                "spawn_frame": 0, "despawn_frame": None, "intensity": 220}],
}
TRUTH = {"true_in": 1, "true_out": 0, "true_total": 1}
REPORT = {"in": 1, "out": 0, "total": 1, "events": [], "params": {}}


def base_config():
    config = PipelineConfig(lines=LinePair(20, 40)).to_params_dict()
    config.update(warmup=1, min_area=20)
    return config


def corrupt_bytes(data: bytes, how: str) -> bytes:
    return {
        "ff_suffix": data + b"\xff",
        "ff_prefix": b"\xff" + data,
        "latin1_key": data.replace(b"{", b'{"caf\xe9": 1, ', 1),
        "utf16": data.decode("utf-8").encode("utf-16"),
        "truncated": data[:len(data) // 2],
        "empty": b"",
        "array": b"[1, 2]",
    }[how]


CORRUPTIONS = ("ff_suffix", "ff_prefix", "latin1_key", "utf16", "truncated",
               "empty", "array")


def encode(doc) -> bytes:
    text = json.dumps(doc)
    text = text.replace(json.dumps(DEEP), DEEP_TEXT)
    return text.replace(json.dumps(NESTED), NESTED_TEXT).encode("utf-8")


def mutated(doc, path, value):
    """A copy of ``doc`` with the key at ``path`` set to ``value`` (or
    removed, for MISSING)."""
    doc = copy.deepcopy(doc)
    owner = doc
    for step in path[:-1]:
        owner = owner[step]
    if value is MISSING:
        owner.pop(path[-1], None)
    else:
        owner[path[-1]] = value
    return doc


def allowed(path, value) -> bool:
    return not (path[-1] in SIZE_KEYS and value in HUGE_SIZES)


@pytest.fixture(scope="module")
def frames(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_frames")
    (root / "scene.json").write_text(json.dumps(SCENE))
    assert main(["synth", "--spec", str(root / "scene.json"),
                 "--out", str(root / "frames")]) == 0
    return root / "frames"


class Cli:
    """Writes documents to a scratch directory and runs main on them."""

    def __init__(self, tmp_path, capsys, frames):
        self.tmp = tmp_path
        self.capsys = capsys
        self.frames = frames

    def write(self, name, data: bytes) -> str:
        path = self.tmp / name
        path.write_bytes(data)
        return str(path)

    def run(self, argv) -> int:
        try:
            code, first = main(argv), "error:"
        except SystemExit as exc:  # argparse rejected a flag: usage, then the error
            code, first = exc.code, "usage:"
        captured = self.capsys.readouterr()
        self.err = captured.err
        assert code in (0, 1, 2), (argv, code)
        if code:
            assert captured.out == "", argv
            assert captured.err.startswith(first) and "error:" in captured.err, argv
            assert len(captured.err.encode()) < 1024, argv
        return code

    def count(self, config: bytes, truth: bytes = None) -> int:
        argv = ["count", "--input", str(self.frames),
                "--config", self.write("config.json", config)]
        if truth is not None:
            argv += ["--truth", self.write("truth.json", truth)]
        return self.run(argv)

    def synth(self, spec: bytes, seed=None) -> int:
        argv = ["synth", "--spec", self.write("spec.json", spec),
                "--out", str(self.tmp / "out")]
        if seed is not None:
            argv += ["--seed", str(seed)]
        return self.run(argv)

    def eval(self, report: bytes, truth: bytes) -> int:
        return self.run(["eval", "--report", self.write("report.json", report),
                         "--truth", self.write("truth.json", truth)])

    def run_doc(self, kind: str, data: bytes) -> int:
        """Run the command that reads a ``kind`` document, with ``data`` as
        that document and valid ones for the rest."""
        if kind == "config":
            return self.count(data)
        if kind == "spec":
            return self.synth(data)
        if kind == "truth":
            return max(self.count(encode(base_config()), data),
                       self.eval(encode(REPORT), data))
        return self.eval(data, encode(TRUTH))


@pytest.fixture
def cli(tmp_path, capsys, frames):
    return Cli(tmp_path, capsys, frames)


def bases():
    return {"config": base_config(), "spec": SCENE, "truth": TRUTH, "report": REPORT}


def key_paths(kind):
    doc = bases()[kind]
    paths = [(key,) for key in doc]
    if kind == "spec":
        paths += [("actors", 0, key) for key in doc["actors"][0]]
    return paths


def test_config_document_covers_every_param():
    assert set(base_config()) == {"lines", *PARAMS}


@pytest.mark.parametrize("kind", ["config", "spec", "truth", "report"])
def test_valid_documents_succeed(cli, kind):
    assert cli.run_doc(kind, encode(bases()[kind])) == 0


@pytest.mark.parametrize("kind,path", [(kind, path)
                                      for kind in ("config", "spec", "truth", "report")
                                      for path in key_paths(kind)],
                         ids=lambda p: ".".join(map(str, p)) if isinstance(p, tuple) else p)
def test_every_key_takes_every_bad_value(cli, kind, path):
    for value in BAD_VALUES:
        if allowed(path, value):
            cli.run_doc(kind, encode(mutated(bases()[kind], path, value)))


@pytest.mark.parametrize("kind", ["config", "spec", "truth", "report"])
@pytest.mark.parametrize("how", CORRUPTIONS)
def test_corrupt_document_is_config_error(cli, kind, how):
    assert cli.run_doc(kind, corrupt_bytes(encode(bases()[kind]), how)) == 2


@pytest.mark.parametrize("seed", [-5, -1, 0, 7, 2**63, 10**400, "9" * 5000],
                         ids=["-5", "-1", "0", "7", "2**63", "10**400", "9*5000"])
def test_synth_seed_flag(cli, seed):
    code = cli.synth(encode(SCENE), seed)
    assert code == (0 if seed in (0, 7) else 2)


def test_random_mixes_of_mutations(cli):
    rng = random.Random(20261018)
    for _ in range(300):
        kind = rng.choice(["config", "spec", "truth", "report"])
        doc = bases()[kind]
        # actor keys first, while the actor list they live in is intact
        for path in sorted(rng.sample(key_paths(kind), rng.randint(1, 3)),
                           key=len, reverse=True):
            value = rng.choice(BAD_VALUES)
            if allowed(path, value):
                doc = mutated(doc, path, value)
        data = encode(doc)
        if rng.random() < 0.1:
            data = corrupt_bytes(data, rng.choice(CORRUPTIONS))
        cli.run_doc(kind, data)


# Inputs that ended in a traceback, or were accepted, before scene specs and
# CLI documents were validated; each must now exit 2.
REPORTED = {
    "config_not_utf8": ("config", lambda: corrupt_bytes(encode(base_config()), "ff_suffix")),
    "truth_not_utf8": ("truth", lambda: corrupt_bytes(encode(TRUTH), "latin1_key")),
    "report_not_utf8": ("report", lambda: corrupt_bytes(encode(REPORT), "ff_prefix")),
    "spec_not_utf8": ("spec", lambda: corrupt_bytes(encode(SCENE), "ff_suffix")),
    "config_deeply_nested": ("config", lambda: DEEP_TEXT.encode()),
    "spec_key_deeply_nested": ("spec", lambda: encode(mutated(SCENE, ("seed",), DEEP))),
    "report_in_beyond_float": ("report", lambda: b'{"in": 1' + b"0" * 400
                               + b', "out": 0, "total": 1' + b"0" * 400 + b"}"),
    "actor_start_string": ("spec", lambda: encode(mutated(SCENE, ("actors", 0, "start"), "ab"))),
    "actor_start_one_number": ("spec", lambda: encode(mutated(SCENE, ("actors", 0, "start"), [5]))),
    "actor_start_three_numbers": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "start"), [5, 5, 5]))),
    "actor_start_nan": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "start"), [math.nan, 5]))),
    "actor_start_boolean": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "start"), [True, 5]))),
    "actor_velocity_infinite": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "velocity"), [0, math.inf]))),
    "actor_spawn_before_scene": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "spawn_frame"), -1))),
    "spec_negative_seed": ("spec", lambda: encode(mutated(SCENE, ("seed",), -1))),
    "spec_noise_beyond_int16": ("spec", lambda: encode(
        mutated(SCENE, ("noise_amplitude",), 40000))),
    "spec_noise_above_255": ("spec", lambda: encode(mutated(SCENE, ("noise_amplitude",), 256))),
    "config_float_beyond_float_range": ("config", lambda: encode(
        mutated(base_config(), ("alpha",), 10**400))),
    "config_min_area_beyond_float_range": ("config", lambda: encode(
        mutated(base_config(), ("min_area",), 10**400))),
    "actor_radius_beyond_float_range": ("spec", lambda: encode(
        mutated(SCENE, ("actors", 0, "radius"), 10**400))),
}


@pytest.mark.parametrize("name", sorted(REPORTED))
def test_reported_input_is_config_error(cli, name):
    kind, data = REPORTED[name]
    assert cli.run_doc(kind, data()) == 2


# A key no document level defines, at each object level of the config, scene
# and actor documents, and an actors object in place of the array: each was
# dropped unread before scene specs were read like config files, and must now
# exit 2 and write nothing
UNKNOWN_KEYS = {
    "config": ("config", ("threshhold",), 40),
    "scene": ("spec", ("noise_amplitud",), 30),
    "actor": ("spec", ("actors", 0, "despawn"), 10),
    "actors_object": ("spec", ("actors",), {}),
}


@pytest.mark.parametrize("level", sorted(UNKNOWN_KEYS))
def test_unknown_key_is_config_error(cli, level):
    kind, path, value = UNKNOWN_KEYS[level]
    assert cli.run_doc(kind, encode(mutated(bases()[kind], path, value))) == 2
    assert path[-1] in cli.err
    assert not (cli.tmp / "out").exists()


def test_synth_negative_seed_flag_writes_nothing(cli):
    assert cli.synth(encode(SCENE), -5) == 2
    assert not (cli.tmp / "out").exists()


# Corrupted PGM headers: the second frame of the scene is replaced and count
# must stop on it with exit 1 and name it; a well-formed frame of another
# size is a geometry error (exit 2) instead.
RASTER = bytes(64 * 64)
PGM_CASES = {
    "empty": b"",
    "bare_magic": b"P5",
    "ascii_p2": b"P2\n64 64\n255\n" + b"0 " * 64 * 64,
    "colour_p6": b"P6\n64 64\n255\n" + RASTER * 3,
    "non_numeric": b"P5\nab 64\n255\n" + RASTER,
    "zero": b"P5\n0 64\n255\n" + RASTER,
    "negative": b"P5\n-64 64\n255\n" + RASTER,
    "twenty_digits": b"P5\n" + b"9" * 20 + b" 64\n255\n" + RASTER,
    "beyond_int_digit_limit": b"P5\n" + b"9" * 5000 + b" 64\n255\n" + RASTER,
    "width_4000_digits": b"P5\n" + b"9" * 4000 + b" 64\n255\n" + RASTER,
    "both_4000_digits": b"P5\n" + b"9" * 4000 + b" " + b"9" * 4000 + b"\n255\n" + RASTER,
    "underscore_width": b"P5\n6_4 64\n255\n" + RASTER,
    "underscore_maxval": b"P5\n64 64\n2_55\n" + RASTER,
    "plus_height": b"P5\n64 +64\n255\n" + RASTER,
    "maxval_65535": b"P5\n64 64\n65535\n" + RASTER * 2,
    "no_whitespace_after_maxval": b"P5\n64 64\n255",
    "unterminated_comment": b"P5\n64 64\n# no end of line",
    "truncated_raster": b"P5\n64 64\n255\n" + RASTER[:100],
    "other_size": b"P5\n32 32\n255\n" + bytes(32 * 32),
}


@pytest.mark.parametrize("case", sorted(PGM_CASES))
def test_corrupted_pgm_header(cli, tmp_path, case):
    frames = tmp_path / "frames"
    frames.mkdir()
    for path in cli.frames.glob("*.pgm"):
        (frames / path.name).write_bytes(path.read_bytes())
    bad = frames / "000001.pgm"
    bad.write_bytes(PGM_CASES[case])
    config = cli.write("config.json", encode(base_config()))
    code = cli.run(["count", "--input", str(frames), "--config", config])
    if case == "other_size":
        assert code == 2
    else:
        assert code == 1
        assert str(bad) in cli.err
    if case in ("beyond_int_digit_limit", "width_4000_digits", "both_4000_digits"):
        # the 5000-digit token is quoted in part, not in full, and the
        # 4000-digit fields' product is not printed; the file's path, as long
        # as the host's temporary directory makes it, is not counted
        lines = cli.err.replace(str(bad), "").splitlines()
        assert max(len(line.encode()) for line in lines) < 200


# Flag values: text argparse or the CLI must reject, or take, cleanly
BAD_FLAG_TEXT = [
    "", " ", "abc", "-1", "0", "1", "1.5", "-0.5", "1e400", "-1e400", "nan", "inf",
    "-inf", str(2**63), str(-2**63 - 1), "9" * 5000, "0x10", "1_000", "+3", " 3",
    "true", "null", "[1, 2]", "\u00e9", "1,2", "20,40", "40,20", "0,10", "1,62",
    "10,50", ",", "1,2,3", "1.5,30", "9" * 5000 + ",1", "64x64", "32x128",
    "128x128", "16x16", "63x64", "8x8", "4096x4", "0x64", "-8x8", "64X128", "64x",
    "x64", "64x64x1", "1e3x8", str(2**63) + "x1", "\uff11\uff10, +20 ", "\uff18x8",
    "1_0,2_0", "20, 40", "+20,40", "\u00b2,40", "9" * 4000 + "x" + "9" * 4000,
]
FLAG_ALPHABET = "0123456789-+.,xXeE_ nai"
BOOL_FLAGS = [key for key, (_, kind, _) in PARAMS.items() if kind is bool]
VALUED_FLAGS = ["lines", "raw", *(key for key in PARAMS if key not in BOOL_FLAGS)]


def run_flags(cli, flags) -> int:
    """``count`` on the fuzz scene, as a raw file when ``--raw`` is given,
    with valid base flags and then ``flags``, which win."""
    source = cli.frames
    if any(flag.startswith("--raw") for flag in flags):
        source = cli.tmp / "frames.raw"
        source.write_bytes(b"".join(p.read_bytes()[-64 * 64:]
                                    for p in sorted(cli.frames.glob("*.pgm"))))
    return cli.run(["count", "--input", str(source), "--lines", "20,40", "--warmup", "1",
                    "--min-area", "20", *flags])


def flag_value(rng) -> str:
    """Seeded text: a fixed bad value, junk, a number, or a pair of numbers
    as ``--lines`` or ``--raw`` take them."""
    def number():
        return str(rng.choice([rng.randint(-3, 70), rng.randint(-2**64, 2**64),
                               round(rng.uniform(-2.0, 300.0), 3)]))
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(BAD_FLAG_TEXT)
    if kind == 1:
        return "".join(rng.choice(FLAG_ALPHABET) for _ in range(rng.randint(0, 8)))
    return number() if kind == 2 else number() + rng.choice(",x") + number()


@pytest.mark.parametrize("key", VALUED_FLAGS)
def test_every_flag_takes_bad_text(cli, key):
    rng = random.Random(f"flag-{key}")
    flag = "--" + key.replace("_", "-")
    for value in BAD_FLAG_TEXT + [flag_value(rng) for _ in range(20)]:
        run_flags(cli, [f"{flag}={value}"])


@pytest.mark.parametrize("key", BOOL_FLAGS)
def test_boolean_flag_takes_no_value(cli, key):
    flag = "--" + key.replace("_", "-")
    assert run_flags(cli, [flag]) == 0
    for value in ("", "1", "true", "abc"):
        assert run_flags(cli, [f"{flag}={value}"]) == 2


def test_random_mixes_of_flags(cli):
    rng = random.Random(20261018)
    for _ in range(150):
        keys = rng.sample(VALUED_FLAGS, rng.randint(1, 3))
        run_flags(cli, [f"--{key.replace('_', '-')}={flag_value(rng)}" for key in keys])


# Flag values that were echoed whole, or accepted, before flag text was
# parsed like PGM header fields (ASCII digits, after an optional "-" for the
# integer flags; ASCII floats without "_" or whitespace) and argparse errors
# quoted it; each must exit 2 and quote the value
REPORTED_FLAGS = {
    "count_min_area_5000_digits": ("count", ["--min-area", "9" * 5000]),
    "count_lines_fullwidth_and_plus": ("count", ["--lines", "\uff11\uff10, +20 "]),
    "count_raw_fullwidth": ("count", ["--raw", "\uff18x8"]),
    "synth_seed_5000_digits": ("synth", ["--seed", "9" * 5000]),
    "synth_lines_underscores": ("synth", ["--lines", "1_0,2_0"]),
    "count_warmup_fullwidth_underscore": ("count", ["--warmup", "\uff11_5"]),
    "count_min_area_plus_underscore_spaces": ("count", ["--min-area", " +8_0"]),
    "count_alpha_fullwidth": ("count", ["--alpha", "\uff10.\uff10\uff12"]),
    "count_threshold_underscore": ("count", ["--threshold", "2_5"]),
    "count_min_circularity_spaces": ("count", ["--min-circularity", " 0.5 "]),
    "synth_seed_plus": ("synth", ["--seed", "+3"]),
}


@pytest.mark.parametrize("name", sorted(REPORTED_FLAGS))
def test_reported_flag_value_is_rejected(cli, name):
    command, flags = REPORTED_FLAGS[name]
    if command == "count":
        code = run_flags(cli, flags)
    else:
        code = cli.run(["synth", "--spec", cli.write("spec.json", encode(SCENE)),
                        "--out", str(cli.tmp / "out"), *flags])
        assert not (cli.tmp / "out").exists()
    assert code == 2
    assert quote(flags[1]) in cli.err
