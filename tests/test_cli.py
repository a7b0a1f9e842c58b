"""Command line behavior: manifests, formats, exit codes."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import linespectra.cli as cli_mod
import linespectra.inequalities as inequalities_mod
import linespectra.projective as projective_mod
from linespectra.cli import main
from linespectra.constructions import boroczky, fermat, grid, random_config, sylvester_cubic
from linespectra.fields import quadratic_field
from linespectra.inequalities import InequalityReport
from linespectra.projective import Configuration, apply_projective_map
from linespectra.serialization import load_configuration, save_configuration


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen(tmp_path, capsys, *argv):
    path = tmp_path / "config.json"
    code, out, err = run(capsys, "generate", *argv, "--out", str(path))
    assert code == 0, err
    return path


# --- generate ---


def test_generate_grid(tmp_path, capsys):
    path = tmp_path / "grid.json"
    code, out, err = run(capsys, "generate", "grid", "--a", "3", "--b", "3",
                         "--out", str(path))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["command"] == "generate"
    assert manifest["arguments"] == {"generator": "grid", "a": 3, "b": 3}
    assert manifest["result"]["n"] == 9
    assert manifest["result"]["expected_spectrum"] is None
    assert load_configuration(str(path)).label == "grid(a=3,b=3)"


def test_generate_family_with_closed_form(tmp_path, capsys):
    path = tmp_path / "np.json"
    code, out, _ = run(capsys, "generate", "near-pencil", "--n", "6",
                       "--out", str(path))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["result"]["expected_spectrum"] == {"2": 5, "5": 1}


def test_generate_random_echoes_seed(tmp_path, capsys):
    path = tmp_path / "r.json"
    code, out, _ = run(capsys, "generate", "random", "--n", "10", "--seed", "4",
                       "--bound", "50", "--out", str(path))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["arguments"] == {
        "generator": "random", "n": 10, "seed": 4, "bound": 50,
    }


def test_generate_hyphenated_aliases(tmp_path, capsys):
    a = gen(tmp_path, capsys, "sylvester-cubic", "--k", "3")
    assert load_configuration(str(a)).label == "sylvester_cubic(k=3)"
    # the old cuspidal name is refused and writes nothing
    path = tmp_path / "x.json"
    code, _, err = run(capsys, "generate", "cuspidal-cubic", "--k", "3", "--out", str(path))
    assert code == 1
    assert "error:" in err
    assert not path.exists()


def test_generate_requires_out(capsys):
    code, _, err = run(capsys, "generate", "grid", "--a", "2", "--b", "2")
    assert code == 1
    assert "error:" in err


# the parameters each family cannot do without; random's --seed defaults to 0
REQUIRED_PARAMS = {
    "boroczky": ("m",), "fermat": ("m",),
    "grid": ("a", "b"), "near-pencil": ("n",), "random": ("n",),
    "sylvester-cubic": ("k",), "two-lines": ("m",),
}


@pytest.mark.parametrize("family,missing", [
    (family, missing) for family, params in REQUIRED_PARAMS.items() for missing in params])
def test_generate_requires_family_parameters(tmp_path, capsys, family, missing):
    given = [arg for p in REQUIRED_PARAMS[family] if p != missing for arg in (f"--{p}", "3")]
    code, out, err = run(capsys, "generate", family, *given,
                         "--out", str(tmp_path / "f.json"))
    assert (code, out) == (1, "")
    assert err == f"error: the following arguments are required: --{missing}\n"
    assert not (tmp_path / "f.json").exists()


COUNTING_OPTIONS = {"--format", "--out", "--threads"}
SEARCH_OPTIONS = {"--n", "--cap", "--objective", "--out"}
PARSER_OPTIONS = {
    ("analyze",): COUNTING_OPTIONS,
    ("check",): COUNTING_OPTIONS,
    ("render",): {"--out"},
    ("search", "exhaustive"): SEARCH_OPTIONS | {"--g", "--no-prune"},
    ("search", "local"): SEARCH_OPTIONS | {"--bound", "--iterations", "--restarts",
                                           "--seed", "--checkpoint"},
    **{("generate", family): {f"--{p}" for p in params} | {"--out"}
       for family, params in REQUIRED_PARAMS.items()},
}
PARSER_OPTIONS["generate", "random"] |= {"--seed", "--bound"}


def _subparsers(parser):
    # {name: parser} of the parser's subcommands, search modes or families
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def _leaves(parser, path=()):
    # (path, parser) of every parser that has no subparsers of its own
    if not _subparsers(parser):
        yield path, parser
    for name, sub in _subparsers(parser).items():
        yield from _leaves(sub, (*path, name))


def test_subcommand_options_are_fixed():
    # generate's families take their options from the generator signatures;
    # together with the hand-written ones they must stay exactly these
    found = {path: {o for a in leaf._actions for o in a.option_strings} - {"-h", "--help"}
             for path, leaf in _leaves(cli_mod.build_parser())}
    assert found == PARSER_OPTIONS
    for middle in ("generate", "search"):
        middle = _subparsers(cli_mod.build_parser())[middle]
        assert {o for a in middle._actions for o in a.option_strings} == {"-h", "--help"}


class _ReadLog(argparse.Namespace):
    """A namespace that logs the name of every attribute read from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            super().__getattribute__("_read").add(name)
        return super().__getattribute__(name)


def _leaf(parser, argv):
    # the parser that takes the options of argv: the last subcommand,
    # search mode or family named at its start
    for word in argv:
        if word not in _subparsers(parser):
            break
        parser = _subparsers(parser)[word]
    return parser


# one valid call of each subcommand, search mode and generator family
HANDLER_CALLS = [
    ("analyze", "c.json"),
    ("check", "c.json"),
    ("render", "c.json", "--out", "c.svg"),
    ("search", "exhaustive", "--n", "4", "--g", "3", "--cap", "2"),
    ("search", "local", "--n", "5", "--cap", "3", "--iterations", "5", "--restarts", "1"),
    *[("generate", family, *[arg for p in params for arg in (f"--{p}", "3")],
       "--out", "g.json") for family, params in REQUIRED_PARAMS.items()],
]


def test_every_option_is_read_by_its_handler(tmp_path, capsys, monkeypatch):
    # an option its handler never reads would be accepted and ignored
    # without a word
    monkeypatch.chdir(tmp_path)
    save_configuration(grid(3, 3), "c.json")
    parser = cli_mod.build_parser()
    unread = set()
    for argv in HANDLER_CALLS:
        args = _ReadLog(**vars(parser.parse_args(argv)))
        args._read = set()
        assert args.handler(args) == 0, argv
        leaf = _leaf(parser, argv)
        unread |= {(argv[:2], a.dest) for a in leaf._actions
                   if not isinstance(a, argparse._HelpAction) and a.dest not in args._read}
    capsys.readouterr()
    assert sorted(unread) == []
    called = {id(_leaf(parser, argv)) for argv in HANDLER_CALLS}
    assert called == {id(leaf) for _, leaf in _leaves(parser)}
    assert len(called) == 12


@pytest.mark.parametrize("argv", [
    ("search", "exhaustive", "--n", "4", "--g", "3", "--cap", "3", "--checkpoint", "x.ckpt"),
    ("search", "local", "--n", "5", "--cap", "3", "--g", "3", "--out", "x.json"),
    ("generate", "fermat", "--m", "4", "--k", "9", "--out", "x.json"),
    ("generate", "grid", "--a", "2", "--b", "2", "--seed", "5", "--out", "x.json"),
    ("render", "c.json", "--format", "csv", "--out", "x.svg"),
    ("analyze", "c.json", "--seed", "3", "--out", "x.json"),
    ("check", "c.json", "--threads", "0", "--out", "x.json"),
    ("analyze", "c.json", "--threads", "two", "--out", "x.json"),
], ids=" ".join)
def test_an_option_the_command_does_not_take_is_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    save_configuration(grid(3, 3), "c.json")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["c.json"]


def test_every_parser_renders_its_help():
    def parsers(parser):
        yield parser
        for sub in _subparsers(parser).values():
            yield from parsers(sub)

    helps = [p.format_help() for p in parsers(cli_mod.build_parser())]
    assert len(helps) == 15
    assert all(h.startswith("usage: linespectra") for h in helps)


# --- analyze ---


def test_analyze_json_manifest(tmp_path, capsys):
    path = gen(tmp_path, capsys, "boroczky", "--m", "4")
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["command"] == "analyze"
    assert manifest["arguments"] == {"input": str(path), "format": "json"}
    result = manifest["result"]
    assert result["n"] == 8
    assert result["ell"] == {"2": 4, "3": 6, "4": 1}
    assert result["real"] is True


def test_analyze_csv(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "3")
    code, out, _ = run(capsys, "analyze", str(path), "--format", "csv")
    assert code == 0
    assert out.startswith("quantity,value\nn,6\n")


def test_analyze_out_writes_file_and_threads_stay_hidden(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "6", "--b", "6")
    dest = tmp_path / "a.json"
    code, out, _ = run(capsys, "analyze", str(path), "--threads", "3",
                       "--out", str(dest))
    assert code == 0
    assert out == ""
    manifest = json.loads(dest.read_text())
    assert set(manifest["arguments"]) == {"input", "format"}


def test_analyze_threads_do_not_change_bytes(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "6", "--b", "6")
    one = tmp_path / "one.json"
    four = tmp_path / "four.json"
    assert run(capsys, "analyze", str(path), "--out", str(one))[0] == 0
    assert run(capsys, "analyze", str(path), "--threads", "4",
               "--out", str(four))[0] == 0
    assert one.read_bytes() == four.read_bytes()
    # above the fork floor the rows are counted in forked stripes
    n = projective_mod._FORK_FLOOR + 100
    save_configuration(random_config(n, seed=3), str(path))
    outputs = [run(capsys, "analyze", str(path), *threads)
               for threads in (["--threads", "1"], [], ["--threads", "3"])]
    assert outputs[0][0] == 0
    assert json.loads(outputs[0][1])["result"]["n"] == n
    assert outputs[1:] == outputs[:1] * 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_threads_default_to_two_and_never_exceed_the_usable_cpus(monkeypatch):
    args = cli_mod.build_parser().parse_args(["analyze", "c.json"])
    assert args.threads == 2
    cpus = len(os.sched_getaffinity(0))
    assert [cli_mod._workers(t) for t in (1, 2, 5000)] == [1, min(2, cpus), cpus]
    monkeypatch.delattr(os, "sched_getaffinity")
    assert cli_mod._workers(5000) == os.cpu_count()


# sha256 of the stdout of `command stem.json`, run from the input's
# directory.  A change that only makes the program faster keeps these bytes;
# one that changes them on purpose records the new digests.
def _sqrt2_image(n, seed):
    """random_config(n, seed) read in Q(sqrt 2) and moved by an invertible
    matrix with sqrt 2 entries (determinant 2 sqrt 2 + 5)."""
    field = quadratic_field(2)
    s = field.sqrt_gen()
    embedded = Configuration(field, tuple(
        [field.from_rational(c.coeffs[0]) for c in p.coords]
        for p in random_config(n, seed=seed).points))
    return apply_projective_map(embedded, [[s, 1, 0], [0, s, 1], [1, 0, s + 2]])


PINNED_STDOUT = {
    ("analyze", "random300"): "d5843410d45ed4604e6961f0d69c72ec544ed2cc65b98a196aea723eb9da45dc",
    ("analyze", "grid6"): "9e2aaead56831697f664ff5ccf055a3851b72d9480f56479af5b54cf41a91ef8",
    ("check", "random300"): "71f43bc7173cb35b72d3801808d109cb26e7c38695a62190a86e1b3ca70a2610",
    ("check", "grid6"): "118c828f737b48f02cb249069c46fbd8ce9d0fbe98fce8de8281e60c3a85ab5a",
    ("analyze", "boroczky12"): "e6491bd9c41819d0ed6664d22e489081eedb703428347a5e03d2a6f36fb131e8",
    ("check", "boroczky12"): "2752ea8b6d239fa24f1b872aedbd44516268b0dab64b51b4a958e1670d697be7",
    ("analyze", "cubic6"): "19594cc8283150557f7374a655eee2955ead9810e7e6b64721e05655c4640669",
    ("check", "cubic6"): "c45a30f6d9c4186b883ee7dedfb742782d2df3b8e552a43c0bd70fb3cf85c743",
    ("analyze", "fermat5"): "20dd0483431ae4b84d4ae2523f73f2d0a38c28b531648d6e199b68277c2e6b67",
    ("check", "fermat5"): "b6cd554692daf599c0e8cfac7998080d991cf03d8a0bf946590657883dd6c1f0",
    ("analyze", "sqrt2image40"): "a2fb2f9136f92aa275a2bf9b2c7b9a812fdf49ceb14a47b56790adea4620f56f",
    ("check", "sqrt2image40"): "5dc7bfd8d9c27d99253a9721cf455b709be9b65732965b6bc9017bca0e67ed2d",
}
# The extension-field inputs: each cyclotomic family and a Q(sqrt 2) image.
PINNED_INPUTS = {
    "random300": lambda: random_config(300, seed=11),
    "grid6": lambda: grid(6, 6),
    "boroczky12": lambda: boroczky(12),
    "cubic6": lambda: sylvester_cubic(6),
    "fermat5": lambda: fermat(5),
    "sqrt2image40": lambda: _sqrt2_image(40, seed=13),
}


@pytest.mark.parametrize("command,stem", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(tmp_path, capsys, monkeypatch, command, stem):
    monkeypatch.chdir(tmp_path)
    save_configuration(PINNED_INPUTS[stem](), f"{stem}.json")
    code, out, _ = run(capsys, command, f"{stem}.json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command, stem]


# sha256 of the stdout of `search` runs.  The last local run draws
# coordinates below 2**60, mostly too large for the float affine slopes.
PINNED_SEARCH = {
    ("exhaustive", "--n", "6", "--g", "4", "--cap", "3"):
        "9b0e89b7a8654047d5360a71b41b9dea97d18e2aba7b8df506b49f7c725a058b",
    ("exhaustive", "--n", "6", "--g", "4", "--cap", "3", "--objective", "lines"):
        "124b1e0c8940dfb0903c5090c141906f878e5aecf23b7af43693593df0a41863",
    ("exhaustive", "--n", "6", "--g", "4", "--cap", "3", "--no-prune"):
        "91a775ec96c2f17b7b6a6d936421f0541844e769487d1228b4f6a0b3923a6cd2",
    ("local", "--n", "12", "--cap", "3", "--restarts", "2", "--iterations", "200",
     "--seed", "7"):
        "5b6c10eeca619388d758bb8b3075a35c2cf6e767057e9ba68ca16e7999ee578d",
    ("local", "--n", "12", "--cap", "3", "--restarts", "2", "--iterations", "200",
     "--seed", "7", "--bound", str(2 ** 60)):
        "ab7a18c8dbb5ffc2efd79269f1994d880f091785b9fa38faaba42a682289397a",
}


@pytest.mark.parametrize("argv", sorted(PINNED_SEARCH), ids=" ".join)
def test_search_bytes_are_pinned(capsys, argv):
    code, out, _ = run(capsys, "search", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SEARCH[argv]


def _sqrt2_grid():
    """The nine real points (x : y : 1), x and y in {0, 1, sqrt 2}."""
    field = quadratic_field(2)
    values = (field.zero(), field.one(), field.sqrt_gen())
    one = field.one()
    return Configuration(field, tuple((x, y, one) for x in values for y in values))


# sha256 of the SVG file and of the stdout manifest of
# `render stem.json --out stem.svg`, run from the input's directory.  The
# order of the SVG's lines is the order of spanned_lines.
PINNED_RENDER = {
    "boroczky12": ("d60dbf726790eebc64e599635f820dfa65cc827da68c7923bb50134082285c2a",
                   "02b4e3d67aba7b76d61212216a5f01cac7afe7de765beec79bbcf579cd33765f"),
    "random60": ("399f7ab11df456a04ab68c9908cfd5dd705421e3d25cd763881de289828c789c",
                 "c12daff3570dcf198f4f3b029b1130f4ecc3ce8a36d4097d15a07f1384066b21"),
    "sqrt2grid": ("2d378d04f8e288329cae96ef2b49fbae87008b58e256f8d845be0269843ce91b",
                  "5828cbafce231d1e12ae371116e9aea3424cd7a79800da2e7dfb9532044663ee"),
}
RENDER_INPUTS = {"boroczky12": lambda: boroczky(12),
                 "random60": lambda: random_config(60, seed=0), "sqrt2grid": _sqrt2_grid}


@pytest.mark.parametrize("stem", sorted(PINNED_RENDER))
def test_rendered_svg_bytes_are_pinned(tmp_path, capsys, monkeypatch, stem):
    monkeypatch.chdir(tmp_path)
    save_configuration(RENDER_INPUTS[stem](), f"{stem}.json")
    code, out, _ = run(capsys, "render", f"{stem}.json", "--out", f"{stem}.svg")
    assert code == 0
    digests = tuple(hashlib.sha256(data).hexdigest()
                    for data in ((tmp_path / f"{stem}.svg").read_bytes(), out.encode()))
    assert digests == PINNED_RENDER[stem]


# sha256 of the configuration file `generate --out config.json` writes and of
# its stdout manifest, run from the output's directory, for every family
# name.  The families over Q(zeta_N) take their exact coordinates through
# the field inverse, the norm and the canonical form, so any change there
# that moves a byte shows here.
PINNED_GENERATED = {
    ("boroczky", "--m", "30"):
        ("104f8643dd5afd785e453e25dc49a14a87bf09ad3cbf351b6d772d1f99c372d3",
         "675c09617250309372ba2c5b58735ca6bfa380c6b7210e210fbc15633ba55442"),
    ("sylvester-cubic", "--k", "20"):
        ("0ef4c3684182c5a3e6f9e07eefd049cccbe3f4a7df8a273e52eaa3b16cec637e",
         "e2ae134c9e45d2cd9cfbc2dffab954d8831bb0b121e4a61989813d528708a8eb"),
    ("fermat", "--m", "16"):
        ("56e06cbe1ca8f46cd2280024a369ad3426203f4fbaa0e8b47337cd530421ccfb",
         "31144048bca08405663ad7b9d770b471f52e665585e25bd66c9757cc588e0f1a"),
    ("grid", "--a", "4", "--b", "3"):
        ("2e799bce2434bd4eacfecad168e19ed1f1881d0bd9175fcee3e5fe435fdadaed",
         "4619ae85e1f1423c3dfc0d70f93841da70622a7dc2ef7240e56989b2303d780f"),
    ("near-pencil", "--n", "7"):
        ("de8ce387a2bf9a91dff1e35a96af9f6ed1a744548c1ceebc037ec8c5c7d13f37",
         "798ced48513520bf4522ce9fad4e2886753b498bb25c0ce15f84d7ee1dd54387"),
    ("random", "--n", "20", "--seed", "3"):
        ("623054283dff3233ab6d8b65155a018dab4e7935419084a621f4254db57c23bd",
         "89468c252e324885f7467d163dcf001d97c77fd86d64e9ca1c7c0abf0873f5d8"),
    ("random", "--n", "20", "--seed", "3", "--bound", "9"):
        ("079b3ada90545736cf5258cfab37a633a237890b8c5a395ccdcf634478b2d3bb",
         "18608f4319beb8bb4614f159bef51e58092639c6af5b198c70b61c2265672b53"),
    ("two-lines", "--m", "5"):
        ("c296250080374920ca058998858784c81e3eb9fb1ff8b31f26e0befa58a76951",
         "31a66181df35ac02bdb7851463d4547c83a046bb29ad29abd954b41263c1b04b"),
}


@pytest.mark.parametrize("argv", sorted(PINNED_GENERATED), ids=" ".join)
def test_generated_bytes_are_pinned(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "generate", *argv, "--out", "config.json")
    assert code == 0
    digests = tuple(hashlib.sha256(data).hexdigest()
                    for data in ((tmp_path / "config.json").read_bytes(), out.encode()))
    assert digests == PINNED_GENERATED[argv]


def test_analyze_rejects_bad_thread_count(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    code, _, err = run(capsys, "analyze", str(path), "--threads", "0")
    assert code == 1


def test_analyze_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/config.json")
    assert code == 1
    assert "error:" in err


def test_analyze_duplicate_points_rejected(tmp_path, capsys):
    bad = tmp_path / "dupe.json"
    bad.write_text(json.dumps({
        "field": {"kind": "rational"},
        "points": [["1", "0", "1"], ["2", "0", "2"]],
    }))
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 1


@pytest.mark.parametrize("field", [
    {"kind": "rational", "d": 2},
    {"kind": "quadratic", "d": 2, "N": 7},
    {"kind": "cyclotomic", "N": 5, "d": 2},
], ids=str)
def test_check_rejects_a_field_parameter_of_another_kind(tmp_path, capsys, field):
    bad = tmp_path / "field.json"
    bad.write_text(json.dumps({"field": field, "points": [["1", "0", "1"]]}))
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1 and out == ""
    assert "bad field descriptor" in err


# --- check ---


def test_check_all_reports(tmp_path, capsys):
    path = gen(tmp_path, capsys, "boroczky", "--m", "5")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    manifest = json.loads(out)
    result = manifest["result"]
    assert manifest["arguments"]["which"] == "all"
    assert len(result["reports"]) == 35
    assert result["violations"] == []
    assert result["exit_code"] == 0


def test_check_single_name(tmp_path, capsys):
    path = gen(tmp_path, capsys, "boroczky", "--m", "5")
    code, out, _ = run(capsys, "check", str(path), "melchior")
    assert code == 0
    reports = json.loads(out)["result"]["reports"]
    assert [r["name"] for r in reports] == ["melchior"]


def test_check_group_prefix(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "3", "--b", "3")
    code, out, _ = run(capsys, "check", str(path), "basic")
    assert code == 0
    reports = json.loads(out)["result"]["reports"]
    assert {r["name"] for r in reports} == {
        "basic_line_count", "basic_incidences", "basic_pair_count",
    }


def test_check_refuses_the_all_flag(tmp_path, capsys):
    # every check is the default of the positional `which`
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    code, out, err = run(capsys, "check", str(path), "melchior", "--all")
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --all\n"


def test_check_unknown_name(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    code, _, err = run(capsys, "check", str(path), "mystery")
    assert code == 1
    assert "error:" in err


def test_check_csv(tmp_path, capsys):
    path = gen(tmp_path, capsys, "grid", "--a", "3", "--b", "3")
    code, out, _ = run(capsys, "check", str(path), "--format", "csv")
    assert code == 0
    assert out.startswith("name,kind,applicable,satisfied,tight,")


def test_check_exit_two_on_violated_proof(tmp_path, capsys, monkeypatch):
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    broken = InequalityReport(
        name="synthetic", kind="theorem", applicable=True,
        applicability_reason="", relation=">=", lhs=Fraction(0),
        rhs=Fraction(1), slack=Fraction(-1), satisfied=False,
        tight=False, strict=False,
    )
    monkeypatch.setattr(inequalities_mod, "run_checks", lambda *a, **k: [broken])
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2
    result = json.loads(out)["result"]
    assert result["violations"] == ["synthetic"]
    assert result["exit_code"] == 2


@pytest.mark.parametrize("rows", [
    # (i, lines in row i, listed groups of two or more later points):
    # every pair once, but one group of three and none of two: l_3 = -1
    [(0, 1, [[1, 2, 3]]), (1, 2, []), (2, 1, [])],
    # l_2 = 1 is consistent, but 5 of the 6 point pairs are missing
    [(0, 1, [])],
    # l_2 = 6 covers every pair, but row 2 lists a lone point as a group,
    # so the degrees sum to 11, not 12
    [(0, 3, []), (1, 2, []), (2, 1, [[3]])],
])
def test_broken_line_grouping_exits_three(tmp_path, capsys, monkeypatch, rows):
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    monkeypatch.setattr(projective_mod, "_screened_rows", lambda *a: iter(rows))
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_failed_worker_exits_three_and_leaves_no_process(tmp_path, capsys, monkeypatch):
    path = gen(tmp_path, capsys, "grid", "--a", "4", "--b", "4")
    kernel = projective_mod._screened_rows

    def screened_rows(items, exact_key, screen, stripe):
        if stripe.start == 1:
            raise KeyError("worker stripe")
        return kernel(items, exact_key, screen, stripe)

    monkeypatch.setattr(projective_mod, "_FORK_FLOOR", 0)
    monkeypatch.setattr(projective_mod, "_screened_rows", screened_rows)
    # two stripes even on a host with one usable CPU
    monkeypatch.setattr(cli_mod, "_workers", lambda threads: threads)
    code, out, err = run(capsys, "analyze", str(path), "--threads", "2")
    assert (code, out) == (3, "")
    assert "counting worker failed" in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# --- search ---


def test_search_exhaustive_manifest(capsys):
    code, out, _ = run(capsys, "search", "exhaustive", "--n", "4", "--g", "3",
                       "--cap", "2")
    assert code == 0
    manifest = json.loads(out)
    assert manifest["arguments"] == {
        "mode": "exhaustive", "n": 4, "g": 3, "cap": 2,
        "objective": "incidences", "prune": True,
    }
    record = manifest["result"]["record"]
    assert record["best_value"] == 12
    ref = manifest["result"]["conjecture_reference"]
    assert ref["threshold"] == "3/8"
    assert ref["at_or_above"] is True
    assert ref["max_collinear"] <= 2


def test_search_local_with_checkpoint(tmp_path, capsys):
    ckpt = tmp_path / "s.ckpt"
    code, out, _ = run(capsys, "search", "local", "--n", "8", "--cap", "8",
                       "--iterations", "50", "--restarts", "1",
                       "--checkpoint", str(ckpt))
    assert code == 0
    assert ckpt.exists()
    record = json.loads(out)["result"]["record"]
    assert record["method"] == "local"


def test_search_local_malformed_checkpoint_exits_one(tmp_path, capsys):
    # a checkpoint that is no JSON object, or one without a fingerprint, is
    # bad input named in the message, not a traceback
    files = {
        "list.ckpt": ([], "{} is not a search checkpoint"),
        "string.ckpt": ("x", "{} is not a search checkpoint"),
        "bare.ckpt": ({"kind": "local-search-checkpoint"},
                      "checkpoint {} was produced by a different search"),
    }
    for name, (data, message) in files.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, "search", "local", "--n", "8", "--cap", "8",
                             "--iterations", "10", "--restarts", "1",
                             "--checkpoint", str(path))
        assert (code, out) == (1, ""), name
        assert err == "error: " + message.format(path) + "\n", name

    # so is a checkpoint of the right search with a malformed field: each
    # message names the file and the field
    argv = ("search", "local", "--n", "8", "--cap", "8", "--iterations", "10",
            "--restarts", "2", "--checkpoint")
    good = tmp_path / "good.ckpt"
    assert run(capsys, *argv, str(good))[0] == 0
    valid = json.loads(good.read_text())
    fields = {
        "history-int": ({"history": 5}, "history"),
        "restarts-string": ({"completed_restarts": "x"}, "completed_restarts"),
        "restarts-range": ({"completed_restarts": 9}, "completed_restarts"),
        "best-list": ({"best": []}, "best"),
        "restarts-missing": ({"completed_restarts": None}, "completed_restarts"),
        "history-fraction": ({"history": [[1, "x/y"]]}, "history"),
        "best-one-point": ({"best": {"points": [[0, 1]], "value": 3}}, "best.points"),
        "best-value": ({"best": {**valid["best"], "value": valid["best"]["value"] - 1}},
                       "best.value"),
        "best-repeated": ({"best": {**valid["best"], "points": valid["best"]["points"][:7]
                                    + valid["best"]["points"][:1]}}, "best.points"),
        "history-zero": ({"history": [[0, "1/2"]]}, "history"),
        "history-late": ({"history": [[2 * (10 + 1) + 1, "1/2"]]}, "history"),
    }
    for name, (change, field) in fields.items():
        data = {**valid, **change}
        if data["completed_restarts"] is None:
            del data["completed_restarts"]
        path = tmp_path / f"{name}.ckpt"
        path.write_text(json.dumps(data))
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (1, ""), name
        assert err.startswith(f"error: checkpoint {path}: {field} must be "), name
    path = tmp_path / "not-json.ckpt"
    path.write_text("not json")
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: checkpoint {path} is not valid JSON: ")


def test_search_validation(capsys):
    assert run(capsys, "search", "exhaustive", "--n", "4", "--g", "3")[0] == 1
    assert run(capsys, "search", "exhaustive", "--n", "4", "--cap", "2")[0] == 1
    assert run(capsys, "search", "local", "--n", "8", "--cap", "8",
               "--format", "csv")[0] == 1


# --- render ---


def test_render_writes_svg(tmp_path, capsys):
    path = gen(tmp_path, capsys, "boroczky", "--m", "4")
    dest = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "render", str(path), "--out", str(dest))
    assert code == 0
    manifest = json.loads(out)
    assert manifest["result"] == {"path": str(dest), "points": 8, "lines": 11}
    svg = dest.read_text()
    assert svg.startswith("<svg ")
    assert (svg.count("<circle"), svg.count("<line")) == (8, 11)


def test_render_requires_out(tmp_path, capsys):
    path = gen(tmp_path, capsys, "boroczky", "--m", "4")
    assert run(capsys, "render", str(path))[0] == 1


def test_render_refuses_non_real_input(tmp_path, capsys):
    path = gen(tmp_path, capsys, "fermat", "--m", "3")
    dest = tmp_path / "fig.svg"
    code, _, err = run(capsys, "render", str(path), "--out", str(dest))
    assert code == 1
    assert not dest.exists()


# --- top level ---


def test_no_subcommand_is_an_error(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand" in err


def test_unknown_subcommand_is_an_error(capsys):
    assert run(capsys, "frobnicate")[0] == 1


def test_key_error_from_a_handler_propagates(tmp_path, capsys, monkeypatch):
    # no input path raises KeyError, so one is a bug and must not pass as
    # bad input with exit code 1
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli_mod, "_cmd_analyze", broken)
    path = gen(tmp_path, capsys, "grid", "--a", "2", "--b", "2")
    with pytest.raises(KeyError, match="bug"):
        main(["analyze", str(path)])


def _child_env(**extra):
    """The environment of a `python -m linespectra` child: it imports the
    package under test, installed or not, with Python's default stdio
    buffering."""
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_module_entry_point(tmp_path):
    env = _child_env()
    path = tmp_path / "c.json"
    proc = subprocess.run(
        [sys.executable, "-m", "linespectra", "generate", "grid",
         "--a", "2", "--b", "2", "--out", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "generate"
    proc = subprocess.run(
        [sys.executable, "-m", "linespectra", "check", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_check_into_a_closed_pipe_exits_1_with_one_error_line(tmp_path, fmt):
    # the JSON document outgrows stdout's buffer and fails in main's write;
    # the CSV one fits it, and only entry()'s flush meets the closed pipe
    path = tmp_path / "c.json"
    save_configuration(boroczky(12), str(path))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linespectra", "check", str(path), "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_check_out_writes_the_whole_document_and_nothing_to_stdout(tmp_path):
    path, out = tmp_path / "c.json", tmp_path / "out.json"
    save_configuration(boroczky(12), str(path))
    argv = [sys.executable, "-m", "linespectra", "check", str(path)]
    full = subprocess.run(argv, capture_output=True, text=True, env=_child_env())
    proc = subprocess.run([*argv, "--out", str(out)], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == full.returncode == 0
    assert proc.stdout == proc.stderr == ""
    assert out.read_text(encoding="utf-8") == full.stdout


def test_every_command_opens_text_files_as_utf8(tmp_path):
    # EncodingWarning flags each file opened in the locale's encoding, and
    # -W error makes it fail the child; the second local search reads the
    # checkpoint the first one wrote
    def child(*argv, flags=("-X", "warn_default_encoding", "-W", "error::EncodingWarning"),
              **extra):
        proc = subprocess.run([sys.executable, *flags, "-m", "linespectra", *argv],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=_child_env(**extra))
        assert proc.returncode == 0, (argv, proc.stderr)
        return proc

    child("generate", "grid", "--a", "3", "--b", "3", "--out", "g.json")
    child("analyze", "g.json", "--out", "a.json")
    child("check", "g.json", "--out", "c.json")
    child("render", "g.json", "--out", "g.svg")
    search = ("search", "local", "--n", "6", "--cap", "3", "--iterations", "20",
              "--restarts", "1", "--checkpoint", "ck.json", "--out")
    child(*search, "s1.json")
    child(*search, "s2.json")
    assert (tmp_path / "s1.json").read_bytes() == (tmp_path / "s2.json").read_bytes()
    # a UTF-8 label reads back under an ASCII locale
    label = "B\u00f6r\u00f6czky \u03b6"
    (tmp_path / "u.json").write_text(json.dumps(
        {"field": {"kind": "rational"}, "label": label,
         "points": [[1, 0, 1], [0, 1, 1], [1, 1, 1]]}, ensure_ascii=False), encoding="utf-8")
    proc = child("check", "u.json", flags=("-X", "utf8=0"),
                 LC_ALL="C", PYTHONCOERCECLOCALE="0")
    assert json.loads(proc.stdout)["result"]["label"] == label


# Runs `python -m linespectra ARGV` in the child and prints the sorted names
# in sys.modules to stderr once the command has returned.
_MODULES_PROBE = """
import os, runpy, sys
def _exit(code):
    raise SystemExit(code)
os._exit = _exit  # entry() ends in os._exit, which would skip the print below
sys.argv = ["linespectra", *sys.argv[1:]]
try:
    runpy.run_module("linespectra", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(code, *sorted(sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_check_and_analyze_load_only_what_they_run(tmp_path, command):
    # the import graph is a contract: search, render, constructions and the
    # heavy standard modules stay out of a check or analyze child
    save_configuration(boroczky(4), str(tmp_path / "c.json"))
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_PROBE, command, str(tmp_path / "c.json")],
        capture_output=True, text=True, env=_child_env(),
    )
    code, *modules = proc.stderr.split()
    assert code == "0"
    assert json.loads(proc.stdout)["command"] == command
    runs = {"linespectra", "linespectra.cli", "linespectra.serialization",
            "linespectra.fields", "linespectra.projective"}
    if command == "check":
        runs.add("linespectra.inequalities")
    assert {m for m in modules if m.startswith("linespectra")} == runs
    for name in ("linespectra.search", "linespectra.render", "linespectra.constructions",
                 "dataclasses", "inspect", "csv",
                 "multiprocessing", "concurrent.futures", "signal"):
        assert name not in modules
