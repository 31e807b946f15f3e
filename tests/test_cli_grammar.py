"""The command-line grammar: argv -> parsed fields, usage errors and help.

The parity table pins what every command parses to: ``=`` values, option
abbreviations, ``--``, option order, the trailing ``args`` of ``catalan``
and ``elliptic``, and flag > FIBL_* variable > default.
"""

import re

import pytest

from fibl import cli
from fibl.report import DEFAULT_SEED

COMMON = {"seed": DEFAULT_SEED, "samples": 20, "tol": None, "cap": None, "max": None,
          "format": "text", "out": None, "precision": "double"}
OWN = {"fibonomial": {"eval_q1": False}, "enumerate": {"count_only": False},
       "verify": {}, "catalan": {}, "elliptic": {"a": None, "b": None, "q": None, "p": None},
       "spiral": {}}
OPTIONS = {command: ["--help", *("--" + name for name in COMMON),
                     *("--" + name.replace("_", "-") for name in own)]
           for command, own in OWN.items()}


def fields(command, **values):
    return {"command": command, **COMMON, **OWN[command], **values}


PARITY = [
    ("fibonomial 2 2", fields("fibonomial", m=2, n=2)),
    ("fibonomial 5 5 --eval-q1", fields("fibonomial", m=5, n=5, eval_q1=True)),
    ("fibonomial 5 5 --eval", fields("fibonomial", m=5, n=5, eval_q1=True)),
    ("fibonomial -1 2", fields("fibonomial", m=-1, n=2)),
    ("fibonomial --seed 3 2 2", fields("fibonomial", seed=3, m=2, n=2)),
    ("fibonomial 2 --seed=3 2", fields("fibonomial", seed=3, m=2, n=2)),
    ("fibonomial 2 2 --seed 3 --seed -4", fields("fibonomial", seed=-4, m=2, n=2)),
    ("fibonomial -- 2 2", fields("fibonomial", m=2, n=2)),
    ("fibonomial 2 2 --out -", fields("fibonomial", m=2, n=2, out="-")),
    ("fibonomial 4 3 --cap 100 --format=json", fields("fibonomial", m=4, n=3, cap=100,
                                                      format="json")),
    ("enumerate rect 4 4 --count-only", fields("enumerate", model="rect", a=4, b=4,
                                               count_only=True)),
    ("enumerate --count staircase 4 2", fields("enumerate", model="staircase", a=4, b=2,
                                               count_only=True)),
    ("verify theta --samp 2", fields("verify", suite="theta", samples=2)),
    ("verify theta --samples=2 --se 9 --tol 1e-9",
     fields("verify", suite="theta", samples=2, seed=9, tol=1e-9)),
    ("verify --precision ext:128 theta", fields("verify", suite="theta", precision="ext:128")),
    ("verify q-all --max 4 --form json --o r.json",
     fields("verify", suite="q-all", max=4, format="json", out="r.json")),
    ("catalan coxeter F4 2 --format json", fields("catalan", what="coxeter", args=["F4", "2"],
                                                  format="json")),
    ("catalan --format json coxeter F4 2", fields("catalan", what="coxeter", args=["F4", "2"],
                                                  format="json")),
    ("catalan coxeter --format json F4 2", fields("catalan", what="coxeter", args=["F4", "2"],
                                                  format="json")),
    ("catalan coxeter F4 --format=json 2", fields("catalan", what="coxeter", args=["F4", "2"],
                                                  format="json")),
    ("catalan sweep --max 13 --format csv", fields("catalan", what="sweep", args=[], max=13,
                                                   format="csv")),
    ("catalan rational 3 2", fields("catalan", what="rational", args=["3", "2"])),
    ("elliptic number 3", fields("elliptic", what="number", args=["3"])),
    ("elliptic number 3 --p 0.1", fields("elliptic", what="number", args=["3"], p=0.1 + 0j)),
    ("elliptic number 3 --pr ext:128", fields("elliptic", what="number", args=["3"],
                                              precision="ext:128")),
    ("elliptic number 3 --q=-0.5+0.1j", fields("elliptic", what="number", args=["3"],
                                               q=-0.5 + 0.1j)),
    ("elliptic fibonomial 2 2 --a 1+2j --b=0.5", fields("elliptic", what="fibonomial",
                                                        args=["2", "2"], a=1 + 2j, b=0.5 + 0j)),
    ("elliptic theta -- -0.5", fields("elliptic", what="theta", args=["-0.5"])),
    ("elliptic theta -0.5", fields("elliptic", what="theta", args=["-0.5"])),
    ("elliptic theta -0.5+0.1j", fields("elliptic", what="theta", args=["-0.5+0.1j"])),
    ("elliptic theta -inf", fields("elliptic", what="theta", args=["-inf"])),
    ("elliptic number 3 --q -0.5+0.1j --p -1e-1j",
     fields("elliptic", what="number", args=["3"], q=-0.5 + 0.1j, p=-0.1j)),
    ("spiral 7", fields("spiral", m=7)),
    ("spiral --cap 3 7", fields("spiral", m=7, cap=3)),
]


@pytest.mark.parametrize("argv, want", PARITY, ids=[argv for argv, _ in PARITY])
def test_parsed_fields(argv, want):
    assert vars(cli.parse_args(argv.split())) == want


USAGE_ERRORS = [
    ("", "the following arguments are required: command"),
    ("bogus 2 2", "invalid choice: 'bogus'"),
    ("--seed 3 fibonomial 2 2", "invalid choice: "),
    ("verify theta --s 2", "ambiguous option: --s could match --seed, --samples"),
    ("fibonomial 2", "the following arguments are required: n"),
    ("fibonomial 2 2 3", "unrecognized arguments: 3"),
    ("fibonomial 2 2 -x", "unrecognized arguments: -x"),
    ("fibonomial 2 2 --bogus", "unrecognized arguments: --bogus"),
    ("fibonomial 2 2 -- --seed", "unrecognized arguments: --seed"),
    ("fibonomial x 2", "argument m: invalid int value: 'x'"),
    ("fibonomial 2 2 --seed x", "argument --seed: invalid int value: 'x'"),
    ("fibonomial 2 2 --eval-q1=1", "argument --eval-q1: ignored explicit argument '1'"),
    ("fibonomial 2 2 --format xml", "argument --format: invalid choice: 'xml'"),
    ("fibonomial 2 2 --max 0", "--max and FIBL_MAX take an integer >= 1, got '0'"),
    ("fibonomial 2 2 --cap", "argument --cap: expected one argument"),
    ("fibonomial 2 2 --out --format json", "argument --out: expected one argument"),
    ("enumerate hex 2 2", "argument model: invalid choice: 'hex'"),
    ("verify nothing", "argument suite: invalid choice: 'nothing'"),
    ("catalan bogus", "argument what: invalid choice: 'bogus'"),
    ("elliptic number 3 --a 1 --b", "argument --b: expected one argument"),
    ("elliptic number 3 --q x", "argument --q: invalid complex value: 'x'"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS, ids=[argv for argv, _ in USAGE_ERRORS])
def test_usage_error(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fibl")
    assert "error: " in err and message in err


def test_negative_m_is_a_usage_error_of_the_command(capsys):
    assert cli.main(["fibonomial", "-1", "2"]) == 2
    assert capsys.readouterr() == ("", "error: m and n must be >= 0\n")


@pytest.mark.parametrize("name, env, flag, env_value, flag_value", [
    ("seed", "99", "7", 99, 7),
    ("samples", "5", "6", 5, 6),
    ("tol", "1e-9", "1e-8", 1e-9, 1e-8),
    ("cap", "50", "60", 50, 60),
    ("max", "4", "5", 4, 5),
    ("format", "json", "csv", "json", "csv"),
    ("out", "a.json", "b.json", "a.json", "b.json"),
    ("precision", "ext:128", "ext:64", "ext:128", "ext:64"),
])
def test_flag_beats_variable_beats_default(monkeypatch, name, env, flag, env_value, flag_value):
    argv = ["verify", "theta"]
    assert getattr(cli.parse_args(argv), name) == COMMON[name]
    monkeypatch.setenv("FIBL_" + name.upper(), env)
    assert getattr(cli.parse_args(argv), name) == env_value
    assert getattr(cli.parse_args([*argv, "--" + name, flag]), name) == flag_value
    assert getattr(cli.parse_args([*argv, f"--{name}={flag}"]), name) == flag_value


def test_top_level_help_lists_every_command(capsys):
    for argv in (["--help"], ["-h"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith("usage: fibl")
        for command in OWN:
            assert command in out


@pytest.mark.parametrize("command", list(OWN))
def test_command_help_lists_every_option(capsys, command):
    table = (*cli._COMMON, *cli._COMMANDS[command][2])
    assert ["--help", *("--" + option[0] for option in table)] == OPTIONS[command]
    for argv in ([command, "--help"], [command, "-h"], [command, "--he"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == "" and out.startswith(f"usage: fibl {command}")
        for option in OPTIONS[command]:
            assert re.search(rf"(?<![\w-]){option}(?![\w-])", out), option
