"""Each argv of ``tests/data/golden/manifest.json``, written by ``tools/make_golden.py``, prints
its recorded exit status, stdout and stderr byte for byte.  Floats are printed in full, so a
mismatch on another host than the recorded one is a portability finding; nothing is rounded.  Each
recorded stdout but the parser's own text also reads as the CSV or RFC 8259 JSON it promises."""
import argparse
import json
import platform
import sys
from pathlib import Path

import pytest

from lpevac.cli import build_parser, main
from test_cli import _read_table, _reject_constant

GOLDEN = Path(__file__).parent / "data" / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
STREAMS = ("stdout", "stderr")
HOST = {"python": sys.version, "libc": list(platform.libc_ver()), "machine": platform.machine()}
PARSER_TEXT = {"--version", "--help"}
DOCUMENTS = ("verify", "simulate", "params")  # each writes one JSON document; the others write tables


def test_argvs_reach_every_subcommand_format_and_exit_status():
    argvs = [run["argv"] for run in MANIFEST["runs"]]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert {argv[0] for argv in argvs} == set(sub.choices) | PARSER_TEXT
    assert len(argvs) == len({tuple(argv) for argv in argvs}) == 108
    assert {argv[i + 1] for argv in argvs for i, a in enumerate(argv) if a == "--format"} == {"csv", "json"}
    assert {run["exit"] for run in MANIFEST["runs"]} == {0, 2}


@pytest.mark.parametrize("run", MANIFEST["runs"], ids=lambda run: " ".join(run["argv"]))
def test_output_is_golden(run, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
    try:
        code = main(run["argv"])
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, err = capsys.readouterr()
    recorded = [b"%d" % run["exit"]] + [(GOLDEN / run[s]).read_bytes() if run[s] else b"" for s in STREAMS]
    current = [b"%d" % code, out.encode(), err.encode()]
    for name, want, got in zip(("exit status",) + STREAMS, recorded, current):
        if got != want:
            pairs = enumerate(zip(want.splitlines(True) + [b"<end>"], got.splitlines(True) + [b"<end>"]), 1)
            line, old, new = next((i, a, b) for i, (a, b) in pairs if a != b)
            pytest.fail(f"lpevac {' '.join(run['argv'])}: {name} differs at line {line}: recorded {old!r},"
                        f" now {new!r}; recorded on {MANIFEST['host']}, run on {HOST}")


@pytest.mark.parametrize(
    "run",
    [run for run in MANIFEST["runs"] if run["stdout"] and not PARSER_TEXT & set(run["argv"])],
    ids=lambda run: " ".join(run["argv"]),
)
def test_stdout_holds_its_format(run):
    text = (GOLDEN / run["stdout"]).read_bytes().decode()
    if run["argv"][0] in DOCUMENTS:
        json.loads(text, parse_constant=_reject_constant)
    else:
        _read_table(text, "json" if "json" in run["argv"] else "csv")
