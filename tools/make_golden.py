"""Write ``tests/data/golden/``, the command-line outputs that ``tests/test_golden.py`` checks.

Each argv of ``ARGVS`` runs in process through ``lpevac.cli.main`` with ``COLUMNS=80`` (argparse
wraps usage lines as on a pipe).  Each non-empty stdout and stderr goes raw to a file, and
``manifest.json`` maps each argv to its exit status and files and records the host.  The one-entry
caches carry state between argv, so nothing is written unless a backward run equals the forward one.
"""
import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lpevac import cli  # noqa: E402

OUT = ROOT / "tests" / "data" / "golden"
# 1e15 takes the speed's log-space path at the chart's rounded fold
P_VALUES = ("1", "1.001", "1.5", "2", "3", "10", "45", "1e4", "1e15", "1e17", "1e200", "inf")
PER_P = ("verify {p} --grid 256", "params {p}", "simulate {p} pi/4 pi", "lchord {p}", "sigma {p}",
         "sigma {p} --format json")
# pi 1 2 reads pi_p where the speed grows like z^(p (p - 1)) from z = 0
TABLES = ("cost 1 45 --steps 17", "pi 1 1000 --steps 33", "pi 1 2 --steps 33", "profile 1.5 --steps 9")
# At p = 1.1875 the rounded fold takes the speed's log space at lg = 0; simulate reduces exit
# angles below 0 and above 2 pi; sigma's arc of 1e-300 straddles the x axis at theta = 0, where
# its two ends are mirror points.  The last six are usage errors, the last two found by argparse.
EDGES = (
    "verify 1.5 2 inf --grid 64", "verify 3 --grid 512", "verify 45 --grid 1100", "sigma 2 --steps 1",
    "lchord 2 --steps 1", "cost 1 1 --steps 1", "profile 1.5 --phi pi/8 --steps 6", "verify 1.1875 --grid 64",
    "params 1.1875", "simulate 2 0 -- -pi/4", "simulate 1.5 pi/8 7pi/3", "sigma 2 --arc-len 1e-300 --steps 3",
    "pi 3 1", "verify 2 --grid 63", "sigma 2 --arc-len 0", "profile 2 --phi=-1e-13 --steps 2",
    "simulate 2 0 nan", "pi 2 3 --steps 100001",
)
ARGVS = [command.format(p=p).split() for command in PER_P for p in P_VALUES]
ARGVS += [f"{command} --format {fmt}".split() for command in TABLES for fmt in ("csv", "json")]
ARGVS += [command.split() for command in EDGES]
# the parser's own text, which exits 0 through SystemExit
ARGVS += [["--version"], ["--help"]] + [[command, "--help"] for command in dict.fromkeys(a[0] for a in ARGVS)]


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    os.environ["COLUMNS"] = "80"
    forward = [run(argv) for argv in ARGVS]
    if forward != [run(argv) for argv in reversed(ARGVS)][::-1]:
        sys.exit("error: the outputs depend on the order of the runs; nothing written")
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        stale.unlink()
    runs = []
    for argv, (code, *streams) in zip(ARGVS, forward):
        runs.append({"argv": argv, "exit": code, "stdout": None, "stderr": None})
        for name, text in zip(("stdout", "stderr"), streams):
            if text:
                runs[-1][name] = "_".join(argv).replace("/", "_") + "." + name
                (OUT / runs[-1][name]).write_bytes(text.encode())
    host = {"python": sys.version, "libc": platform.libc_ver(), "machine": platform.machine()}
    lines = ",\n  ".join(json.dumps(entry) for entry in runs)  # one line per argv
    (OUT / "manifest.json").write_text(f'{{"host": {json.dumps(host)},\n "runs": [\n  {lines}\n ]}}\n')


if __name__ == "__main__":
    main()
