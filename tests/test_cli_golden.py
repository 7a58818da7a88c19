"""Byte-for-byte golden test of the command-line interface.

Every subcommand runs in every format it accepts, plus an exit-1 padic
point, an exit-2 usage error, an imprimitive-character note and one
``--out FILE`` run.  Each case checks the exit code, stderr and the exact
bytes of stdout; the expected stdout of case ``name`` is
``tests/golden/<name>.out``, read as bytes (padic text and csv end their
table lines in ``\\r\\n``, as ``csv.writer`` writes them).

Regenerate the expected files only when an output change is intended:
``PYTHONPATH=src python tests/test_cli_golden.py --write``.
"""

import sys
from pathlib import Path

import pytest

from twistbern.cli import main

GOLDEN = Path(__file__).with_name("golden")

_CHARS = ["chars", "--d", "5"]
_BERNOULLI = ["bernoulli", "--d", "4", "--char", "1", "--xi-order", "4",
              "--n", "6"]
_VERIFY = ["verify", "--theorem", "all", "--d", "4", "--char", "1",
           "--xi-order", "4", "--w", "1,2,3", "--n", "3"]
_GRID = ["grid", "--d", "1,3,4", "--chars", "primitive", "--xi-orders", "1,2",
         "--w", "1,2,3", "--n", "3", "--trunc", "3"]
_PADIC = ["padic", "--p", "3", "--s", "1", "--d", "3", "--char", "1",
          "--k", "2", "--n-max", "5"]

#: name -> (argv, exit code, stderr)
CASES = {
    **{f"{base[0]}.{fmt}": (base + ["--format", fmt], 0, "")
       for base in (_CHARS, _BERNOULLI, _VERIFY, _GRID, _PADIC)
       for fmt in ("text", "json", "csv")},
    "padic.fail": (["padic", "--p", "2", "--s", "3", "--d", "3", "--char", "1",
                    "--k", "1", "--n-max", "4"], 1, ""),
    "padic.imprimitive": (["padic", "--p", "3", "--s", "1", "--d", "3",
                           "--char", "0", "--k", "2", "--n-max", "3"], 0,
                          "note: character #0 mod 3 is imprimitive "
                          "(conductor 1)\n"),
    "verify.bad-theorem": (["verify", "--theorem", "9"], 2,
                           "error: theorem id must be 1..8 or 'all'\n"),
}


def _run(argv, capsys):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes(name, capsys):
    argv, code, err = CASES[name]
    expected = (GOLDEN / f"{name}.out").read_bytes().decode()
    assert _run(argv, capsys) == (code, expected, err)


def test_out_file_gets_the_bytes_stdout_would(tmp_path, capsys):
    target = tmp_path / "verify.csv"
    argv, code, err = CASES["verify.csv"]
    assert _run(argv + ["--out", str(target)], capsys) == (code, "", err)
    assert target.read_bytes() == (GOLDEN / "verify.csv.out").read_bytes()


def _write():
    import contextlib
    import io
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, _, _) in sorted(CASES.items()):
        buf = io.StringIO(newline="")
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            main(list(argv))
        (GOLDEN / f"{name}.out").write_bytes(buf.getvalue().encode())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    _write()
