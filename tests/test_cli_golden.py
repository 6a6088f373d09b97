"""Golden-file gate: the stdout bytes of a fixed set of CLI invocations.

Every subcommand, integral and non-integral unit-ranks, CSV output, a
width refusal (eps below what rounding leaves at u = -0.99), two requests
refused while the series were summed by level (entropy and direct KL at
u = -0.999) and two entropy requests refused while the level statistics
were enumerated run in-process through ``cli.main``; their exit codes and stdout must match
``golden/cli_stdout.txt`` byte for byte.  A refactor that claims unchanged
output must pass this test without touching the golden file.

To rewrite the golden file after an intended output change, run

    PYTHONPATH=src python tests/test_cli_golden.py --write

and review the diff.
"""

import contextlib
import io
import pathlib
import sys

from clentropy import cli

GOLDEN = pathlib.Path(__file__).with_name("golden") / "cli_stdout.txt"

COMMANDS = (
    "entropy --p 2 --u 1 --eps 1e-6",
    "entropy --p 3 --u 0.5 --eps 1e-6",
    "entropy --p 5 --u -0.5 --eps 1e-4",
    "entropy --p 3,5 --u 0,2 --eps 1e-4 --format csv",
    "entropy --p 2 --u -0.5 --eps 1e-3",
    "entropy --p 2 --u 0 --eps 1e-10",
    "entropy --p 2 --u -0.999 --eps 1e-6",
    "entropy --p 2 --u -0.99 --eps 1e-12",
    "kl --p 3 --u1 1 --u2 2",
    "kl --p 3 --u1 0.5 --u2 -0.25",
    "kl --p 2 --u1 1.5 --u2 0.5 --mode direct",
    "kl --p 5 --u1 0 --u2 1 --format csv",
    "kl --p 2 --u1 -0.999 --u2 0 --mode direct",
    "table --p 2 --u 1 --max-order-exponent 4",
    "table --p 3 --u 0.5 --max-order-exponent 3 --format csv",
    "zeta --p 2 --k 3 --s 0",
    "zeta --p 3 --k 2 --s 0.5",
    "zeta --p 2 --k inf --s 1 --mode product",
    "verify --suite all --n-max 4",
)


def transcript() -> str:
    """Each command line, its exit code and its stdout, in order."""
    chunks = []
    for command in COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(command.split())
        chunks.append(f"$ cl-entropy {command}\n# exit {code}\n{out.getvalue()}")
    return "".join(chunks)


def test_cli_stdout_matches_golden_file():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    GOLDEN.write_text(transcript())
