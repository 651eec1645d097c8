#!/usr/bin/env python3
"""Digest of the CLI's output on a fixed battery of commands.

Runs every command of the battery below in this process, through
`dstfid.cli.main`, and writes CSV `command,exit,stdout_sha256,stderr_sha256`
to stdout: one line per command, with its exit code (the type name of an
exception that escaped main) and the SHA-256 of what it wrote to stdout and
to stderr.  The battery's files live in a temporary directory, written `TMP`
in the commands and in their output before hashing.  OPENBLAS_NUM_THREADS
defaults to 1, so the oracle's columns do not depend on the core count.

Two trees of the package answer the battery alike where their digests
match; compare them with

    PYTHONPATH=src python scripts/output_digest.py > new.csv
    PYTHONPATH=/other/tree/src python scripts/output_digest.py > old.csv
    diff old.csv new.csv
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from dstfid import cli  # noqa: E402  (after the variable: numpy reads it at import)
from dstfid.golden import default_golden_path  # noqa: E402

# the README's worked pair
PAIR = "--k1 0.3 --r1 0.2 --nbar1 0.5 --k2 0.1+0.2i --r2 0.5 --nbar2 1.0"
# the benchmark's sweep shapes (perfbench/inputs.py, seed 2501, repetition 0)
DISPLACEMENT = ("sweep --r1=-0.438726059258371 --nbar1=1.5383807921815134 "
                "--r2=-0.10509174769679797 --nbar2=0.1710117963316812 "
                "--sweep re_k2=-2.0:2.0:41 --sweep im_k2=-2.0:2.0:41 --method closed-form")
SQUEEZE_TEMP = ("sweep --r1=0.12761366549084985 --nbar1=0.451963439090071 "
                "--k2=0.09252336598674149+0.48625583909168607i "
                "--sweep r2=-1.0:1.0:8 --sweep nbar2=0.1:3.0:8 --method closed-form")

# Files the battery reads, by name under TMP.
FILES = {
    "good.conf": "# shared defaults\nmethod = pipeline\nceiling = 256\ntol = 1e-6\n",
    "unknown_key.conf": "methd = oracle\n",
    "bad_tol.conf": "tol = abc\n",
    "bad_method.conf": "method = bogus\n",
    "bad_preset.conf": "preset = slow\n",
    "tol_zero.conf": "tol = 0\n",
    "empty.txt": "",
}

BATTERY = (
    f"compute {PAIR}",
    f"compute {PAIR} --format record",
    f"compute {PAIR} --format csv",
    f"compute {PAIR} --method closed-form --format record",
    DISPLACEMENT,
    SQUEEZE_TEMP,
    "sweep --nbar1 0.5 --nbar2 1 --sweep re_k2=0:1:3 --method all",
    # a large shared squeeze with a small gap: the oracle climbs in its joint squeeze frame
    "compute --r1 3 --r2 3.2 --k2 0.01 --nbar1 0.5 --nbar2 0.5 --method all",
    "sweep --nbar1 0.5 --k2 0.3 --sweep beta2=0.5:2:4 --sweep r1=-0.5:0.5:3",
    "sweep --nbar1 1 --nbar2 1 --sweep r2=353:357:5",
    "sweep --k1 0.5+1e-8i --beta1 1 --k2 0.5 --beta2 744 --sweep r2=0:352:3 --method closed-form",
    "sweep --nbar1 1 --sweep r2=0:1:2",
    "sweep --nbar1 1 --k2 0.3 --sweep nbar2=1:2:2 --sweep beta2=1:2:2",
    "sweep --nbar1 1 --beta2 5 --sweep nbar2=1:2:2",
    "sweep --nbar1 1 --nbar2 1 --sweep r2=-1.7e308:1.7e308:3",
    "sweep --nbar1 1 --nbar2 1 --sweep r2=0:1:1000000000000",
    "compute --r2 354 --beta1 1 --beta2 700 --k2 1e-300 --method closed-form",
    "compute --r2 354 --beta1 1 --beta2 744 --k2 1e-8i --method closed-form",
    "compute --r1 2.514573631676037 --beta1 2.2687897883326802e-21 --r2 177.19411243212278 "
    "--beta2 18.470574823807027 --k2=-8.214789107378263e+76-4.300931720814783e+74i "
    "--method closed-form",
    "compute --r1 177 --r2 -177 --beta1 29 --beta2 29 --k2 0.5 --method closed-form "
    "--format record",
    # the printed base display out of its domain: Y = inf - inf, a squared
    # hyperbolic past double range, sqrt(Y) = 1, a product of finite squares
    # past double range
    "compute --r1 150 --r2=-150 --beta1 700 --beta2 0.001 --method closed-form --format record",
    "compute --beta1 744 --beta2 744 --method closed-form --format record",
    "compute --beta1 1e-300 --beta2 1e-300 --method closed-form --format record",
    "compute --beta1 700 --beta2 700 --r1 10 --method closed-form --format record",
    "compute --r1 360 --r2 360 --nbar1 1 --nbar2 1 --method closed-form",
    "compute --nbar1 1 --nbar2 1 --k2 1e154 --method closed-form",
    "compute --nbar1 0 --nbar2 1",
    "compute --nbar1 1e-320 --nbar2 1 --method closed-form --format record",
    "compute --beta1=-inf --nbar2 1 --method closed-form",
    "compute --nbar1 1",
    "compute --nbar1 1 --nbar2 1 --k2 inf",
    "compute --nbar1 1 --nbar2 1 --oracle-tol 1e-12 --method closed-form",
    "compute --nbar1 1 --nbar2 1 --oracle-tol inf",
    f"compute {PAIR} --config TMP/good.conf",
    f"compute {PAIR} --config TMP/unknown_key.conf",
    f"compute {PAIR} --config TMP/bad_tol.conf",
    f"compute {PAIR} --config TMP/bad_method.conf",
    "verify --preset quick --config TMP/bad_preset.conf",
    "verify --preset quick",
    "verify --preset quick --format record",
    "verify --preset full",
    "verify --preset full --format record",
    "verify --preset quick --tol 1e-6",
    "snapshot",
    "snapshot --file TMP/bad_tol.txt",
    "snapshot --file TMP/inf_tol.txt",
    # the oracle refuses row 2's ceiling after rows 0 and 1 ran their ladders
    "sweep --nbar1 0.1 --sweep nbar2=0.1:3:3 --method all --ceiling 60",
    "snapshot --ceiling 10",
    "snapshot --file TMP/empty.txt",
    f"compute {PAIR} --config TMP/tol_zero.conf",
    "verify --preset quick --config TMP/tol_zero.conf",
    # the oracle refuses a grid point's ceiling, and a standard record's
    "verify --preset quick --ceiling 40",
    "snapshot --regolden --ceiling 10 --file TMP/regolden.txt",
    # an empty path is the directory ".", not the default file; the run's own
    # ceiling is refused before any standard record runs
    "snapshot --file=",
    "snapshot --regolden --ceiling 1 --file TMP/regolden1.txt",
    # ladders that start at or above the ceiling name their starting cutoff
    "verify --preset quick --ceiling 69",
    "compute --nbar1 0.5 --nbar2 0.5 --k2 3 --ceiling 40",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(command: str, tmp: str) -> tuple[str, str, str]:
    """(exit, stdout, stderr) of one command, TMP written for the directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(cli.main(command.replace("TMP", tmp).split()))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # an escape is an outcome too: record its type
            code = type(exc).__name__
    return code, out.getvalue().replace(tmp, "TMP"), err.getvalue().replace(tmp, "TMP")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FILES.items():
            Path(tmp, name).write_text(text)
        # the golden file with its first record's tol set to 0, and to inf
        lines = default_golden_path().read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        for name, tol in (("bad_tol.txt", "0"), ("inf_tol.txt", "inf")):
            cols = lines[first].split()
            cols[10] = tol
            Path(tmp, name).write_text("\n".join([*lines[:first], " ".join(cols),
                                                  *lines[first + 1:]]) + "\n")

        print("command,exit,stdout_sha256,stderr_sha256")
        for command in BATTERY:
            code, out, err = run(command, tmp)
            print(f"{command},{code},{_sha(out)},{_sha(err)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
