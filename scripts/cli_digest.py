#!/usr/bin/env python3
"""Digest of every file the CLI writes on a fixed set of runs.

    PYTHONPATH=src python3 scripts/cli_digest.py [--expect SHA256]

Runs ``arpsd.cli.main`` in process, in a temporary working directory:
``simulate`` (with a burst-spec file), then ``detect``, ``psd --all`` and
``eval`` on seeded 18 x 2,560 and 18 x 76,800 recordings, ``detect``
and ``eval`` on a hand-written recording whose ``# fs=`` comment sets the
rate and whose constant channel gives the report a ``# error:`` line,
and, on one channel of the 2,560-sample recording, ``fit --method all``
at ``--order 4`` and ``--order auto`` and ``order-scan`` under each
criterion (AIC at d = 0, AICc at d = 1, BIC at d = 2).

Prints the number of files, the sha256 over each run's arguments, exit
status and printed lines, and each written file's name and bytes, in run
order, and the NumPy version, BLAS name and version,
``OPENBLAS_NUM_THREADS`` and OpenBLAS core it ran under, since long dot
products may round differently on another build, at another BLAS thread
count or on another core (the kernel set OpenBLAS picks for the CPU, or
that ``OPENBLAS_CORETYPE`` names).  Run as a
script, it sets that variable to 1 when it is unset, before NumPy is
imported, so that a bare command reproduces the recorded digest; a value
set by the caller still holds.  A change that keeps the CSV formats byte
for byte keeps the digest.  With ``--expect SHA256`` it exits with status
1 when the digest is another one.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread unless the caller sets another; OpenBLAS reads this
    # once, when NumPy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from arpsd.cli import main as cli_main  # noqa: E402

BURSTS = "channel,center_hz,pole_radius,gain\nF8-T4,5.0,0.95,2.0\nT3-T5,6.5,0.9,1.0\n"
LENGTHS = (2560, 76800)
SEED = 7


def hand_written() -> tuple[str, str]:
    """A three-channel recording at 64 Hz with a constant channel, and its truth."""
    rows = [f"{(i * 37) % 11 - 5.0},{2.5},{(i * i) % 17 / 4.0}" for i in range(400)]
    recording = "# hand-written\n# fs=64\nFz-Cz,flat,Cz-Pz\n" + "\n".join(rows) + "\n"
    return recording, "derivation,label\nFz-Cz,1\nflat,0\nCz-Pz,0\n"


def runs() -> list[list[str]]:
    commands = []
    for n in LENGTHS:
        rec, truth, report = f"rec{n}.csv", f"truth{n}.csv", f"report{n}.csv"
        commands += [
            ["simulate", "--spec", "bursts.csv", "--seed", str(SEED), "--n", str(n),
             "--out", rec, "--truth", truth],
            ["detect", rec, "--out", report],
            ["psd", rec, "--all", "--out", f"psd{n}"],
            ["eval", "--pred", report, "--truth", truth],
        ]
    rec = f"rec{LENGTHS[0]}.csv"
    return commands + [
        ["detect", "hand.csv", "--out", "hand_report.csv"],
        ["eval", "--pred", "hand_report.csv", "--truth", "hand_truth.csv"],
        ["fit", rec, "--channel", "F8-T4", "--method", "all", "--order", "4"],
        ["fit", rec, "--channel", "F8-T4", "--method", "all", "--order", "auto"],
    ] + [
        ["order-scan", rec, "--channel", "F8-T4", "--criterion", criterion, "--diff", str(d)]
        for d, criterion in enumerate(("aic", "aicc", "bic"))
    ]


def build() -> str:
    """The NumPy version, the BLAS it was built with, the
    ``OPENBLAS_NUM_THREADS`` of this run and the OpenBLAS core, the kernel
    set that NumPy's OpenBLAS picked for this CPU ("unknown" where NumPy
    carries no scipy-openblas library): a digest matches its pin only on
    the build, thread count and core the pin was taken on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    core = "unknown"
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        corename = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return (f"numpy {np.__version__}, {blas['name']} {blas['version']}, "
            f"OPENBLAS_NUM_THREADS={threads}, core {core}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit with status 1 when the digest is not this one")
    expect = parser.parse_args(argv).expect
    digest = hashlib.sha256()
    written: list[Path] = []
    start = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            recording, truth = hand_written()
            Path("bursts.csv").write_text(BURSTS, encoding="utf-8")
            Path("hand.csv").write_text(recording, encoding="utf-8")
            Path("hand_truth.csv").write_text(truth, encoding="utf-8")
            inputs = set(Path(".").iterdir())
            for argv in runs():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli_main(argv)
                if status:
                    raise SystemExit(f"{' '.join(argv)} exited {status}: {err.getvalue()}")
                digest.update(repr((argv, status, out.getvalue(), err.getvalue())).encode("utf-8"))
                new = {p for p in Path(".").rglob("*") if p.is_file()} - inputs - set(written)
                for path in sorted(new):
                    digest.update(str(path).encode("utf-8") + b"\0" + path.read_bytes())
                    written.append(path)
        finally:
            os.chdir(start)
    print(f"{len(written)} files, sha256 {digest.hexdigest()}, {build()}")
    if expect is not None and digest.hexdigest() != expect.lower():
        print(f"digest differs from the expected {expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
