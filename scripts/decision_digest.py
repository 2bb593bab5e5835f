#!/usr/bin/env python3
"""Digest of detect_recording's decisions and errors over a fixed grid.

    PYTHONPATH=src python3 scripts/decision_digest.py [--expect SHA256]

Each recording holds the 18-channel montage with bursts on F8-T4, T3-T5
and Cz-Pz, then a 6 Hz sine in 1e-9 noise, a constant, a channel of noise
scaled by 1e160 (whose differences overflow), and 40 noise channels with a
constant at every seventh, so that a recording's 61 channels cross two
edges of the 32-row blocks with errored channels on both sides.  The grid
is seeds 0-2, 2,560 and 8,292 samples (both lengths take Burg's
lag-product rows, and the sine takes the lattice from the stage where its
rows stop), the three methods at order 10 and "auto", differencing orders
0-2, the correction off and on, and floating-point errors ignored and
raised: 432 configs.

Prints the number of configs, the sha256 of the repr of every
``(config, per_channel, sorted errors)`` in grid order, and the
``OPENBLAS_NUM_THREADS`` it ran under, since long dot products may round
differently at another BLAS thread count.  Run as a script, it sets that
variable to 1 when it is unset, before NumPy is imported, so that a bare
command reproduces the recorded digest; a value set by the caller still
holds.  A change that keeps every decision and error bit for bit keeps the
digest.  With ``--expect SHA256`` it exits with status 1 when the digest
is another one.
"""

import argparse
import hashlib
import itertools
import os
import sys

if __name__ == "__main__":
    # One BLAS thread unless the caller sets another; OpenBLAS reads this
    # once, when NumPy is first imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from arpsd import (  # noqa: E402
    BurstSpec, Recording, RunConfig, TimeSeries, default_montage, detect_recording,
    simulate_recording,
)

SEEDS = (0, 1, 2)
LENGTHS = (2560, 8292)
METHODS = ("burg", "yule_walker", "mle")
ORDERS = (10, "auto")
DIFF_ORDERS = (0, 1, 2)
CORRECTIONS = (False, True)
ERRSTATES = ("ignore", "raise")
FS = 128.0


def recording(seed: int, n: int) -> Recording:
    bursts = [BurstSpec(name, 5.0, 0.95) for name in ("F8-T4", "T3-T5", "Cz-Pz")]
    base, _ = simulate_recording(default_montage(), n, FS, 1.0, bursts, 10.0, seed=seed)
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    channels = dict(base.channels)
    channels["sine"] = TimeSeries(np.sin(2.0 * np.pi * 6.0 * t) + 1e-9 * rng.standard_normal(n), FS)
    channels["flat"] = TimeSeries(np.full(n, 2.5), FS)
    channels["huge"] = TimeSeries(1e160 * rng.standard_normal(n), FS)
    for i in range(40):
        samples = np.full(n, float(i)) if i % 7 == 3 else rng.standard_normal(n)
        channels[f"n{i:02d}"] = TimeSeries(samples, FS)
    return Recording(channels)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--expect", metavar="SHA256",
                        help="exit with status 1 when the digest is not this one")
    expect = parser.parse_args(argv).expect
    digest = hashlib.sha256()
    count = 0
    for seed, n in itertools.product(SEEDS, LENGTHS):
        rec = recording(seed, n)
        for config in itertools.product(METHODS, ORDERS, DIFF_ORDERS, CORRECTIONS, ERRSTATES):
            method, order, d, correction, errstate = config
            run = RunConfig(method=method, order=order, diff_order=d,
                            undifference_correction=correction)
            with np.errstate(all=errstate):
                report = detect_recording(rec, run)
            entry = ((seed, n, *config), report.per_channel, sorted(report.errors.items()))
            digest.update(repr(entry).encode("utf-8"))
            count += 1
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"{count} configs, sha256 {digest.hexdigest()}, OPENBLAS_NUM_THREADS={threads}")
    if expect is not None and digest.hexdigest() != expect.lower():
        print(f"digest differs from the expected {expect}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
