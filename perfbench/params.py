"""Workload inputs and pipeline settings shared by the harness and the worker.

Every recording is unit white noise with 5 Hz resonator bursts (pole
radius 0.95, SNR 10) on a fixed set of channels, generated by the
program's own simulator from the run's seed.
"""

# Library thread pools are capped at one thread in the harness and in every
# program process it starts.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

FS = 128.0
NOISE_SIGMA = 1.0
BURST_HZ = 5.0
POLE_RADIUS = 0.95
SNR = 10.0

STANDARD_N = 2560  # 20 s at 128 Hz
LONG_N = 76800  # 10 min at 128 Hz
STANDARD_BURSTS = ("F8-T4", "T3-T5", "Cz-Pz")

WIDE_CHANNELS = 256
WIDE_BURST_EVERY = 32

EPOCH_BATCH = 6  # recordings per round of epochs-auto
AUTO_METHODS = ("burg", "yule_walker", "mle")

# The CLI and RunConfig defaults, which the benchmark re-derives its
# reference decisions from.
ORDER = 10
P_MAX = 30
CRITERION = "bic"
K = 2.0
RHO = 0.5
GRID_SIZE = 512
DIFF_ORDER = 1

# The two gated workloads, each made of two parts named after the input
# sets they run: "cli" runs the CLI on a standard and on a long recording,
# "library" runs detect_recording on a wide montage and on a batch of
# standard recordings under order="auto".
CLI_PARTS = {
    "clinical-cli": {"n": STANDARD_N, "psd": True},
    "long-cli": {"n": LONG_N, "psd": False},
}
WORKLOADS = ("cli", "library")


def wide_montage():
    return tuple(f"ch{i:03d}" for i in range(WIDE_CHANNELS))


def wide_bursts():
    return wide_montage()[::WIDE_BURST_EVERY]


def epoch_seed(seed, index):
    """Seed of the index-th recording of an epochs-auto batch."""
    return [seed, index]
