"""Input sizes of every workload, per scale.

``full`` is what ``BENCHMARK.json`` measures; ``toy`` is the smoke
test's scale (same code paths, seconds instead of minutes). Feature and
scan settings are never set here: every workload runs the library's
defaults, so a change of default shows in the numbers.
"""

#: Seed a run uses when ``--seed`` is not given (same for all workloads).
DEFAULT_SEED = 1

SCALES = {
    "full": {
        # Model shared by the scan and serve workloads (built once per
        # checkout): oracle-labelled clips and a fixed SGD budget.
        "model_clips": (100, 160),
        "model_iterations": 300,
        # scan-plain: random-logic chips, no repeated cells.
        "plain_tiles": 8,
        "plain_chips": 6,
        # scan-array: array-heavy chips scanned through the farm.
        "array_tiles": 12,
        "array_chips": 6,
        # Small chip scanned once per set-up repetition (warm-up).
        "warmup_tiles": 3,
        # serve-http: pool of window tensors the callers draw from.
        "serve_pool_tiles": 8,
        "serve_setups": 3,
        # train-fit: training / held-out clip counts (hotspot, other).
        "fit_clips": (30, 50),
        "fit_heldout": (40, 40),
        "fit_iterations": 120,
        # Held-out accuracy every fitted detector must reach (output check):
        # above the 0.5 any constant guess scores on the balanced set.
        "fit_accuracy_floor": 0.51,
        "setup_repeats": 5,
        "min_ops": 2,
    },
    "toy": {
        "model_clips": (16, 24),
        "model_iterations": 40,
        "plain_tiles": 3,
        "plain_chips": 2,
        "array_tiles": 6,
        "array_chips": 2,
        "warmup_tiles": 2,
        "serve_pool_tiles": 3,
        "serve_setups": 2,
        "fit_clips": (10, 14),
        "fit_heldout": (8, 8),
        "fit_iterations": 20,
        # A toy fit is too small to learn; the check still runs.
        "fit_accuracy_floor": 0.0,
        "setup_repeats": 2,
        "min_ops": 1,
    },
}
