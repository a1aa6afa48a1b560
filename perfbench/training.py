"""``train-fit``: ``HotspotDetector.fit`` on a seeded, oracle-labelled
clip file.

Set-up generates the training and held-out clips for the seed, writes
the training clips as a clip file and encodes the held-out clips once.
One operation is ``HotspotDetector(config).fit(dataset)`` with the
library's default :class:`DetectorConfig` and a fixed SGD budget (the
same config the scan/serve model is built with), so every fit runs the
same number of steps on every seed. Set-up time is what ``repro train``
pays before its fit — a fresh interpreter importing the library and
loading the clip file — repeated and reported as a median.

Output check: every fitted detector must reach ``fit_accuracy_floor``
held-out accuracy (see ``sizes.py``). The traced run rebuilds ``fit``
from its public parts — split / augment / upsample, per-clip raster and
DCT, channel scaler, ``BiasedLearning.run`` with the network's
``forward``/``backward``/``predict`` and ``SGD.step`` wrapped in spans —
and checks that the rebuilt fit lands on bitwise the same weights.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import List

import numpy as np

from harness import (
    OUT_DIR,
    ROOT,
    Run,
    Tracer,
    attributed_fraction,
    median,
    program_env,
    run_until,
    self_peak_rss_mb,
    span_durations,
    timed_repeats,
)
from build import detector_config, generate_clips

_LOAD_CLIPS = (
    "import sys\n"
    "from repro.core.detector import HotspotDetector\n"
    "from repro.data.dataset import HotspotDataset\n"
    "HotspotDataset.load(sys.argv[1])\n"
)


def _heldout_scores(detector, tensors, labels):
    """(accuracy, false alarms) of ``detector`` on encoded held-out clips."""
    predictions = detector.predict_proba_tensors(tensors).argmax(axis=1)
    accuracy = float((predictions == labels).mean())
    false_alarms = int(((predictions == 1) & (labels == 0)).sum())
    return accuracy, false_alarms


def _sgd_samples(detector) -> int:
    """Samples consumed by SGD across every biased-learning round."""
    steps = sum(r.history.stopped_iteration for r in detector.rounds)
    return steps * detector.config.trainer.batch_size


def _traced_fit(tracer: Tracer, config, dataset):
    """``HotspotDetector.fit`` rebuilt from public parts, with spans."""
    from repro.core.biased import BiasedLearning, select_round
    from repro.core.detector import HotspotDetector
    from repro.core.model import build_dac17_network
    from repro.data.augment import augment_dihedral
    from repro.data.dataset import HotspotDataset
    from repro.data.sampling import upsample_minority
    from repro.features.scaler import ChannelScaler

    # The optimizer and fine-tune budgets come from the detector's own
    # helpers, so the rebuild cannot drift from what fit() derives.
    helper = HotspotDetector(config)
    extractor = helper.extractor
    dtype = np.dtype(config.compute_dtype)

    def encode(clips) -> np.ndarray:
        tensors = []
        for clip in clips:
            with tracer.span("features.raster"):
                image = clip.rasterize(resolution=config.feature.pixel_nm)
            with tracer.span("features.dct"):
                tensors.append(extractor.encode_image(image))
        return np.stack(tensors).astype(np.float32)

    def to_input(tensors: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(
            scaler.transform(tensors).transpose(0, 3, 1, 2), dtype=dtype
        )

    def optimizer(network):
        sgd = helper._optimizer_factory(network)
        sgd.step = tracer.wrap(sgd.step, "nn.optim_step")
        return sgd

    with tracer.span("op"):
        with tracer.span("data.prepare"):
            main, holdout = dataset.split(config.validation_fraction,
                                          seed=config.seed)
            if config.augment_hotspots:
                main = HotspotDataset(augment_dihedral(main.clips),
                                      name=main.name)
            if config.balance_training:
                main = HotspotDataset(
                    upsample_minority(main.clips, seed=config.seed),
                    name=main.name,
                )
        with tracer.span("features.extract"):
            train_tensors = encode(main.clips)
            scaler = ChannelScaler()
            scaler.fit(train_tensors)
            x_train = to_input(train_tensors)
            x_val = to_input(encode(holdout.clips))
        with tracer.span("nn.train"):
            network = build_dac17_network(
                input_channels=config.feature.coefficients,
                grid=config.feature.block_count,
                seed=config.seed,
                compute_dtype=config.compute_dtype,
                fused_conv=config.fused_conv,
            )
            forward = network.forward

            def traced_forward(x, training=False):
                name = "nn.forward" if training else "nn.forward_eval"
                with tracer.span(name):
                    return forward(x, training=training)

            network.forward = traced_forward
            network.backward = tracer.wrap(network.backward, "nn.backward")
            network.predict = tracer.wrap(network.predict, "nn.validate")
            rounds = BiasedLearning(
                network,
                optimizer,
                trainer_config=config.trainer,
                epsilon_step=config.epsilon_step,
                rounds=config.bias_rounds,
                finetune_config=helper._finetune_trainer_config(),
            ).run(x_train, main.labels, x_val, holdout.labels)
            chosen = select_round(rounds, config.max_false_alarm_increase)
    return chosen.weights, sum(r.history.stopped_iteration for r in rounds)


def run_fit(run: Run, sizes: dict) -> Tracer:
    from repro.core.detector import HotspotDetector
    from repro.data.dataset import HotspotDataset

    inputs = OUT_DIR / "inputs" / run.stem
    inputs.mkdir(parents=True, exist_ok=True)
    train_file = inputs / "train.clips"
    generate_clips(run.seed * 1000 + 1, *sizes["fit_clips"],
                   "fit-train").save(train_file)
    heldout = generate_clips(run.seed * 1000 + 2, *sizes["fit_heldout"],
                             "fit-heldout")
    config = detector_config(sizes["fit_iterations"])
    heldout_tensors = heldout.features(HotspotDetector(config).extractor)
    heldout_labels = heldout.labels

    def set_up():
        """What ``repro train`` pays before fitting: a fresh interpreter
        importing the library and loading the clip file."""
        subprocess.run([sys.executable, "-c", _LOAD_CLIPS, str(train_file)],
                       cwd=ROOT, env=program_env(), check=True, timeout=120)

    repeats = 1 if run.trace else sizes["setup_repeats"]
    setup_s, _ = timed_repeats(repeats, set_up)
    dataset = HotspotDataset.load(train_file)

    tracer = Tracer()
    # (seconds, samples, accuracy, false alarms[, traced steps])
    fits: List[tuple] = []
    rebuilt_ok: List[bool] = []

    def op(i: int) -> None:
        detector = HotspotDetector(config)
        started = time.perf_counter()
        detector.fit(dataset)
        seconds = time.perf_counter() - started
        fits.append((seconds, _sgd_samples(detector),
                     *_heldout_scores(detector, heldout_tensors,
                                      heldout_labels)))
        if run.trace:
            tracer.op = i
            weights, steps = _traced_fit(tracer, config, dataset)
            real = detector.network.get_weights()
            rebuilt_ok.append(
                len(weights) == len(real)
                and all(np.array_equal(a, b) for a, b in zip(weights, real))
            )
            fits[-1] += (steps,)

    wall = run_until(run.seconds, sizes["min_ops"], op)
    peak_rss = self_peak_rss_mb()
    floor = sizes["fit_accuracy_floor"]
    for i, fit in enumerate(fits):
        accuracy = fit[2]
        ok = run.check("heldout_accuracy_floor", accuracy >= floor,
                       f"accuracy {accuracy:.3f} < {floor}")
        if run.trace:
            ok &= run.check("recomposed_fit_weights", rebuilt_ok[i],
                            "rebuilt fit weights differ from fit()")
        run.op_outcome(ok)

    seconds = [f[0] for f in fits]
    if not run.trace:
        run.sampled("throughput_per_s", [f[1] / f[0] for f in fits], "1/s")
        run.sampled("latency_p50_ms", [1000.0 * s for s in seconds], "ms")
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.metric("ok_frac", 1.0 - run.failed / run.attempted, "fraction")
        run.metric("setup_s", setup_s, "s")
        print(f"[train-fit] {len(fits)} fits in {wall:.1f}s, held-out "
              f"accuracy {[round(f[2], 3) for f in fits]}")
        return tracer

    per_op = [tracer.op_spans(i) for i in range(len(fits))]
    roots = [next(s for s in spans if s["name"] == "op") for spans in per_op]

    def total(name: str) -> List[float]:
        return [sum(span_durations(spans, name)) for spans in per_op]

    def per_call_ms(name: str) -> List[float]:
        return [1000.0 * median(span_durations(spans, name))
                for spans in per_op]

    run.sampled("data.prepare_s", total("data.prepare"), "s")
    run.sampled("features.extract_s", total("features.extract"), "s")
    run.sampled("features.raster_s", total("features.raster"), "s")
    run.sampled("features.dct_s", total("features.dct"), "s")
    run.sampled("nn.forward_ms", per_call_ms("nn.forward"), "ms")
    run.sampled("nn.backward_ms", per_call_ms("nn.backward"), "ms")
    run.sampled("nn.optim_step_ms", per_call_ms("nn.optim_step"), "ms")
    run.sampled("nn.steps", [f[4] for f in fits], "count")
    run.sampled("fit.heldout_accuracy", [f[2] for f in fits], "fraction")
    run.sampled("fit.heldout_false_alarms", [f[3] for f in fits], "count")
    run.sampled(
        "trace.attributed_frac",
        [attributed_fraction(spans, root["id"])
         for spans, root in zip(per_op, roots)],
        "fraction",
    )
    traced_s = [root["end"] - root["start"] for root in roots]
    run.metric("trace.overhead_frac",
               median(traced_s) / median(seconds) - 1.0, "fraction")
    print(f"[train-fit] traced {len(fits)} fits in {wall:.1f}s")
    return tracer
