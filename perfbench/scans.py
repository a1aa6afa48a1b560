"""``scan-plain`` and ``scan-array``: LAYOUT files through the scan CLI's
front ends at their defaults.

One operation is what ``repro scan --layout F`` does after start-up:
``read_chip`` the file, build the front end (``FullChipScanner`` for
``scan-plain``; ``ScanFarm(workers=2)`` for ``scan-array``, as
``repro scan --farm --workers 2``) and ``scan`` it. Every operation gets
a distinct chip from the seeded pool, cycling only if the pool runs out.

Output check: every scan must agree with the independent per-window
route — ``predict_proba`` on ``Layout.clip_at`` clips, one clip per
window, with the matmul DCT backend — within ``PROB_TOL`` per window and
with an identical flagged set (windows whose reference lies within
``PROB_TOL`` of the threshold may go either way). References are cached
per chip under the model's cache directory.

The traced run recomposes the same pipeline from the layers' public
calls (read_chip → [fingerprint → dedup] → coefficient grid → tensor
assembly → inference → merge), checks it against ``scan()`` on the same
chip, and times each call as a span. Per-tile raster and DCT times come
from a probe outside the operation's span that encodes the chip's unique
tiles on the default tile lattice.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

import numpy as np

from harness import (
    OUT_DIR,
    Run,
    Tracer,
    attributed_fraction,
    median,
    run_until,
    self_peak_rss_mb,
    span_durations,
    timed_repeats,
)
from build import checkpoint_path

#: Per-window probability tolerance between routes (float32 features
#: from two DCT backends differ in the last bits).
PROB_TOL = 1e-5
THRESHOLD = 0.5  # the CLI default
INFER_BATCH = 512  # FullChipScanner.scan's default batch size


def _chip_layouts(sizes: dict, seed: int, farm: bool):
    from repro.data.fullchip import FullChipSpec, make_layout

    tiles = sizes["array_tiles" if farm else "plain_tiles"]
    count = sizes["array_chips" if farm else "plain_chips"]
    fraction = 1.0 if farm else 0.0
    chips = [
        make_layout(
            FullChipSpec(
                tiles_x=tiles, tiles_y=tiles, seed=seed * 1000 + i,
                array_fraction=fraction,
            )
        )
        for i in range(count)
    ]
    warm = sizes["warmup_tiles"]
    warmup = make_layout(
        FullChipSpec(
            tiles_x=warm, tiles_y=warm, seed=seed * 1000 + 999,
            array_fraction=fraction,
        )
    )
    return chips, warmup


def _write_inputs(directory: Path, chips, warmup) -> List[Path]:
    from repro.geometry.layoutio import write_chip

    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, layout in enumerate(chips):
        path = directory / f"chip-{i}.layout"
        write_chip(path, layout, name=f"chip{i}")
        paths.append(path)
    write_chip(directory / "warmup.layout", warmup, name="warmup")
    return paths


def _front_end(detector, farm: bool):
    """The front end ``repro scan`` builds, at the CLI defaults."""
    if farm:
        from repro.scanfarm import ScanFarm

        return ScanFarm(detector, threshold=THRESHOLD, workers=2,
                        shards_per_worker=2, cache_dir=None)
    from repro.core.fullchip import FullChipScanner

    return FullChipScanner(detector, threshold=THRESHOLD, workers=1)


# ----------------------------------------------------------------------
# Reference: the independent per-window route
# ----------------------------------------------------------------------
def _reference_detector(detector):
    from repro.core.detector import HotspotDetector

    config = detector.config
    ref = HotspotDetector(
        replace(config, feature=replace(config.feature, dct_backend="matmul"))
    )
    ref.network = detector.network
    ref.scaler = detector.scaler
    return ref


def _window_rects(layout, window):
    """Window-relative geometry: equal keys give identical clips."""
    return tuple(
        sorted(
            (r.x_lo - window.x_lo, r.y_lo - window.y_lo,
             r.x_hi - window.x_lo, r.y_hi - window.y_lo)
            for r in layout.query(window)
        )
    )


def reference_probabilities(ref_detector, refs_dir: Path, path: Path):
    """Per-window hotspot probabilities of the chip at ``path``."""
    from repro.data.dataset import HotspotDataset
    from repro.geometry.layout import iter_clip_windows
    from repro.geometry.layoutio import read_chip

    key = hashlib.sha256(path.read_bytes()).hexdigest()
    cached = refs_dir / f"scan-{key}.npy"
    if cached.is_file():
        return np.load(cached)
    _, layout = read_chip(path)
    windows = list(iter_clip_windows(layout.region, 1200, 600))
    # Identical clips score identically; score each distinct clip once.
    groups: Dict[tuple, List[int]] = {}
    for i, window in enumerate(windows):
        groups.setdefault(_window_rects(layout, window), []).append(i)
    members = list(groups.values())
    clips = [layout.clip_at(windows[g[0]]) for g in members]
    scores = ref_detector.predict_proba(
        HotspotDataset(clips, name="reference", allow_unlabelled=True)
    )[:, 1]
    probabilities = np.empty(len(windows), dtype=np.float64)
    for group, score in zip(members, scores):
        probabilities[group] = score
    staging = cached.with_suffix(f".{os.getpid()}.tmp.npy")
    np.save(staging, probabilities)
    os.replace(staging, cached)
    return probabilities


def _agrees(run: Run, check: str, probabilities, flagged, expected) -> bool:
    """Probabilities within tolerance and identical flagged sets."""
    probabilities = np.asarray(probabilities)
    expected = np.asarray(expected)
    if probabilities.shape != expected.shape:
        return run.check(check, False, f"{probabilities.shape} windows vs "
                         f"{expected.shape}")
    worst = float(np.abs(probabilities - expected).max())
    ambiguous = set(np.flatnonzero(np.abs(expected - THRESHOLD) <= PROB_TOL))
    want = set(np.flatnonzero(expected >= THRESHOLD))
    differ = (set(flagged) ^ want) - ambiguous
    return run.check(
        check, worst <= PROB_TOL and not differ,
        f"max |dp|={worst:.3g}, {len(differ)} flagged windows differ",
    )


# ----------------------------------------------------------------------
# Traced recomposition
# ----------------------------------------------------------------------
def _traced_scan(tracer: Tracer, detector, path: Path, farm: bool):
    """The scan pipeline rebuilt from public calls, one span per layer."""
    from repro.core.fullchip import merge_windows
    from repro.features.sliding import SlidingFeatureExtractor
    from repro.geometry.layout import iter_clip_windows
    from repro.geometry.layoutio import read_chip
    from repro.scanfarm.fingerprint import (
        model_fingerprint,
        scan_salt,
        window_fingerprints,
    )

    config = detector.extractor.config
    with tracer.span("op"):
        with tracer.span("geometry.read_chip"):
            _, layout = read_chip(path)
        windows = tuple(iter_clip_windows(layout.region, 1200, 600))
        if farm:
            with tracer.span("scanfarm.fingerprint"):
                salt = scan_salt(
                    clip_nm=1200, pipeline="shared",
                    model_key=model_fingerprint(detector), feature=config,
                )
                prints = window_fingerprints(layout, windows, salt)
            with tracer.span("scanfarm.dedup"):
                first: Dict[str, int] = {}
                owner = [first.setdefault(fp, i) for i, fp in enumerate(prints)]
                scored = sorted(set(owner))
        else:
            owner = list(range(len(windows)))
            scored = owner
        sliding = SlidingFeatureExtractor(
            config, clip_nm=1200, workers=2 if farm else 1
        )
        with tracer.span("features.grid"):
            grid = sliding.coefficient_grid(layout)
        with tracer.span("features.assemble"):
            n = config.block_count
            tensors = np.empty((len(scored), n, n, config.coefficients),
                               dtype=np.float32)
            for j, i in enumerate(scored):
                window = windows[i]
                if sliding.is_aligned(window, layout.region):
                    row = (window.y_lo - layout.region.y_lo) // sliding.block_nm
                    col = (window.x_lo - layout.region.x_lo) // sliding.block_nm
                    tensors[j] = grid[row:row + n, col:col + n]
                else:
                    tensors[j] = detector.extractor.extract(
                        layout.clip_at(window)
                    )
        with tracer.span("nn.infer"):
            scores = np.concatenate([
                detector.predict_proba_tensors(
                    tensors[lo:lo + INFER_BATCH]
                )[:, 1]
                for lo in range(0, len(scored), INFER_BATCH)
            ])
        by_window = dict(zip(scored, scores))
        probabilities = np.array([by_window[o] for o in owner])
        flagged = np.flatnonzero(probabilities >= THRESHOLD)
        with tracer.span("core.merge"):
            regions = merge_windows(
                [windows[i] for i in flagged], list(probabilities[flagged])
            )
    tiles = _tile_probe(tracer, layout, config)
    return {
        "probabilities": probabilities,
        "flagged": flagged,
        "regions": regions,
        "windows": len(windows),
        "scored": len(scored),
        "tiles_unique": tiles,
    }


def _tile_probe(tracer: Tracer, layout, config) -> int:
    """Raster and DCT each unique tile of the default tile lattice."""
    from repro.features.sliding import SlidingFeatureExtractor
    from repro.features.tensor import encode_block_grid
    from repro.geometry.fingerprint import geometry_digest
    from repro.geometry.raster import rasterize_rects
    from repro.geometry.rect import Rect

    sliding = SlidingFeatureExtractor(config, clip_nm=1200)
    rows, cols, k = sliding.grid_shape(layout.region)
    tile, pitch, region = sliding.tile_blocks, sliding.block_nm, layout.region
    seen = set()
    with tracer.span("probe.tiles"):
        for b_row in range(0, rows, tile):
            for b_col in range(0, cols, tile):
                window = Rect(
                    region.x_lo + b_col * pitch,
                    region.y_lo + b_row * pitch,
                    region.x_lo + min(b_col + tile, cols) * pitch,
                    region.y_lo + min(b_row + tile, rows) * pitch,
                )
                rects = tuple(layout.query(window))
                digest = geometry_digest(rects, window)
                if not rects or digest in seen:
                    continue
                seen.add(digest)
                with tracer.span("features.raster"):
                    image = rasterize_rects(rects, window, config.pixel_nm)
                with tracer.span("features.dct"):
                    encode_block_grid(image, sliding.block_px, k,
                                      backend=config.dct_backend)
    return len(seen)


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def run_scan(run: Run, sizes: dict, model_dir: Path, farm: bool) -> Tracer:
    from repro.core.detector import HotspotDetector
    from repro.geometry.layoutio import read_chip

    chips, warmup = _chip_layouts(sizes, run.seed, farm)
    inputs = OUT_DIR / "inputs" / run.stem
    paths = _write_inputs(inputs, chips, warmup)
    del chips
    checkpoint = checkpoint_path(model_dir)

    def set_up():
        detector = HotspotDetector.load_checkpoint(checkpoint)
        _, layout = read_chip(inputs / "warmup.layout")
        _front_end(detector, farm).scan(layout)
        return detector

    repeats = 1 if run.trace else sizes["setup_repeats"]
    setup_s, detector = timed_repeats(repeats, set_up)
    run.metric("setup_s", setup_s, "s")

    tracer = Tracer()
    scans: List[tuple] = []  # (chip index, ScanResult, seconds)
    traced: List[dict] = []

    def op(i: int) -> None:
        chip = i % len(paths)
        started = time.perf_counter()
        _, layout = read_chip(paths[chip])
        result = _front_end(detector, farm).scan(layout)
        scans.append((chip, result, time.perf_counter() - started))
        if run.trace:
            tracer.op = i
            traced.append(_traced_scan(tracer, detector, paths[chip], farm))

    wall = run_until(run.seconds, sizes["min_ops"], op)
    peak_rss = self_peak_rss_mb()

    ref_detector = _reference_detector(detector)
    references = {}
    for i, (chip, result, _) in enumerate(scans):
        if chip not in references:
            references[chip] = reference_probabilities(
                ref_detector, model_dir / "refs", paths[chip]
            )
        ok = _agrees(run, "scan_vs_per_window_reference",
                     result.probabilities, result.flagged_indices,
                     references[chip])
        if run.trace:
            rebuilt = traced[i]
            ok &= _agrees(run, "recomposed_vs_scan", rebuilt["probabilities"],
                          rebuilt["flagged"], result.probabilities)
            ok &= run.check(
                "recomposed_regions_vs_scan",
                len(rebuilt["regions"]) == len(result.regions),
                f"{len(rebuilt['regions'])} vs {len(result.regions)} regions",
            )
        run.op_outcome(ok)

    seconds = [s for _, _, s in scans]
    if not run.trace:
        windows = sum(r.window_count for _, r, _ in scans)
        run.sampled("throughput_per_s",
                    [r.window_count / s for _, r, s in scans], "1/s")
        run.sampled("latency_p50_ms", [1000.0 * s for s in seconds], "ms")
        run.metric("peak_rss_mb", peak_rss, "MB")
        run.metric("ok_frac", 1.0 - run.failed / run.attempted, "fraction")
        print(f"[{run.workload}] {len(scans)} scans in {wall:.1f}s, "
              f"{windows} windows")
        return tracer

    per_op = [tracer.op_spans(i) for i in range(len(scans))]
    roots = [next(s for s in spans if s["name"] == "op") for spans in per_op]

    def total(name: str) -> List[float]:
        return [sum(span_durations(spans, name)) for spans in per_op]

    run.sampled("geometry.read_chip_s", total("geometry.read_chip"), "s")
    run.sampled("features.raster_s", total("features.raster"), "s")
    run.sampled("features.dct_s", total("features.dct"), "s")
    run.sampled("features.grid_s", total("features.grid"), "s")
    run.sampled("features.tiles_unique", [t["tiles_unique"] for t in traced],
                "count")
    run.sampled("nn.infer_s", total("nn.infer"), "s")
    run.sampled("nn.infer_windows", [t["scored"] for t in traced], "count")
    run.sampled("core.merge_s", total("core.merge"), "s")
    run.sampled("core.flagged", [len(t["flagged"]) for t in traced], "count")
    if farm:
        run.sampled("scanfarm.fingerprint_s", total("scanfarm.fingerprint"),
                    "s")
    run.sampled("scanfarm.dedup_ratio",
                [t["scored"] / t["windows"] for t in traced], "ratio")
    run.sampled(
        "trace.attributed_frac",
        [attributed_fraction(spans, root["id"])
         for spans, root in zip(per_op, roots)],
        "fraction",
    )
    traced_s = [root["end"] - root["start"] for root in roots]
    run.metric("trace.overhead_frac",
               median(traced_s) / median(seconds) - 1.0, "fraction")
    print(f"[{run.workload}] traced {len(scans)} scans in {wall:.1f}s")
    return tracer
