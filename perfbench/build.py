"""Train and publish the detector the scan and serve workloads use.

The model is built once per checkout (per scale) and cached under
``.perfbench_cache/``; the cache key hashes the program's source and this
file, so any change to either retrains. The build runs in its own
process, so the measuring process never carries training memory.

The detector uses the library's default :class:`DetectorConfig` —
default feature tensor (n=12, k=32, 1 nm/px, default DCT backend) and
default biased-learning schedule — with only the SGD iteration budget
fixed. It is published the way ``repro train --publish-dir`` publishes,
drift reference profile included, so ``repro serve`` serves it as users
would.

Run directly: ``python3 perfbench/build.py --out DIR [--scale toy]``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

from harness import CACHE_DIR, ROOT, BenchError, program_env, require_program
from sizes import SCALES

#: Seed of the build's training clips (fixed: the model is not per-run).
BUILD_SEED = 1234
BUILD_TIMEOUT_S = 800


def labelling_oracle():
    """Oracle for labelling generated clips (coarse litho raster: fast,
    same API behaviour)."""
    from repro.litho.oracle import OracleConfig
    from repro.litho.optics import OpticsConfig

    return OracleConfig(optics=OpticsConfig(pixel_nm=8))


def generate_clips(seed: int, hotspots: int, others: int, prefix: str):
    from repro.data.dataset import HotspotDataset
    from repro.data.generator import ClipGenerator, GeneratorConfig

    generator = ClipGenerator(
        GeneratorConfig(seed=seed, oracle=labelling_oracle())
    )
    return HotspotDataset(
        generator.generate(hotspots, others, name_prefix=prefix), name=prefix
    )


def detector_config(iterations: int):
    """Library defaults with a fixed SGD budget: patience outlasts every
    round's validations, so no round stops early."""
    from repro.core.config import DetectorConfig
    from repro.nn.trainer import TrainerConfig

    return DetectorConfig(
        trainer=TrainerConfig(
            max_iterations=iterations,
            validate_every=max(1, iterations // 6),
            patience=iterations,
            seed=0,
        )
    )


def _source_key(scale: str) -> str:
    digest = hashlib.sha256(scale.encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    digest.update(Path(__file__).read_bytes())
    digest.update(json.dumps(SCALES[scale], sort_keys=True).encode())
    return digest.hexdigest()[:16]


def ensure_model(scale: str) -> Path:
    """Directory of the published model for ``scale``; builds it if absent.

    The directory holds ``registry/`` (a ``ModelRegistry`` directory
    ``repro serve --checkpoint-dir`` accepts), ``model.json`` (the
    checkpoint path, relative) and ``refs/`` (cached references).
    """
    model_dir = CACHE_DIR / f"model-{scale}-{_source_key(scale)}"
    if (model_dir / "model.json").is_file():
        return model_dir
    staging = model_dir.with_name(model_dir.name + ".building")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    command = [
        sys.executable, str(Path(__file__)), "--out", str(staging),
        "--scale", scale,
    ]
    try:
        completed = subprocess.run(
            command, env=program_env(), cwd=ROOT, timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except subprocess.TimeoutExpired as exc:
        shutil.rmtree(staging, ignore_errors=True)
        raise BenchError(f"model build timed out after {exc.timeout}s")
    if completed.returncode != 0:
        shutil.rmtree(staging, ignore_errors=True)
        raise BenchError(f"model build failed:\n{completed.stdout[-4000:]}")
    if model_dir.exists():  # another run finished first
        shutil.rmtree(staging, ignore_errors=True)
    else:
        staging.rename(model_dir)
    return model_dir


def checkpoint_path(model_dir: Path) -> Path:
    meta = json.loads((model_dir / "model.json").read_text())
    return model_dir / meta["checkpoint"]


def build(out: Path, scale: str) -> None:
    from repro.core.detector import HotspotDetector
    from repro.serve import ModelRegistry

    sizes = SCALES[scale]
    hotspots, others = sizes["model_clips"]
    dataset = generate_clips(BUILD_SEED, hotspots, others, "perfbench-model")
    detector = HotspotDetector(detector_config(sizes["model_iterations"]))
    detector.fit(dataset)
    registry = ModelRegistry(out / "registry")
    path = registry.publish(detector, "v1", reference=dataset)
    (out / "refs").mkdir()
    (out / "model.json").write_text(
        json.dumps({"checkpoint": str(Path(path).relative_to(out))})
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args()
    require_program()
    build(args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
