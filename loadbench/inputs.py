"""Seeded inputs and the correctness oracle.

Everything the program receives is generated here from the workload seed:
the published plans (untrained, seeded ``make_lenet(quantizer_bits=4)``),
the image pools the predict loops draw from, and the Fig. 6 study specs.
Reference outputs are computed from the same inputs before any timing
starts: predicts by ``InferencePlan.load(...).run`` on the request's rows,
studies by the same spec run through ``repro.api.connect("local:...")``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Published plans: (model name, mapping, bits).
PREDICT_MODELS = [(f"lenet{index}", "acm", 4) for index in range(4)]
STUDY_MODELS = [("lenet0", "acm", 4), ("lenet0", "de", 4), ("lenet0", "bc", 4)]
PLANS = PREDICT_MODELS + STUDY_MODELS[1:]
#: The Fig. 6 sweep: sigma 0.0 .. 0.25 in steps of 0.05, 25 draws.
SIGMAS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.25)
NUM_SAMPLES = 25
STUDY_IMAGES = 64
IMAGE_SHAPE = (1, 16, 16)
#: Coalesced traffic may drift in the last bits (gemv vs gemm); the repo
#: holds it to this absolute tolerance everywhere else too.
PREDICT_ATOL = 1e-10

#: Study shapes as (models, sigmas): the Fig. 6 study, and the two-cell
#: warm-up run before the first timed one (the first ensemble a worker
#: serves runs cold).
SHAPES = {
    "fig6": (STUDY_MODELS, SIGMAS),
    "warm": (STUDY_MODELS[:1], (SIGMAS[0], SIGMAS[-1])),
}

SMALL_POOL = 256


@dataclass
class Inputs:
    """Everything one run sends, plus the expected answers."""

    plan_seeds: Dict[Tuple[str, str, int], int]
    small_images: np.ndarray  # (SMALL_POOL, 1, 16, 16)
    study_images: np.ndarray  # (STUDY_IMAGES, 1, 16, 16)
    study_labels: np.ndarray  # (STUDY_IMAGES,)
    study_seeds: List[int]
    warm_seed: int
    small_refs: Optional[np.ndarray] = None
    study_refs: Dict[int, object] = field(default_factory=dict)

    def small_request(self, index: int) -> Tuple[np.ndarray, Tuple[str, str, int], int]:
        """Pool entry ``index``: one image, its model, its reference row."""
        entry = index % SMALL_POOL
        return self.small_images[entry:entry + 1], PREDICT_MODELS[entry % 4], entry


def generate(seed: int, num_studies: int) -> Inputs:
    """The run's inputs; the same seed always yields identical bytes."""
    root = np.random.SeedSequence([0x1B_E2C4, seed])
    plan_ss, small_ss, study_ss, seed_ss = root.spawn(4)
    plan_seeds = {
        key: int(value)
        for key, value in zip(PLANS, plan_ss.generate_state(len(PLANS)))
    }
    study_rng = np.random.default_rng(study_ss)
    seeds = np.random.default_rng(seed_ss).integers(
        0, 2**31 - 1, size=1 + num_studies
    )
    return Inputs(
        plan_seeds=plan_seeds,
        small_images=np.random.default_rng(small_ss).normal(
            size=(SMALL_POOL,) + IMAGE_SHAPE),
        study_images=study_rng.normal(size=(STUDY_IMAGES,) + IMAGE_SHAPE),
        study_labels=study_rng.integers(0, 10, size=STUDY_IMAGES),
        warm_seed=int(seeds[0]),
        study_seeds=[int(value) for value in seeds[1:]],
    )


def build_plans(inputs: Inputs):
    """The untrained, seeded plans, compiled (not yet published)."""
    from repro import compile_model
    from repro.models.lenet import make_lenet

    return {
        key: compile_model(make_lenet(key[1], quantizer_bits=key[2],
                                      seed=inputs.plan_seeds[key]))
        for key in PLANS
    }


def publish(inputs: Inputs, plan_dir: Path) -> None:
    """Write every plan artifact into ``plan_dir`` under its canonical name."""
    from repro.serve import PlanRegistry

    registry = PlanRegistry(plan_dir)
    for (model, mapping, bits), plan in build_plans(inputs).items():
        registry.publish(plan, model, bits, mapping)


def study_spec_for(inputs: Inputs, shape: str, seed: int):
    """The study of one ``SHAPES`` entry over the labelled images."""
    from repro.api.types import study_spec

    models, sigmas = SHAPES[shape]
    return study_spec(images=inputs.study_images, models=list(models),
                      sigmas=tuple(sigmas), num_samples=NUM_SAMPLES, seed=seed,
                      labels=inputs.study_labels)


def studies(inputs: Inputs) -> List[Tuple[str, int]]:
    """Every (shape, seed) this run may submit."""
    return [("warm", inputs.warm_seed)] + [("fig6", seed) for seed in inputs.study_seeds]


def compute_references(inputs: Inputs, plan_dir: Path, jobs_dir: Path,
                       with_studies: bool) -> None:
    """Fill in every reference output the run will check against."""
    from repro.api import connect
    from repro.api.study import wait_study
    from repro.runtime import InferencePlan
    from repro.serve.registry import PlanKey

    plans = {
        key: InferencePlan.load(plan_dir / f"{PlanKey(key[0], key[2], key[1]).canonical()}.npz")
        for key in PREDICT_MODELS
    }
    inputs.small_refs = np.stack([
        plans[PREDICT_MODELS[entry % 4]].run(inputs.small_images[entry:entry + 1])[0]
        for entry in range(SMALL_POOL)
    ])
    if not with_studies:
        return
    client = connect(f"local:{plan_dir}?jobs_dir={jobs_dir}")
    try:
        for shape, seed in studies(inputs):
            job_id = client.submit_study(study_spec_for(inputs, shape, seed))
            inputs.study_refs[seed] = wait_study(client, job_id, timeout=300.0)
    finally:
        client.close()


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
def predict_matches(logits: np.ndarray, reference: np.ndarray) -> bool:
    """Same argmax and values within the coalesced-traffic tolerance."""
    logits = np.asarray(logits)
    if logits.shape != reference.shape or not np.all(np.isfinite(logits)):
        return False
    if not np.array_equal(logits.argmax(axis=-1), reference.argmax(axis=-1)):
        return False
    return bool(np.max(np.abs(logits - reference)) <= PREDICT_ATOL)


def study_matches(result, reference) -> bool:
    """Bit-identical cells, in the spec's order."""
    if result is None or len(result.cells) != len(reference.cells):
        return False
    for got, want in zip(result.cells, reference.cells):
        if (got.model, got.bits, got.mapping, got.sigma_fraction) != (
                want.model, want.bits, want.mapping, want.sigma_fraction):
            return False
        if got.accuracy != want.accuracy:
            return False
        for name in ("mean_logits", "predictions", "confidence"):
            if not np.array_equal(getattr(got, name), getattr(want, name)):
                return False
    return True
