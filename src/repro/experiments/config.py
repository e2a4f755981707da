"""Experiment profiles: scaled-down and full-size reproduction settings.

The paper's evaluation trains a dozen classifier variants for 2000 epochs
and attacks each with 300-step RP2 runs swept over all 17 target classes.
That sweep is far too expensive for a test suite, so every experiment in
:mod:`repro.experiments` is parameterized by an :class:`ExperimentProfile`:

* ``fast_profile()`` -- the default used by the test suite and the
  benchmark harness; small dataset, short training, a handful of target
  classes.  Completes on a laptop CPU.
* ``full_profile()`` -- closer to the paper's sweep sizes (all 17 target
  classes, more training, the 40-view evaluation set); intended for
  overnight reproduction runs.

All profiles are deterministic given their ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["ExperimentProfile", "fast_profile", "full_profile", "smoke_profile"]


@dataclass
class ExperimentProfile:
    """Knobs shared by every experiment.

    Attributes
    ----------
    name:
        Profile identifier (used for caching trained models).
    dataset_size:
        Number of synthetic training+test images.
    image_size:
        Image height/width in pixels.
    test_fraction:
        Fraction of the dataset held out for the legitimate-accuracy column.
    epochs, batch_size, learning_rate:
        Classifier training hyper-parameters.
    eval_views:
        Number of stop-sign views in the attack evaluation set (40 in the
        paper).
    attack_steps, attack_learning_rate, attack_lambda, attack_nps_weight:
        RP2 optimization hyper-parameters.
    target_classes:
        The RP2 target classes swept by the white-box and adaptive
        evaluations (the paper sweeps all 17 non-stop classes).
    pgd_epsilon, pgd_step_size, pgd_steps:
        Table IV PGD parameters.
    smoothing_samples:
        Monte-Carlo samples of the randomized-smoothing rows.
    include_smoothing_baselines:
        Whether Table II includes the Gaussian / randomized smoothing /
        adversarial-training baselines (they dominate runtime).
    dct_dimension:
        Default DCT mask size of the low-frequency adaptive attack.
    dct_sweep:
        Mask sizes swept by Figure 3.
    seed:
        Master seed for dataset generation and model initialization.
    """

    name: str = "fast"
    dataset_size: int = 400
    image_size: int = 32
    test_fraction: float = 0.2
    epochs: int = 8
    batch_size: int = 32
    learning_rate: float = 2e-3
    eval_views: int = 12
    attack_steps: int = 80
    attack_learning_rate: float = 0.08
    attack_lambda: float = 0.1
    attack_nps_weight: float = 0.02
    target_classes: Tuple[int, ...] = (5, 9, 14)
    # The paper uses eps = 8/255 with 10 steps.  The synthetic sign classes
    # are far more separable than LISA photographs (the classifier margin
    # exceeds 8/255), so the unconstrained-pixel experiment (Table IV) uses a
    # proportionally larger budget on this substrate.
    pgd_epsilon: float = 0.12
    pgd_step_size: float = 0.02
    pgd_steps: int = 20
    smoothing_samples: int = 20
    include_smoothing_baselines: bool = True
    dct_dimension: int = 16
    dct_sweep: Tuple[int, ...] = (4, 8, 16, 32)
    seed: int = 0

    def describe(self) -> str:
        """One-line human-readable summary of the profile."""

        return (
            f"profile={self.name}: {self.dataset_size} images, {self.epochs} epochs, "
            f"{self.eval_views} eval views, {len(self.target_classes)} attack targets, "
            f"{self.attack_steps} attack steps"
        )


def smoke_profile() -> ExperimentProfile:
    """Minimal profile for unit tests of the experiment plumbing itself."""

    return ExperimentProfile(
        name="smoke",
        dataset_size=120,
        epochs=2,
        eval_views=6,
        attack_steps=12,
        target_classes=(5,),
        smoothing_samples=5,
        include_smoothing_baselines=False,
        dct_sweep=(4, 16),
    )


def fast_profile() -> ExperimentProfile:
    """Default laptop-scale profile used by the benchmark harness."""

    return ExperimentProfile(name="fast")


def full_profile() -> ExperimentProfile:
    """Paper-scale sweep (all 17 target classes, 40 views, longer training)."""

    return ExperimentProfile(
        name="full",
        dataset_size=2000,
        epochs=30,
        eval_views=40,
        attack_steps=300,
        target_classes=tuple(label for label in range(18) if label != 0),
        smoothing_samples=100,
        dct_sweep=(4, 8, 16, 32),
    )
