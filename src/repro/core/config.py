"""Defense configurations: every model variant evaluated in the paper.

A :class:`DefenseConfig` describes one defended (or baseline) classifier:
which architectural element it adds (frozen input/feature blur, trainable
depthwise layer), which feature-map regularizer it is trained with, whether
Gaussian augmentation / randomized smoothing / adversarial training is
used, and the associated hyper-parameters.

:func:`table2_variants` returns the full set of rows of the paper's
white-box evaluation (Table II); the black-box experiment (Table I) uses
:func:`table1_variants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["DefenseKind", "DefenseConfig", "table1_variants", "table2_variants"]


class DefenseKind:
    """String constants naming each defense family."""

    BASELINE = "baseline"
    INPUT_BLUR = "input_blur"
    FEATURE_BLUR = "feature_blur"
    DEPTHWISE_LINF = "depthwise_linf"
    TOTAL_VARIATION = "tv"
    TIKHONOV_HF = "tik_hf"
    TIKHONOV_PSEUDO = "tik_pseudo"
    GAUSSIAN_AUGMENTATION = "gaussian_aug"
    RANDOMIZED_SMOOTHING = "randomized_smoothing"
    ADVERSARIAL_TRAINING = "adv_train"

    ALL = (
        BASELINE,
        INPUT_BLUR,
        FEATURE_BLUR,
        DEPTHWISE_LINF,
        TOTAL_VARIATION,
        TIKHONOV_HF,
        TIKHONOV_PSEUDO,
        GAUSSIAN_AUGMENTATION,
        RANDOMIZED_SMOOTHING,
        ADVERSARIAL_TRAINING,
    )


@dataclass
class DefenseConfig:
    """Full description of one defended classifier variant.

    Attributes
    ----------
    kind:
        One of the :class:`DefenseKind` constants.
    name:
        Human-readable row label (defaults to a descriptive string derived
        from the other fields).
    kernel_size:
        Blur / depthwise kernel width (input blur, feature blur and
        depthwise-L-infinity variants).
    alpha:
        Regularization strength for the L-infinity / TV / Tikhonov penalty
        (the ``alpha`` column of Table II).
    sigma:
        Gaussian noise standard deviation (Gaussian augmentation and
        randomized smoothing variants).
    smoothing_samples:
        Monte-Carlo samples of the randomized-smoothing vote.
    tikhonov_window:
        Moving-average window of the ``L_hf`` operator.
    """

    kind: str
    name: Optional[str] = None
    kernel_size: Optional[int] = None
    alpha: float = 0.0
    sigma: float = 0.0
    smoothing_samples: int = 100
    tikhonov_window: int = 3

    def __post_init__(self) -> None:
        if self.kind not in DefenseKind.ALL:
            raise ValueError(f"unknown defense kind {self.kind!r}")
        if self.kind in {DefenseKind.INPUT_BLUR, DefenseKind.FEATURE_BLUR, DefenseKind.DEPTHWISE_LINF}:
            if self.kernel_size is None:
                raise ValueError(f"{self.kind} requires kernel_size")
        if self.kind in {DefenseKind.GAUSSIAN_AUGMENTATION, DefenseKind.RANDOMIZED_SMOOTHING}:
            if self.sigma <= 0.0:
                raise ValueError(f"{self.kind} requires a positive sigma")
        if self.name is None:
            self.name = self._default_name()

    def _default_name(self) -> str:
        if self.kind == DefenseKind.BASELINE:
            return "baseline"
        if self.kind == DefenseKind.INPUT_BLUR:
            return f"input_filter_{self.kernel_size}x{self.kernel_size}"
        if self.kind == DefenseKind.FEATURE_BLUR:
            return f"feature_filter_{self.kernel_size}x{self.kernel_size}"
        if self.kind == DefenseKind.DEPTHWISE_LINF:
            return f"conv{self.kernel_size}x{self.kernel_size}"
        if self.kind == DefenseKind.TOTAL_VARIATION:
            return f"tv_{self.alpha:g}"
        if self.kind == DefenseKind.TIKHONOV_HF:
            return f"tik_hf_{self.alpha:g}"
        if self.kind == DefenseKind.TIKHONOV_PSEUDO:
            return f"tik_pseudo_{self.alpha:g}"
        if self.kind == DefenseKind.GAUSSIAN_AUGMENTATION:
            return f"gaussian_aug_{self.sigma:g}"
        if self.kind == DefenseKind.RANDOMIZED_SMOOTHING:
            return f"rand_smooth_{self.sigma:g}"
        return "adv_train"

    # -- convenience constructors matching the paper's rows -------------------
    @staticmethod
    def baseline() -> "DefenseConfig":
        """The undefended LISA-CNN baseline."""

        return DefenseConfig(kind=DefenseKind.BASELINE)

    @staticmethod
    def input_blur(kernel_size: int) -> "DefenseConfig":
        """Frozen input blur (Table I)."""

        return DefenseConfig(kind=DefenseKind.INPUT_BLUR, kernel_size=kernel_size)

    @staticmethod
    def feature_blur(kernel_size: int) -> "DefenseConfig":
        """Frozen depthwise blur on first-layer feature maps (Table I)."""

        return DefenseConfig(kind=DefenseKind.FEATURE_BLUR, kernel_size=kernel_size)

    @staticmethod
    def depthwise_linf(kernel_size: int, alpha: float) -> "DefenseConfig":
        """Trainable depthwise layer with L-infinity regularization (Eq. (2))."""

        return DefenseConfig(kind=DefenseKind.DEPTHWISE_LINF, kernel_size=kernel_size, alpha=alpha)

    @staticmethod
    def total_variation(alpha: float) -> "DefenseConfig":
        """Total-variation regularization of first-layer feature maps (Eq. (4))."""

        return DefenseConfig(kind=DefenseKind.TOTAL_VARIATION, alpha=alpha)

    @staticmethod
    def tikhonov_hf(alpha: float, window: int = 3) -> "DefenseConfig":
        """Tikhonov regularization with the high-frequency operator (Eq. (6))."""

        return DefenseConfig(kind=DefenseKind.TIKHONOV_HF, alpha=alpha, tikhonov_window=window)

    @staticmethod
    def tikhonov_pseudo(alpha: float) -> "DefenseConfig":
        """Tikhonov regularization with the pseudoinverse smoothing operator (Eq. (7))."""

        return DefenseConfig(kind=DefenseKind.TIKHONOV_PSEUDO, alpha=alpha)

    @staticmethod
    def gaussian_augmentation(sigma: float) -> "DefenseConfig":
        """Gaussian data augmentation baseline."""

        return DefenseConfig(kind=DefenseKind.GAUSSIAN_AUGMENTATION, sigma=sigma)

    @staticmethod
    def randomized_smoothing(sigma: float, samples: int = 100) -> "DefenseConfig":
        """Randomized smoothing baseline (Gaussian training + MC voting)."""

        return DefenseConfig(
            kind=DefenseKind.RANDOMIZED_SMOOTHING, sigma=sigma, smoothing_samples=samples
        )

    @staticmethod
    def adversarial_training() -> "DefenseConfig":
        """PGD adversarial training baseline."""

        return DefenseConfig(kind=DefenseKind.ADVERSARIAL_TRAINING)


def table1_variants() -> Dict[str, DefenseConfig]:
    """The model variants of the black-box evaluation (Table I)."""

    variants = [
        DefenseConfig.baseline(),
        DefenseConfig.input_blur(3),
        DefenseConfig.input_blur(5),
        DefenseConfig.feature_blur(3),
        DefenseConfig.feature_blur(5),
    ]
    return {variant.name: variant for variant in variants}


def table2_variants(
    include_baselines: bool = True, smoothing_samples: int = 100
) -> Dict[str, DefenseConfig]:
    """The model variants of the white-box evaluation (Table II).

    Parameters
    ----------
    include_baselines:
        Include the Gaussian augmentation, randomized smoothing and
        adversarial training comparison rows (they dominate the runtime of
        the full sweep, so the fast experiment profile can drop them).
    smoothing_samples:
        Monte-Carlo samples used by the randomized-smoothing rows.
    """

    variants = [DefenseConfig.baseline()]
    if include_baselines:
        for sigma in (0.1, 0.2, 0.3):
            variants.append(DefenseConfig.gaussian_augmentation(sigma))
        for sigma in (0.1, 0.2, 0.3):
            variants.append(DefenseConfig.randomized_smoothing(sigma, smoothing_samples))
        variants.append(DefenseConfig.adversarial_training())
    # Regularization strengths are calibrated to the synthetic dataset and the
    # NumPy LISA-CNN rather than copied verbatim from the paper (the penalty
    # magnitudes depend on the feature-map scale of the substrate).  The row
    # correspondence to Table II is: conv3/5/7 <-> the 3x3/5x5/7x7 depthwise
    # rows, tv_0.02 <-> "TV 1e-4", tv_0.01 <-> "TV 1e-5", tik_hf_1 <-> "Tik_hf
    # 1e-4" and tik_pseudo_0.0001 <-> "Tik_pseudo 1e-6".
    variants.extend(
        [
            DefenseConfig.depthwise_linf(3, alpha=1e-3),
            DefenseConfig.depthwise_linf(5, alpha=0.1),
            DefenseConfig.depthwise_linf(7, alpha=0.1),
            DefenseConfig.total_variation(2e-2),
            DefenseConfig.total_variation(1e-2),
            DefenseConfig.tikhonov_hf(1.0),
            DefenseConfig.tikhonov_pseudo(1e-4),
        ]
    )
    return {variant.name: variant for variant in variants}
