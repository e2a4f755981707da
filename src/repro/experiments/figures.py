"""Figure reproductions: spectra, the DCT-dimension sweep and scatter plots.

Every function returns the *data* behind the corresponding figure (arrays /
row dictionaries) rather than a rendered image, since the repository has no
plotting dependency; the benchmark harness asserts on the data and prints
it.

* Figure 1 -- input-space FFT spectra of a clean vs sticker-perturbed stop
  sign (they look nearly identical, motivating feature-space filtering).
* Figure 2 -- first-layer feature-map spectra: clean, perturbed, their
  difference, and the blurred difference (the attack's added energy is high
  frequency and a 5x5 blur removes most of it).
* Figure 3 -- adaptive low-frequency attack success rate as a function of
  the DCT mask dimension against the 7x7 depthwise model.
* Figure 4 -- second-layer feature-map spectra of a clean sign (broadband,
  explaining why filters are only inserted after the first layer).
* Figures 5 and 6 -- scatter of per-target attack success rate vs L2
  dissimilarity for the convolution/TV models and the Tikhonov/Gaussian
  models respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.fft import high_frequency_energy_fraction, log_magnitude_spectrum
from ..analysis.feature_maps import conv_layer_names, extract_feature_maps
from ..analysis.metrics import attack_success_rate, l2_dissimilarity
from ..attacks.adaptive import low_frequency_rp2
from ..attacks.rp2 import RP2Attack
from ..core.blur_kernels import blur_images
from ..core.config import DefenseConfig, DefenseKind
from .config import ExperimentProfile
from .context import ExperimentContext, get_context
from .whitebox import rp2_config_from_profile, run_whitebox_evaluation

__all__ = [
    "SpectrumSummary",
    "figure1_input_spectra",
    "figure2_feature_spectra",
    "figure3_dct_sweep",
    "figure4_layer2_spectra",
    "figure5_scatter",
    "figure6_scatter",
]


@dataclass
class SpectrumSummary:
    """Spectra plus scalar summaries for one figure panel."""

    spectra: Dict[str, np.ndarray]
    high_frequency_fractions: Dict[str, float]


def _sticker_adversarial_views(
    context: ExperimentContext, target_class: Optional[int] = None
) -> np.ndarray:
    """RP2 adversarial versions of the evaluation views against the baseline."""

    profile = context.profile
    target_class = target_class if target_class is not None else profile.target_classes[0]
    baseline = context.get_baseline()
    attack = RP2Attack(baseline.model, rp2_config_from_profile(profile))
    result = attack.generate(context.eval_set.images, context.sticker_masks, target_class)
    return result.adversarial_images


def figure1_input_spectra(context: Optional[ExperimentContext] = None) -> SpectrumSummary:
    """Figure 1: input-space spectra of a clean and a perturbed stop sign.

    The scalar summary records the high-frequency energy fraction of each
    image's grayscale spectrum; the paper's point is that the two are nearly
    indistinguishable, so input-space filtering is poorly targeted.
    """

    context = context if context is not None else get_context()
    adversarial = _sticker_adversarial_views(context)
    clean = context.eval_set.images

    clean_gray = clean[0].mean(axis=0)
    perturbed_gray = adversarial[0].mean(axis=0)
    spectra = {
        "clean": log_magnitude_spectrum(clean_gray),
        "perturbed": log_magnitude_spectrum(perturbed_gray),
    }
    fractions = {
        "clean": high_frequency_energy_fraction(clean_gray),
        "perturbed": high_frequency_energy_fraction(perturbed_gray),
    }
    return SpectrumSummary(spectra=spectra, high_frequency_fractions=fractions)


def figure2_feature_spectra(
    context: Optional[ExperimentContext] = None,
    blur_kernel_size: int = 5,
    num_channels: int = 4,
) -> Dict[str, np.ndarray]:
    """Figure 2: first-layer feature-map spectra (clean / perturbed / diff / blurred diff).

    Returns a dictionary with, for ``num_channels`` sampled channels, the
    four columns of the figure plus scalar high-frequency energy summaries
    under the ``"summary_*"`` keys.
    """

    context = context if context is not None else get_context()
    baseline = context.get_baseline()
    adversarial = _sticker_adversarial_views(context)
    clean_image = context.eval_set.images[0]
    perturbed_image = adversarial[0]

    first_layer = conv_layer_names(baseline.model)[0]
    clean_maps = extract_feature_maps(baseline.model, clean_image[None], first_layer)[0]
    perturbed_maps = extract_feature_maps(baseline.model, perturbed_image[None], first_layer)[0]
    difference = perturbed_maps - clean_maps
    blurred_difference = blur_images(difference[None], blur_kernel_size)[0]

    channels = list(range(min(num_channels, clean_maps.shape[0])))
    result: Dict[str, np.ndarray] = {
        "clean_spectra": np.stack([log_magnitude_spectrum(clean_maps[c]) for c in channels]),
        "perturbed_spectra": np.stack(
            [log_magnitude_spectrum(perturbed_maps[c]) for c in channels]
        ),
        "difference_spectra": np.stack(
            [log_magnitude_spectrum(difference[c]) for c in channels]
        ),
        "blurred_difference_spectra": np.stack(
            [log_magnitude_spectrum(blurred_difference[c]) for c in channels]
        ),
    }
    result["summary_difference_hf"] = np.array(
        [high_frequency_energy_fraction(difference[c]) for c in channels]
    )
    result["summary_blurred_difference_hf"] = np.array(
        [high_frequency_energy_fraction(blurred_difference[c]) for c in channels]
    )
    return result


def figure3_dct_sweep(
    context: Optional[ExperimentContext] = None,
    dimensions: Optional[Sequence[int]] = None,
    model_kernel: int = 7,
) -> List[Dict[str, float]]:
    """Figure 3: adaptive attack success rate vs DCT mask dimension.

    The low-frequency RP2 attack is run against the 7x7 depthwise model for
    each mask dimension; the paper observes the attack is most effective at
    an intermediate dimension (8 in their setup).
    """

    context = context if context is not None else get_context()
    profile = context.profile
    dimensions = tuple(dimensions) if dimensions is not None else profile.dct_sweep

    config = next(
        config
        for config in context.table2_configs().values()
        if config.kind == DefenseKind.DEPTHWISE_LINF and config.kernel_size == model_kernel
    )
    classifier = context.get_model(config)
    evaluation = context.eval_set
    clean_predictions = classifier.predict(evaluation.images)
    target = profile.target_classes[0]

    rows: List[Dict[str, float]] = []
    for dimension in dimensions:
        attack = low_frequency_rp2(
            classifier.model, config=rp2_config_from_profile(profile), dct_dimension=dimension
        )
        result = attack.generate(evaluation.images, context.sticker_masks, target)
        adversarial_predictions = classifier.predict(result.adversarial_images)
        rows.append(
            {
                "dct_dimension": float(dimension),
                "attack_success_rate": attack_success_rate(
                    clean_predictions, adversarial_predictions
                ),
                "l2_dissimilarity": l2_dissimilarity(
                    evaluation.images, result.adversarial_images
                ),
            }
        )
    return rows


def figure4_layer2_spectra(
    context: Optional[ExperimentContext] = None, num_channels: int = 4
) -> SpectrumSummary:
    """Figure 4: second-layer feature-map spectra of a clean stop sign.

    The paper's point: layer-2 activations contain substantial
    high-frequency content, so low-pass filtering them would destroy
    information the classifier needs -- which is why BlurNet only filters
    after the first layer.
    """

    context = context if context is not None else get_context()
    baseline = context.get_baseline()
    clean_image = context.eval_set.images[0]

    conv_names = conv_layer_names(baseline.model)
    if len(conv_names) < 2:
        raise ValueError("the classifier needs at least two convolution layers for Figure 4")
    layer1_maps = extract_feature_maps(baseline.model, clean_image[None], conv_names[0])[0]
    layer2_maps = extract_feature_maps(baseline.model, clean_image[None], conv_names[1])[0]

    channels = list(range(min(num_channels, layer2_maps.shape[0])))
    spectra = {
        "layer2": np.stack([log_magnitude_spectrum(layer2_maps[c]) for c in channels]),
    }
    fractions = {
        "layer1_mean_hf": float(
            np.mean([high_frequency_energy_fraction(m) for m in layer1_maps])
        ),
        "layer2_mean_hf": float(
            np.mean([high_frequency_energy_fraction(m) for m in layer2_maps])
        ),
    }
    return SpectrumSummary(spectra=spectra, high_frequency_fractions=fractions)


def _scatter_rows(context: ExperimentContext, model_names: Sequence[str]) -> List[Dict[str, float]]:
    """Per-target (success rate, dissimilarity) points for the scatter figures."""

    rows: List[Dict[str, float]] = []
    for sweep in run_whitebox_evaluation(context, model_names=model_names):
        for target, success in sweep.per_target_success.items():
            rows.append(
                {
                    "model": sweep.model_name,
                    "target_class": float(target),
                    "attack_success_rate": success,
                    "l2_dissimilarity": sweep.per_target_dissimilarity[target],
                }
            )
    return rows


def figure5_scatter(context: Optional[ExperimentContext] = None) -> List[Dict[str, float]]:
    """Figure 5: per-target ASR vs L2 dissimilarity for conv-width and TV models."""

    context = context if context is not None else get_context()
    names = [
        name
        for name, config in context.table2_configs().items()
        if config.kind in {DefenseKind.DEPTHWISE_LINF, DefenseKind.TOTAL_VARIATION}
    ]
    return _scatter_rows(context, names)


def figure6_scatter(context: Optional[ExperimentContext] = None) -> List[Dict[str, float]]:
    """Figure 6: per-target ASR vs L2 dissimilarity for Tikhonov and Gaussian models."""

    context = context if context is not None else get_context()
    names = [
        name
        for name, config in context.table2_configs().items()
        if config.kind
        in {DefenseKind.TIKHONOV_HF, DefenseKind.TIKHONOV_PSEUDO, DefenseKind.GAUSSIAN_AUGMENTATION}
    ]
    return _scatter_rows(context, names)
