"""Micro-benchmarks of the NumPy substrate underlying every experiment.

These time the primitive operations that dominate the reproduction's
runtime -- the LISA-CNN forward/backward pass, the depthwise blur layer and
a single RP2 attack step -- so regressions in the substrate show up directly
in the benchmark report.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks import RP2Attack, RP2Config
from repro.core import DefenseConfig, DefendedClassifier
from repro.data import make_stop_sign_eval_set, sticker_mask
from repro.nn import Adam, Tensor, cross_entropy, depthwise_conv2d
from repro.models.lisa_cnn import LisaCNNConfig, build_lisa_cnn


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    images = rng.uniform(size=(16, 3, 32, 32))
    labels = rng.integers(0, 18, size=16)
    return images, labels


@pytest.fixture(scope="module")
def model():
    return build_lisa_cnn(LisaCNNConfig(seed=0))


def test_forward_pass(benchmark, model, batch):
    images, _labels = batch
    model.eval()
    result = benchmark(lambda: model(Tensor(images)).data)
    assert result.shape == (16, 18)


def test_forward_backward_step(benchmark, model, batch):
    images, labels = batch
    optimizer = Adam(model.parameters(), learning_rate=1e-3)

    def step():
        logits = model(Tensor(images))
        loss = cross_entropy(logits, labels)
        model.zero_grad()
        loss.backward()
        optimizer.step()
        return loss.item()

    loss_value = benchmark(step)
    assert np.isfinite(loss_value)


def test_depthwise_blur(benchmark, batch):
    images, _labels = batch
    weight = Tensor(np.full((3, 5, 5), 1.0 / 25.0))

    result = benchmark(lambda: depthwise_conv2d(Tensor(images), weight, padding=2).data)
    assert result.shape == images.shape


def test_depthwise_conv7x7_forward_backward(benchmark):
    """The trainable 7x7 BlurNet layer at its training shape (batch 32, 16 maps)."""

    feature_maps = np.random.default_rng(1).standard_normal((32, 16, 32, 32))
    weight = Tensor(np.full((16, 7, 7), 1.0 / 49.0), requires_grad=True)

    def step():
        inputs = Tensor(feature_maps, requires_grad=True)
        weight.zero_grad()
        output = depthwise_conv2d(inputs, weight, padding=3)
        output.sum().backward()
        return inputs.grad

    grad_input = benchmark(step)
    assert grad_input.shape == feature_maps.shape
    assert weight.grad.shape == weight.shape


def test_rp2_attack_short_run(benchmark):
    evaluation = make_stop_sign_eval_set(num_views=4, image_size=32, seed=0)
    masks = np.stack([sticker_mask(mask) for mask in evaluation.masks])
    classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
    attack = RP2Attack(classifier.model, RP2Config(steps=5, learning_rate=0.1, seed=0))

    result = benchmark.pedantic(
        attack.generate,
        args=(evaluation.images, masks, 5),
        rounds=1,
        iterations=1,
    )
    assert result.adversarial_images.shape == evaluation.images.shape
