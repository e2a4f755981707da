"""Tests for the compiled inference engine and batched no_grad helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DefenseConfig, DefendedClassifier
from repro.models.factory import variant_catalog
from repro.nn import Tensor
from repro.core.blur_kernels import gaussian_kernel
from repro.nn.inference import (
    InferenceEngine,
    _rank_one_factors,
    batched_forward,
    batched_predict_proba,
    compile_inference,
    softmax_probabilities,
)
from repro.nn.layers import DepthwiseConv2D, Flatten, Layer, Sequential


ENGINE_VARIANTS = [
    DefenseConfig.baseline(),
    DefenseConfig.input_blur(3),
    DefenseConfig.feature_blur(5),
    DefenseConfig.depthwise_linf(3, alpha=1e-3),
]


@pytest.fixture(scope="module")
def images() -> np.ndarray:
    return np.random.default_rng(42).random((9, 3, 32, 32))


class TestEngineEquivalence:
    @pytest.mark.parametrize("config", ENGINE_VARIANTS, ids=lambda c: c.name)
    def test_matches_tensor_forward(self, config, images):
        classifier = DefendedClassifier.build(config, seed=0)
        reference = classifier.predict_logits(images)
        engine = InferenceEngine(classifier.model)
        logits = engine.predict_logits(images)
        assert logits.shape == reference.shape
        np.testing.assert_allclose(logits, reference, atol=1e-4)
        assert (logits.argmax(axis=-1) == reference.argmax(axis=-1)).all()

    def test_float64_engine_is_exact(self, images):
        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        engine = InferenceEngine(classifier.model, dtype=np.float64)
        np.testing.assert_allclose(
            engine.predict_logits(images), classifier.predict_logits(images), atol=1e-10
        )

    def test_chunking_is_invisible(self, images):
        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        engine = compile_inference(classifier.model)
        full = engine.predict_logits(images, batch_size=len(images))
        chunked = engine.predict_logits(images, batch_size=2)
        np.testing.assert_allclose(full, chunked, atol=1e-5)

    def test_single_image_gets_batch_axis(self, images):
        engine = InferenceEngine(DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model)
        assert engine.forward(images[0]).shape[0] == 1

    def test_probabilities_normalized(self, images):
        engine = InferenceEngine(DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model)
        probabilities = engine.predict_proba(images)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0, atol=1e-5)
        assert (probabilities >= 0).all()

    def test_refresh_picks_up_new_weights(self, images):
        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        engine = InferenceEngine(classifier.model)
        before = engine.predict_logits(images)
        dense = classifier.model.layers[-1]
        dense.bias.data = dense.bias.data + 5.0
        # Snapshot semantics: stale until refreshed.
        np.testing.assert_allclose(engine.predict_logits(images), before, atol=1e-5)
        engine.refresh()
        np.testing.assert_allclose(
            engine.predict_logits(images), before + 5.0, atol=1e-4
        )

    @pytest.mark.parametrize("channels", [3, 16], ids=["channels_first", "nhwc"])
    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("taps", ["gaussian", "rank_one", "full_rank"])
    def test_depthwise_layer_matches_tensor_forward(self, taps, kernel, channels):
        # Rank-1 taps run as row-then-column passes; any other kernel runs
        # one pass per tap.  Both must match autodiff.  The asymmetric
        # rank-1 case catches swapped row and column factors.
        rng = np.random.default_rng(kernel * channels)
        if taps == "gaussian":
            weight = np.stack([gaussian_kernel(kernel)] * channels)
        elif taps == "rank_one":
            columns = rng.standard_normal((channels, kernel, 1))
            rows = rng.standard_normal((channels, 1, kernel))
            weight = columns * rows
        else:
            weight = rng.standard_normal((channels, kernel, kernel))
        assert (_rank_one_factors(weight) is None) == (taps == "full_rank")

        model = Sequential(
            [DepthwiseConv2D(channels, kernel, initial_weight=weight), Flatten()]
        )
        inputs = np.random.default_rng(1).standard_normal((4, channels, 11, 13))
        reference = model(Tensor(inputs)).data
        float64_engine = InferenceEngine(model, dtype=np.float64)
        np.testing.assert_allclose(float64_engine.forward(inputs), reference, atol=1e-10)
        np.testing.assert_allclose(InferenceEngine(model).forward(inputs), reference, atol=1e-4)

    def test_unknown_layer_falls_back_to_tensor_forward(self, images):
        class Doubler(Layer):
            def forward(self, inputs: Tensor) -> Tensor:
                return inputs * 2.0

        base = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        model = Sequential([Doubler()] + list(base.layers))
        engine = InferenceEngine(model)
        with_tensor = batched_forward(model, images)
        np.testing.assert_allclose(engine.predict_logits(images), with_tensor, atol=1e-3)


class TestBatchedHelpers:
    def test_batched_forward_matches_model(self, images):
        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        from repro.models.training import predict_logits

        np.testing.assert_allclose(
            batched_forward(model, images, batch_size=3), predict_logits(model, images)
        )

    def test_batched_forward_rejects_bad_batch_size(self, images):
        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        with pytest.raises(ValueError):
            batched_forward(model, images, batch_size=0)

    def test_batched_predict_proba_normalized(self, images):
        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        probabilities = batched_predict_proba(model, images, batch_size=4)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0)

    def test_softmax_probabilities_stable(self):
        logits = np.array([[1000.0, 1000.0], [-1000.0, 0.0]])
        probabilities = softmax_probabilities(logits)
        np.testing.assert_allclose(probabilities[0], [0.5, 0.5])
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0)


class TestDefendedClassifierProba:
    def test_predict_proba_matches_logits_softmax(self, images):
        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        expected = softmax_probabilities(classifier.predict_logits(images))
        # Default (compiled float32 engine): float32-tolerance agreement.
        probabilities = classifier.predict_proba(images, batch_size=4)
        np.testing.assert_allclose(probabilities, expected, atol=1e-5)
        # Exact opt-out: bit-faithful to the float64 logits.
        np.testing.assert_allclose(
            classifier.predict_proba(images, batch_size=4, exact=True), expected
        )

    def test_predict_chunked_matches_unchunked(self, images):
        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        np.testing.assert_array_equal(
            classifier.predict(images, batch_size=2), classifier.predict(images)
        )

    def test_smoothing_predict_proba_is_vote_share(self, tiny_split, tiny_training_config):
        train_set, test_set = tiny_split
        classifier = DefendedClassifier.build(
            DefenseConfig.randomized_smoothing(0.1, samples=5), seed=0, image_size=16
        )
        classifier.fit(train_set, tiny_training_config)
        classifier.install_smoothing()  # reset the vote RNG for determinism
        probabilities = classifier.predict_proba(test_set.images[:6], batch_size=2)
        np.testing.assert_allclose(probabilities.sum(axis=-1), 1.0)
        # Vote shares are multiples of 1/num_samples.
        np.testing.assert_allclose(probabilities * 5, np.round(probabilities * 5), atol=1e-9)
        classifier.install_smoothing()  # same RNG stream for the second pass
        np.testing.assert_array_equal(
            probabilities.argmax(axis=-1), classifier.predict(test_set.images[:6], batch_size=2)
        )


class TestCatalogParity:
    """Engine parity across every variant the registry can serve.

    The compiled float32 engine must agree with the float64 autodiff
    forward on every ``variant_catalog`` architecture: logits within
    float32 tolerance, arg-max decisions identical.
    """

    @pytest.mark.parametrize("name", sorted(variant_catalog()))
    def test_engine_matches_autodiff_forward(self, name, images):
        from repro.models.factory import build_variant, resolve_variant
        from repro.nn.inference import cached_engine

        classifier = build_variant(resolve_variant(name), seed=3, image_size=32)
        reference = classifier.predict_logits(images)
        engine = cached_engine(classifier.model)
        logits = engine.predict_logits(images, batch_size=4)
        assert logits.dtype == np.float32
        np.testing.assert_allclose(logits, reference, atol=1e-3, rtol=1e-4)
        assert (logits.argmax(axis=-1) == reference.argmax(axis=-1)).all()


class TestCachedEngine:
    def test_same_engine_is_reused_while_weights_unchanged(self, images):
        from repro.nn.inference import cached_engine

        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        first = cached_engine(model)
        second = cached_engine(model)
        assert first is second

    def test_state_dict_reload_recompiles_automatically(self, images):
        from repro.nn.inference import cached_engine
        from repro.nn.serialization import load_state_dict, state_dict

        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        donor = DefendedClassifier.build(DefenseConfig.baseline(), seed=99)
        before = cached_engine(classifier.model).predict_logits(images)
        # Reload different weights into the SAME model object: the cache
        # must notice (the stale-engine footgun this PR fixes).
        load_state_dict(classifier.model, state_dict(donor.model))
        after_engine = cached_engine(classifier.model)
        after = after_engine.predict_logits(images)
        assert not np.allclose(before, after)
        np.testing.assert_allclose(
            after, donor.predict_logits(images), atol=1e-3, rtol=1e-4
        )

    def test_optimizer_step_invalidates_fingerprint(self, images):
        from repro.nn.inference import cached_engine, weights_fingerprint
        from repro.nn.optim import Adam
        from repro.nn.tensor import Tensor

        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        model = classifier.model
        engine = cached_engine(model)
        # Pin the pre-step arrays so recycled ids cannot mask the change.
        pinned = [parameter.data for parameter in model.parameters()]
        fingerprint = weights_fingerprint(model)
        # One training step reassigns parameter arrays...
        optimizer = Adam(model.parameters(), learning_rate=1e-3)
        model.train()
        loss = model(Tensor(images[:2])).sum()
        model.zero_grad()
        loss.backward()
        optimizer.step()
        assert weights_fingerprint(model) != fingerprint
        # ...so the next cached_engine call compiles fresh ops.
        assert cached_engine(model) is not engine
        del pinned

    def test_cache_does_not_keep_models_alive(self, images):
        import gc
        import weakref

        from repro.nn.inference import cached_engine

        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        engine = cached_engine(model)
        expected = engine.predict_logits(images)
        model_ref = weakref.ref(model)
        del model
        gc.collect()
        # The cache and the engine reference the model weakly: it must be
        # collectable even while the compiled engine is still in use.
        assert model_ref() is None
        np.testing.assert_array_equal(engine.predict_logits(images), expected)
        with pytest.raises(RuntimeError):
            engine.refresh()

    def test_in_place_mutation_needs_explicit_invalidation(self, images):
        from repro.nn.inference import cached_engine, invalidate_cached_engine

        classifier = DefendedClassifier.build(DefenseConfig.baseline(), seed=0)
        model = classifier.model
        before = cached_engine(model).predict_logits(images)
        dense = model.layers[-1]
        dense.bias.data[:] = dense.bias.data + 5.0  # in-place: fingerprint-blind
        stale = cached_engine(model).predict_logits(images)
        np.testing.assert_allclose(stale, before, atol=1e-5)
        invalidate_cached_engine(model)
        refreshed = cached_engine(model).predict_logits(images)
        np.testing.assert_allclose(refreshed, before + 5.0, atol=1e-3)

    def test_predict_classes_rides_the_cached_engine(self, images):
        from repro.models.training import predict_classes
        from repro.nn.inference import cached_engine

        model = DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model
        np.testing.assert_array_equal(
            predict_classes(model, images), cached_engine(model).predict(images)
        )
        np.testing.assert_array_equal(
            predict_classes(model, images, exact=True),
            predict_classes(model, images),
        )


class TestWorkspaceReuse:
    def test_changing_batch_sizes_share_one_engine(self, images):
        engine = InferenceEngine(DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model)
        full = engine.predict_logits(images, batch_size=len(images))
        for batch_size in (1, 2, 5, len(images)):
            np.testing.assert_allclose(
                engine.predict_logits(images, batch_size=batch_size), full, atol=1e-5
            )

    def test_outputs_are_not_workspace_views(self, images):
        engine = InferenceEngine(DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model)
        first = engine.forward(images[:2])
        snapshot = first.copy()
        engine.forward(images[2:4])  # reuses the same workspaces
        np.testing.assert_array_equal(first, snapshot)

    def test_concurrent_forwards_from_threads_are_correct(self, images):
        import threading

        engine = InferenceEngine(DefendedClassifier.build(DefenseConfig.baseline(), seed=0).model)
        expected = engine.predict_logits(images, batch_size=3)
        results = {}

        def worker(tag):
            out = [engine.predict_logits(images, batch_size=3) for _ in range(5)]
            results[tag] = out

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for outputs in results.values():
            for out in outputs:
                np.testing.assert_allclose(out, expected, atol=1e-5)
