"""The research workload ``paper_whitebox``: a small Table II slice.

Run as a script, this file is the fresh research process::

    PYTHONPATH=src python3 perfbench/research.py OUT.json [--setup-only] [--trace SPANS.json]

It times its own set-up (imports plus the context's ``train_set`` /
``eval_set`` build), then calls ``run_whitebox_evaluation`` once on a fixed
profile, which trains ``baseline``, ``conv7x7`` and ``tv_0.02`` from scratch
and attacks each with RP2.  It writes timings, the output checks and its
peak RSS to ``OUT.json``.  The profile is fixed: the recorded training
losses in ``expected_losses.json`` pin it, so ``--seed`` cannot vary it.
"""

from __future__ import annotations

import time

# Set-up time counts from here, before any other import.
_STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

VARIANTS = ("baseline", "conv7x7", "tv_0.02")
#: Relative agreement required between a final training loss and its record.
LOSS_RTOL = 1e-6
SETUP_SPAWNS = 3
EXPECTED_LOSSES = HERE / "expected_losses.json"


def profile():
    from repro.experiments.config import ExperimentProfile

    return ExperimentProfile(
        name="perfbench",
        dataset_size=200,  # 160 training images after the 20% test split
        epochs=2,
        eval_views=8,
        attack_steps=40,  # 240 RP2 steps in all: 12 samples beyond their p95
        target_classes=(5, 9),
        include_smoothing_baselines=False,
        seed=0,
    )


class _Hooks:
    """Coarse timing hooks kept on in both the plain and the traced run.

    They time ``DefendedClassifier.fit`` and ``RP2Attack.generate`` calls,
    keep each fit's loss history, and split every attack into its steps at
    ``Adam.step`` boundaries: a handful of clock reads per step, against
    steps of tens of milliseconds.
    """

    def __init__(self) -> None:
        self.variant = ""
        self.attacking = False
        self.fit_s: Dict[str, float] = {}
        self.generate_s: Dict[str, List[float]] = {}
        self.rp2_steps: Dict[str, int] = {}
        self.losses: Dict[str, List[float]] = {}
        self.rp2_step_ms: List[float] = []
        self._boundary = 0.0

    def install(self) -> None:
        from repro.attacks.rp2 import RP2Attack
        from repro.core.blurnet import DefendedClassifier
        from repro.experiments import whitebox
        from repro.models import training
        from repro.nn.optim import Adam

        hooks = self
        fit, generate, step = DefendedClassifier.fit, RP2Attack.generate, Adam.step
        train, sweep = training.train_classifier, whitebox.attack_sweep

        def timed_fit(classifier, *args, **kwargs):
            hooks.variant = classifier.name
            hooks.attacking = False
            started = time.perf_counter()
            try:
                return fit(classifier, *args, **kwargs)
            finally:
                hooks.fit_s[classifier.name] = time.perf_counter() - started

        def timed_generate(attack, *args, **kwargs):
            hooks.attacking = True
            started = hooks._boundary = time.perf_counter()
            try:
                return generate(attack, *args, **kwargs)
            finally:
                hooks.generate_s.setdefault(hooks.variant, []).append(time.perf_counter() - started)
                hooks.rp2_steps[hooks.variant] = (
                    hooks.rp2_steps.get(hooks.variant, 0) + attack.config.steps
                )

        def timed_step(optimizer):
            step(optimizer)
            if hooks.attacking:
                now = time.perf_counter()
                hooks.rp2_step_ms.append((now - hooks._boundary) * 1000.0)
                hooks._boundary = now

        def recorded_train(model, train_set, config=None, *args, **kwargs):
            history = train(model, train_set, config, *args, **kwargs)
            hooks.losses[hooks.variant] = list(history.losses)
            return history

        def named_sweep(classifier, *args, **kwargs):
            hooks.variant = classifier.name
            return sweep(classifier, *args, **kwargs)

        DefendedClassifier.fit = timed_fit
        RP2Attack.generate = timed_generate
        Adam.step = timed_step
        training.train_classifier = recorded_train
        whitebox.attack_sweep = named_sweep


def child(out: Path, setup_only: bool, trace_out: str) -> int:
    """The fresh research process."""

    from repro.experiments.context import ExperimentContext
    from repro.experiments.whitebox import run_whitebox_evaluation
    from repro.nn.inference import cached_engine

    context = ExperimentContext(profile())
    context.train_set, context.eval_set  # noqa: B018 - the set-up being timed
    setup_s = time.perf_counter() - _STARTED
    if setup_only:
        out.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    hooks = _Hooks()
    hooks.install()
    tracer = None
    if trace_out:
        from tracing import Tracer, install_research

        tracer = Tracer()
        install_research(tracer)

    started = time.perf_counter()
    rows = run_whitebox_evaluation(context, model_names=list(VARIANTS))
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(trace_out)

    from serving import probabilities_match

    failures: List[str] = []
    attempted = 0
    recorded = json.loads(EXPECTED_LOSSES.read_text()) if EXPECTED_LOSSES.exists() else {}
    test_images = context.test_set.images
    configs = context.table2_configs()
    for name in VARIANTS:
        classifier = context.get_model(configs[name])  # trained above, so cached
        engine = cached_engine(classifier.model).predict_proba(test_images)
        exact = classifier.predict_proba(test_images, batch_size=16, exact=True)
        for index in range(len(test_images)):
            attempted += 1
            if not probabilities_match(engine[index], exact[index]):
                failures.append(f"{name}: held-out image {index}: engine != autodiff forward")
        attempted += 1
        final, want = hooks.losses[name][-1], recorded.get(name)
        if want is None or abs(final - want) > LOSS_RTOL * abs(want):
            failures.append(f"{name}: final training loss {final!r} != recorded {want!r}")
    if len(rows) != len(VARIANTS):
        failures.append(f"evaluation returned {len(rows)} rows for {len(VARIANTS)} variants")

    out.write_text(
        json.dumps(
            {
                "setup_s": setup_s,
                "wall_s": wall_s,
                "fit_s": hooks.fit_s,
                "generate_s": hooks.generate_s,
                "rp2_steps": hooks.rp2_steps,
                "train_images": len(context.train_set.images) * context.profile.epochs,
                "rp2_step_ms": hooks.rp2_step_ms,
                "final_losses": {name: hooks.losses[name][-1] for name in VARIANTS},
                "attempted": attempted,
                "failures": failures,
                "peak_rss_mb": peak_rss_mb,
                "rows": [row.as_dict() for row in rows],
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# Parent side (runs in the benchmark process)
# ----------------------------------------------------------------------
def _spawn(out: Path, *flags: str) -> Dict[str, object]:
    from serving import child_environment

    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), str(out), *flags],
        cwd=ROOT,
        env=child_environment(),
        stdin=subprocess.DEVNULL,
        capture_output=True,
        timeout=170,
    )
    if completed.returncode != 0 or not out.exists():
        raise RuntimeError(
            f"research process failed ({completed.returncode}):\n"
            + completed.stderr.decode(errors="replace")[-4000:]
        )
    return json.loads(out.read_text())


def paper_whitebox(seed: int, seconds: int, trace: bool, run_dir: Path) -> Dict[str, object]:
    """Set-up probes in fresh processes, then one fresh process for the evaluation."""

    del seed, seconds  # fixed work: the recorded losses pin the profile
    setups = [
        _spawn(run_dir / f"setup-{index}.json", "--setup-only")["setup_s"]
        for index in range(SETUP_SPAWNS - 1)
    ]
    flags = ("--trace", str(run_dir / "spans.json")) if trace else ()
    result = _spawn(run_dir / "result.json", *flags)
    setups.append(result["setup_s"])

    fit_total = sum(result["fit_s"].values())
    generate_total = sum(sum(values) for values in result["generate_s"].values())
    steps_total = sum(result["rp2_steps"].values())
    outcome = {
        "attempted": result["attempted"],
        "failures": result["failures"],
        "setup_s": setups,
        "wall_s": result["wall_s"],
        "wall_n": 1,
        "wall_note": "one run_whitebox_evaluation call",
        "latency_ms": result["rp2_step_ms"],
        "latency_blocks": 1,  # the variants' steps come in runs, so no blocks
        "peak_rss_mb": [result["peak_rss_mb"]],
        "extra": {
            "train_images_per_s": (
                result["train_images"] * len(VARIANTS) / fit_total, "img/s", len(result["fit_s"])
            ),
            "rp2_steps_per_s": (steps_total / generate_total, "steps/s", steps_total),
        },
        "final_losses": result["final_losses"],
        "rows": result["rows"],
        "layers": {},
    }
    if trace:
        outcome["layers"] = research_layers(run_dir / "spans.json", result)
    return outcome


def research_layers(spans_path: Path, result: Dict[str, object]) -> Dict[str, object]:
    """Per-layer numbers of the traced research process."""

    import tracing

    spans, _counters = tracing.load(str(spans_path))
    layers: Dict[str, object] = {
        f"autodiff.forward_ms.{kind}": tracing.durations_ms(spans, f"autodiff.forward.{kind}")
        for kind in ("conv2d", "depthwise", "pool", "dense")
    }
    layers["autodiff.backward_ms"] = tracing.durations_ms(spans, "autodiff.backward")
    layers["optim.adam_step_ms"] = tracing.durations_ms(spans, "optim.adam_step")
    for kind, cls in (("linf", "LinfDepthwiseRegularizer"), ("tv", "TotalVariationRegularizer")):
        layers[f"regularizer.penalty_ms.{kind}"] = tracing.durations_ms(
            spans, "regularizer.penalty", tag=cls
        )
    layers["nps.score_ms"] = tracing.durations_ms(spans, "nps.score")
    for name in VARIANTS:
        steps = result["rp2_steps"].get(name, 0)
        generate_ms = sum(result["generate_s"].get(name, ())) * 1000.0
        layers[f"rp2.step_ms.{name}"] = generate_ms / steps if steps else 0.0
        layers[f"training.fit_s.{name}"] = result["fit_s"].get(name, 0.0)
    hooked = sum(result["fit_s"].values()) + sum(
        sum(values) for values in result["generate_s"].values()
    )
    layers["experiments.eval_s"] = result["wall_s"] - hooked
    layers["span_table"] = tracing.span_table(spans)
    return layers


if __name__ == "__main__":
    arguments = sys.argv[1:]
    trace_path = arguments[arguments.index("--trace") + 1] if "--trace" in arguments else ""
    sys.exit(child(Path(arguments[0]), "--setup-only" in arguments, trace_path))
