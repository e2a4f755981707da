"""Online autotuning of the micro-batch size.

The scheduler's one knob -- ``max_batch_size``, how many requests one
forward amortizes over -- has no single right value: the engine's
throughput curve peaks somewhere in the 16-32 range on this substrate
(see ``docs/performance.md``), and the exact peak moves with model
variant and host.  A fixed setting is therefore always wrong for some
traffic.  (There is no wait knob: dispatch is busy-driven, so a batch
holds whatever queued while the previous one ran.)

:class:`BatchTuner` closes the loop online:

* **batch size** is hill-climbed over a power-of-two ladder between
  ``min_batch_size`` and ``max_batch_size``.  Executed batches are
  aggregated into *epochs* (at least ``epoch_batches`` batches and
  ``epoch_min_images`` images); each epoch yields one throughput
  measurement (batched images per busy second) that is folded into a
  per-rung EWMA -- the climber's memory of every rung it has visited,
  with unvisited rungs' estimates decaying slightly every epoch so stale
  memory loses to fresh evidence -- and the climber moves one rung when
  the current rung's estimate measurably beats the settled rung's,
  reverts when it measurably loses, and sits still otherwise;
* **hysteresis** keeps the controller from oscillating on measurement
  noise: moves need a relative improvement beyond ``rel_tolerance``, a
  revert parks the climber for ``hold_epochs`` epochs before it probes
  again (in the opposite direction), and plateaus -- two rungs within
  the dead band -- settle on whichever rung measured higher, then park.

The tuner is embedded by :class:`~repro.serve.batching.MicroBatcher`,
which feeds it every executed batch and re-reads
:attr:`BatchTuner.batch_size` after each one.  The tuner object lives on
the *server* (thread, sync or process replica), not the scheduler, so its
learned state survives scheduler rebuilds and worker-process respawns.

Thread-safety: all methods take an internal lock.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["BatchTuner"]


class BatchTuner:
    """Hill-climbing controller for ``max_batch_size``.

    Parameters
    ----------
    initial_batch_size:
        Starting batch-size rung (clamped into the configured bounds).
    min_batch_size, max_batch_size:
        Inclusive bounds of the power-of-two batch-size ladder.
    epoch_batches:
        Minimum executed batches aggregated into one throughput
        measurement.
    epoch_min_images:
        Minimum *images* an epoch must also cover before it closes.
        Without this floor, epochs at small batch sizes would span only a
        few milliseconds of work and their throughput estimates would be
        noise -- the floor gives every rung's measurement comparable
        sample size.  Set to 1 to close epochs on batch count alone.
    rel_tolerance:
        Relative throughput change below which two epochs are considered
        equal (the hysteresis dead band).
    hold_epochs:
        Epochs the climber sits still after a revert or plateau before
        probing again.
    """

    def __init__(
        self,
        initial_batch_size: int = 8,
        min_batch_size: int = 2,
        max_batch_size: int = 64,
        epoch_batches: int = 8,
        epoch_min_images: int = 128,
        rel_tolerance: float = 0.05,
        hold_epochs: int = 6,
    ) -> None:
        if min_batch_size < 1 or max_batch_size < min_batch_size:
            raise ValueError(
                f"need 1 <= min_batch_size <= max_batch_size; got "
                f"[{min_batch_size}, {max_batch_size}]"
            )
        if epoch_batches < 1:
            raise ValueError("epoch_batches must be positive")
        if epoch_min_images < 1:
            raise ValueError("epoch_min_images must be positive")
        if rel_tolerance < 0:
            raise ValueError("rel_tolerance must be non-negative")
        if hold_epochs < 0:
            raise ValueError("hold_epochs must be non-negative")
        self.min_batch_size = min_batch_size
        self.max_batch_size = max_batch_size
        self.epoch_batches = epoch_batches
        self.epoch_min_images = epoch_min_images
        self.rel_tolerance = rel_tolerance
        self.hold_epochs = hold_epochs

        self._lock = threading.Lock()
        self._batch_size = min(max(initial_batch_size, min_batch_size), max_batch_size)
        self._direction = 1  # +1 grow, -1 shrink
        self._settled: Optional[int] = None  # last accepted rung
        self._hold = 0
        self._frozen = False
        # Smoothed throughput per rung (EWMA across visits).  Decisions
        # compare these instead of raw single-epoch rates: every probe of
        # a rung adds evidence, so one noisy epoch cannot permanently
        # wrong-foot the climber.
        self._rung_rates: Dict[int, float] = {}
        # Current-epoch accumulators.
        self._epoch_batch_count = 0
        self._epoch_images = 0
        self._epoch_busy_seconds = 0.0
        # Observability counters.  The history is bounded: a tuner lives
        # as long as its server and must not grow with uptime.
        self.epochs = 0
        self.adjustments = 0
        self.history: Deque[Dict[str, float]] = deque(maxlen=256)

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def record_batch(self, size: int, latency_seconds: float) -> None:
        """Note one executed micro-batch of ``size`` images.

        ``latency_seconds`` is the wall time of the batch run (for process
        replicas it includes the pipe round trip to the worker).
        An epoch closes -- and may move the batch-size rung -- once at
        least ``epoch_batches`` batches *and* ``epoch_min_images`` images
        have been observed.
        """

        if size < 1 or latency_seconds < 0:
            return
        with self._lock:
            if self._frozen:
                return
            self._epoch_batch_count += 1
            self._epoch_images += size
            self._epoch_busy_seconds += latency_seconds
            if (
                self._epoch_batch_count >= self.epoch_batches
                and self._epoch_images >= self.epoch_min_images
            ):
                self._end_epoch_locked()

    def _end_epoch_locked(self) -> None:
        """Close the current epoch and hill-climb (caller holds the lock)."""

        images, busy = self._epoch_images, self._epoch_busy_seconds
        self._epoch_batch_count = 0
        self._epoch_images = 0
        self._epoch_busy_seconds = 0.0
        if busy <= 0.0:
            return
        epoch_rate = images / busy
        self.epochs += 1
        self.history.append(
            {
                "epoch": float(self.epochs),
                "batch_size": float(self._batch_size),
                "rate": epoch_rate,
            }
        )
        # Fold the epoch into the rung's running estimate (EWMA across
        # visits): re-probing a rung refines its rate rather than
        # replacing it, so the climber's memory improves over time.  The
        # blend also lets genuine workload drift overwrite stale history
        # within a couple of visits.
        previous = self._rung_rates.get(self._batch_size)
        rate = epoch_rate if previous is None else 0.5 * epoch_rate + 0.5 * previous
        self._rung_rates[self._batch_size] = rate
        # Staleness decay: estimates of rungs *not* being measured fade
        # slightly every epoch.  An estimate recorded during a fast phase
        # of the host (or workload) would otherwise stay inflated forever
        # and keep winning comparisons against honestly re-measured
        # rungs; decay guarantees stale memory loses to fresh evidence
        # within a few dozen epochs.
        for rung in self._rung_rates:
            if rung != self._batch_size:
                self._rung_rates[rung] *= 0.98
        if self._hold > 0:
            # Parked after a revert/plateau: keep refreshing this rung's
            # estimate, and probe one rung when the park expires
            # (re-checking the neighborhood is how the controller notices
            # workload drift).
            self._hold -= 1
            self._settled = self._batch_size
            if self._hold == 0:
                self._step_locked()
            return
        if self._settled is None:
            self._settled = self._batch_size
            if not self._step_locked():
                self._hold = self.hold_epochs
            return
        settled_size = self._settled
        settled_rate = self._rung_rates.get(settled_size, rate)
        if self._batch_size == settled_size:
            # Still on the settled rung (e.g. a revert landed here): just
            # probe onward.
            self._step_locked()
            return
        if rate >= settled_rate * (1.0 + self.rel_tolerance):
            # Measurable win: accept this rung and keep climbing.
            self._settled = self._batch_size
            if not self._step_locked():
                self._hold = self.hold_epochs  # at a ladder bound
        elif rate <= settled_rate * (1.0 - self.rel_tolerance):
            # Measurable loss: revert, park, and probe the other way later.
            self._batch_size = settled_size
            self._direction = -self._direction
            self._hold = self.hold_epochs
            self.adjustments += 1
        else:
            # Plateau: the two rungs are statistically equal.  Keep
            # whichever estimate is higher (a systematic preference --
            # e.g. always the smaller rung -- would walk the climber away
            # from real but in-band gains on a flat curve), then park.
            if rate >= settled_rate:
                self._settled = self._batch_size
            else:
                self._batch_size = settled_size
                self.adjustments += 1
            self._direction = -self._direction
            self._hold = self.hold_epochs

    def _step_locked(self) -> bool:
        """Move one rung in the current direction (flipping at a ladder bound).

        Returns False only when both directions are blocked (degenerate
        single-rung ladder).
        """

        for _ in range(2):
            if self._direction > 0:
                candidate = min(self._batch_size * 2, self.max_batch_size)
            else:
                candidate = max(self._batch_size // 2, self.min_batch_size)
            if candidate != self._batch_size:
                self._batch_size = candidate
                self.adjustments += 1
                return True
            self._direction = -self._direction
        return False

    def _best_rung_locked(self) -> int:
        """Best-known rung selection rule (caller holds the lock).

        Single source of truth for :meth:`best_rung`, ``freeze(adopt_best)``
        and the ``as_dict`` snapshot, so the three can never disagree on
        what "best" means.  Falls back to the current batch size before
        any epoch has closed.
        """

        if not self._rung_rates:
            return self._batch_size
        return max(self._rung_rates, key=self._rung_rates.get)

    def best_rung(self) -> int:
        """The rung with the highest smoothed throughput estimate so far.

        Falls back to the current batch size before any epoch has closed.
        """

        with self._lock:
            return self._best_rung_locked()

    def freeze(self, adopt_best: bool = False) -> None:
        """Pin the recommendation: stop adjusting until :meth:`unfreeze`.

        Batch observations are ignored while frozen.  With
        ``adopt_best=True`` the controller first jumps to
        :meth:`best_rung` -- when freezing for an evaluation window you
        want the best configuration it has evidence for, not whatever
        transient probe state it is in.  Use for evaluation windows or
        canary comparisons where the configuration must hold still.
        """

        with self._lock:
            if adopt_best:
                self._batch_size = self._best_rung_locked()
            self._frozen = True

    def unfreeze(self) -> None:
        """Resume online adjustment after :meth:`freeze`."""

        with self._lock:
            self._frozen = False

    # ------------------------------------------------------------------
    # Recommendations
    # ------------------------------------------------------------------
    @property
    def batch_size(self) -> int:
        """The currently recommended ``max_batch_size``."""

        with self._lock:
            return self._batch_size

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot of the tuner state (for reports/stats)."""

        with self._lock:
            return {
                "batch_size": self._batch_size,
                "best_rung": self._best_rung_locked(),
                "epochs": self.epochs,
                "adjustments": self.adjustments,
                "holding": self._hold > 0,
                "frozen": self._frozen,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BatchTuner(batch_size={self._batch_size}, epochs={self.epochs}, "
            f"adjustments={self.adjustments})"
        )
