"""Count windows as time windows on the arrival clock.

"The last ``W`` updates" is the time window of length ``H = W`` on the
clock that reads each update's 0-based arrival index.  On that clock
the :mod:`repro.windows` scheme is Algorithm 4's verbatim: generations
start at updates 1, W+1, 2W+1, … (bucket boundaries ``k·W``), the older
kept generation covers the window with a substream of length ≤ 2W, and
an update is active exactly while fewer than ``W`` updates followed it.
So the count-window samplers are the time-window samplers with
:class:`_ArrivalClock` supplying the clock — and they inherit the
per-bucket RNG streams that make batched ingestion bitwise identical to
the scalar loop.
"""

from __future__ import annotations

import numpy as np

from repro.core.types import SampleResult, as_item_array

__all__ = []


def _at_position(result: SampleResult) -> SampleResult:
    """``result`` with its sampled arrival index reported as the 1-based
    stream position.  Always a fresh result: a batched draw may hand
    back one result object several times."""
    index = result.metadata.get("timestamp")
    if index is None:
        return result
    return SampleResult(
        result.outcome,
        result.item,
        {**result.metadata, "timestamp": int(index) + 1},
    )


class _ArrivalClock:
    """Mixin putting a :mod:`repro.windows` sampler on the arrival clock
    (list it before the sampler class; the sampler's horizon is ``W``).

    Ingestion takes bare items and stamps each with its arrival index;
    there is no wall clock, so ``watermark`` is ``None`` and ``compact``
    is a no-op, and no global arrival order across shards, so ``merge``
    and ``fold`` refuse.
    """

    #: The engine's timed ingest probes ``validate_batch``; a count
    #: window takes no timestamps.
    validate_batch = None

    @property
    def window(self) -> int:
        return int(self._horizon)

    def update(self, item: int) -> None:
        super().update(item, self._t)

    def update_batch(self, items) -> None:
        """Ingest a chunk stamped ``t, t+1, …`` through the sampler's
        validation and ``_ingest`` — bitwise identical to the scalar
        loop."""
        arr = np.asarray(items, dtype=np.int64)
        clock = np.arange(self._t, self._t + arr.size, dtype=np.float64)
        arr, ts = super().validate_batch(arr, clock)
        if arr.size:
            self._ingest(arr, ts)

    def extend(self, items) -> None:
        self.update_batch(as_item_array(items))

    def run(self, stream) -> SampleResult:
        self.extend(stream)
        return self.sample()

    def sample(self) -> SampleResult:
        return _at_position(super().sample())

    def sample_many(self, k: int) -> list[SampleResult]:
        return [_at_position(result) for result in super().sample_many(k)]

    def watermark(self) -> None:
        return None

    def compact(self, now: float | None = None) -> int:
        return 0

    def merge(self, other) -> None:
        self.fold([self, other])

    @classmethod
    def fold(cls, samplers) -> None:
        raise ValueError(
            f"{cls.__name__} does not merge: count-based windows "
            "have no global arrival order across shards — use the "
            "time-based samplers in repro.windows for mergeable windowed "
            "sampling"
        )

    def _window_linf(self, gen) -> int:
        """The Lp normalizer's window ``‖f‖∞`` bound, tightened by the
        count: the window is the last ``W`` updates, the newer
        generation ``N`` holds the last ``|N| ≤ W`` of them and the
        older one ``O`` all of them, so item ``i`` occurs in the window
        at most ``min(f_i(O), f_i(N) + W − |N|)`` times.  With one
        generation (or for another ``gen``) the time-window bound."""
        gens = self._generations
        if len(gens) < 2 or gen is not gens[0]:
            return super()._window_linf(gen)
        newer = gens[1]
        return gen.aux.capped_linf(newer.aux, self.window - newer.pool.position)

    def _config_fingerprint(self) -> dict:
        fingerprint = super()._config_fingerprint()
        del fingerprint["horizon"]
        return {"window": self.window, **fingerprint}

    def restore(self, state: dict) -> None:
        if state.get("kind") == self._KIND and "now" not in state:
            raise ValueError(
                f"{self._KIND} snapshot has the retired position-offset "
                "layout (no arrival clock); rebuild it from the stream"
            )
        super().restore(state)
