"""Per-user packet arrival-rate laws and slot-indexed Bernoulli streams."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DETERMINISTIC = "deterministic"
UNIFORM = "uniform"
EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class ArrivalRateDistribution:
    """Law of the per-user arrival rate.

    Three kinds are supported: a point mass, uniform on (0, b), and
    exponential parameterized by its mean.  The exponential law has support
    above 1 even though a rate is used as a per-slot probability; analytic
    formulas use the untruncated law, and simulation clamps draws to [0, 1]
    while reporting how often it did so.
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == DETERMINISTIC:
            if not (math.isfinite(self.param) and self.param >= 0.0):
                raise ValueError("deterministic rate must be finite and >= 0")
        elif self.kind in (UNIFORM, EXPONENTIAL):
            if not (math.isfinite(self.param) and self.param > 0):
                raise ValueError(f"{self.kind} parameter must be positive")
        else:
            raise ValueError(f"unknown distribution kind {self.kind!r}")

    @classmethod
    def deterministic(cls, rate: float) -> "ArrivalRateDistribution":
        return cls(DETERMINISTIC, float(rate))

    @classmethod
    def uniform(cls, upper: float) -> "ArrivalRateDistribution":
        return cls(UNIFORM, float(upper))

    @classmethod
    def exponential(cls, mean: float) -> "ArrivalRateDistribution":
        return cls(EXPONENTIAL, float(mean))

    def cdf(self, x):
        """Exact CDF of the law (untruncated)."""
        x = np.asarray(x, dtype=float)
        if self.kind == DETERMINISTIC:
            out = (x >= self.param).astype(float)
        elif self.kind == UNIFORM:
            out = np.clip(x / self.param, 0.0, 1.0)
        else:
            out = np.where(x < 0, 0.0, 1.0 - np.exp(-np.maximum(x, 0.0) / self.param))
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.kind == DETERMINISTIC:
            return self.param
        if self.kind == UNIFORM:
            return 0.5 * self.param
        return self.param

    def sample(self, rng: np.random.Generator, size=None):
        """Raw draws from the law (no clamping)."""
        if self.kind == DETERMINISTIC:
            return self.param if size is None else np.full(size, self.param)
        if self.kind == UNIFORM:
            return self.param * rng.random(size)
        return rng.exponential(self.param, size)

    @classmethod
    def parse(cls, spec: str) -> "ArrivalRateDistribution":
        """Parse `det:x`, `unif:0:b`, or `exp-mean:m`."""
        parts = spec.strip().split(":")
        try:
            if parts[0] == "det" and len(parts) == 2:
                return cls.deterministic(float(parts[1]))
            if parts[0] == "unif" and len(parts) == 3:
                if float(parts[1]) != 0.0:
                    raise ValueError("uniform law is anchored at 0")
                return cls.uniform(float(parts[2]))
            if parts[0] == "exp-mean" and len(parts) == 2:
                return cls.exponential(float(parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad distribution spec {spec!r}: {exc}") from None
        raise ValueError(
            f"bad distribution spec {spec!r}; expected det:x, unif:0:b, or exp-mean:m"
        )

    def spec_string(self) -> str:
        if self.kind == DETERMINISTIC:
            return f"det:{self.param:g}"
        if self.kind == UNIFORM:
            return f"unif:0:{self.param:g}"
        return f"exp-mean:{self.param:g}"


def _bernoulli_slots(rng: np.random.Generator, horizon: int, p: float) -> np.ndarray:
    """Sorted slot indices in [0, horizon) of i.i.d. Bernoulli(p) slot events.

    The gaps between consecutive events are i.i.d. geometric(p), so the
    slots are running sums of geometric draws and the cost grows with the
    number of events, not with the horizon.  One block of draws covers the
    horizon unless the count runs more than six standard deviations high.
    The gaps come off `rng` in order whatever the block sizes, so a fresh
    generator in the same state yields the same events for every horizon,
    up to that horizon.
    """
    if p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(horizon, dtype=np.int64)
    blocks = []
    last = -1  # slot of the latest event drawn
    while True:
        expected = (horizon - 1 - last) * p
        slots = rng.geometric(p, int(expected + 6.0 * math.sqrt(expected) + 16))
        np.cumsum(slots, out=slots)
        slots += last
        if slots[-1] >= horizon:
            blocks.append(slots[: np.searchsorted(slots, horizon)])
            break
        blocks.append(slots)
        last = int(slots[-1])
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


@dataclass(frozen=True)
class ArrivalStream:
    """Bernoulli arrival process, one packet per slot with probability `rate`.

    The arrival slots are running sums of geometric gaps drawn from a
    generator seeded with `seed`, so a stream is fixed by (rate, seed) and
    every window is a slice of the same sequence.
    """

    rate: float
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must lie in [0, 1]")

    def arrivals(self, start: int, stop: int) -> np.ndarray:
        """Arrival indicators for slots [start, stop): `arrivals(0, stop)[start:]`."""
        if start < 0 or stop < start:
            raise ValueError("need 0 <= start <= stop")
        out = np.zeros(stop - start, dtype=bool)
        slots = _bernoulli_slots(np.random.default_rng(self.seed), stop, self.rate)
        out[slots[np.searchsorted(slots, start):] - start] = True
        return out
