"""Queueing-network environment: typed jobs over FIFO exponential-server queues.

Jobs arrive in a Poisson stream, draw a type from the round's mix, and follow
that type's fixed route of queues (every route starts at queue 0). Queue i
serves at rate allocation_i + 0.1. A cost query simulates one fresh window
(warm-up then measurement) and reports the mean end-to-end latency of jobs
that left the system during the measurement span; the linear resource cost is
known analytically and never sampled.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import Box, ConfigurationError
from .sensing import ValueOracle, pointwise

SERVICE_RATE_FLOOR = 0.1
ENTRY_QUEUE = 0  # every route starts here

_SIM_STREAM = 1


@dataclass(frozen=True)
class Topology:
    """Queue count plus one fixed route per job type; routes start at ENTRY_QUEUE."""

    num_queues: int
    routes: dict[str, tuple[int, ...]]

    def __post_init__(self):
        if self.num_queues < 1:
            raise ConfigurationError(f"queues: need at least one queue, got {self.num_queues}")
        if not self.routes:
            raise ConfigurationError("route.<job>: need at least one job type")
        clean = {}
        for name, route in self.routes.items():
            route = tuple(int(q) for q in route)
            key = f"route.{name}"
            if not route:
                raise ConfigurationError(f"{key}: the route is empty")
            if route[0] != ENTRY_QUEUE:
                raise ConfigurationError(f"{key}: does not start at the entry queue {ENTRY_QUEUE}")
            for q in route:
                if not 0 <= q < self.num_queues:
                    raise ConfigurationError(
                        f"{key}: queue {q} is out of range 0-{self.num_queues - 1}"
                    )
            # the simulator frees a queue only after routing its job onward
            for q, following in zip(route, route[1:]):
                if q == following:
                    raise ConfigurationError(f"{key}: visits queue {q} twice in a row")
            clean[str(name)] = route
        object.__setattr__(self, "routes", clean)

    @property
    def job_names(self) -> tuple[str, ...]:
        return tuple(self.routes)


def _check_rate(rate: float, field: str):
    if rate <= 0 or not math.isfinite(rate):
        raise ConfigurationError(f"{field} must be finite and > 0, got {rate}")


def _check_mix(mix: dict[str, float], names: tuple[str, ...], field: str):
    total = 0.0
    for name, prob in mix.items():
        if name not in names:
            raise ConfigurationError(f"{field} references unknown job type {name!r}")
        if not 0 <= prob < math.inf:
            raise ConfigurationError(
                f"{field} probability for {name!r} must be finite and >= 0, got {prob}"
            )
        total += prob
    if abs(total - 1.0) > 1e-9:
        raise ConfigurationError(f"{field} probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class FixedWorkload:
    rate: float
    mix: dict[str, float]

    def __post_init__(self):
        _check_rate(self.rate, "rate")

    def at(self, t: int) -> tuple[float, dict[str, float]]:
        return self.rate, self.mix


@dataclass(frozen=True)
class VariableRateWorkload:
    """Piecewise-constant arrival rate: segments of (first_round, last_round, rate).

    The segments run in order from round 1 with no gap or overlap; rounds past
    the last segment keep its rate.
    """

    segments: tuple[tuple[int, int, float], ...]
    mix: dict[str, float]

    def __post_init__(self):
        if not self.segments:
            raise ConfigurationError("need at least one rate segment")
        expected = 1
        for first, last, rate in self.segments:
            _check_rate(rate, f"segments: rate of segment {first}-{last}")
            if first != expected:
                raise ConfigurationError(
                    f"rate segment {first}-{last} starts at round {first}, expected {expected}:"
                    " segments must cover the rounds in order from 1, without gaps or overlaps"
                )
            if last < first:
                raise ConfigurationError(f"rate segment {first}-{last} ends before it starts")
            expected = last + 1

    def at(self, t: int) -> tuple[float, dict[str, float]]:
        for first, last, rate in self.segments:
            if first <= t <= last:
                return rate, self.mix
        return self.segments[-1][2], self.mix


@dataclass(frozen=True)
class VariableMixWorkload:
    """Linear drift from initial_mix to final_mix across [start_round, end_round]."""

    rate: float
    initial_mix: dict[str, float]
    final_mix: dict[str, float]
    start_round: int
    end_round: int

    def __post_init__(self):
        _check_rate(self.rate, "rate")
        if self.end_round <= self.start_round:
            raise ConfigurationError("mix transition needs end_round > start_round")

    def at(self, t: int) -> tuple[float, dict[str, float]]:
        span = self.end_round - self.start_round
        frac = min(1.0, max(0.0, (t - self.start_round) / span))
        keys = dict.fromkeys(list(self.initial_mix) + list(self.final_mix))
        mix = {
            k: (1.0 - frac) * self.initial_mix.get(k, 0.0) + frac * self.final_mix.get(k, 0.0)
            for k in keys
        }
        return self.rate, mix


@dataclass(frozen=True)
class SimConfig:
    initial_allocation: float  # every queue's start allocation
    initial_entry_allocation: float | None = None  # ENTRY_QUEUE's, if not initial_allocation
    warmup_seconds: float = 30.0
    measure_seconds: float = 10.0
    resource_weight: float = 1.0
    correction_factor: float = 1.0
    lower_bound: float = 1.0
    upper_bound: float = 60.0

    def __post_init__(self):
        if not 0 <= self.warmup_seconds < math.inf:
            raise ConfigurationError(
                f"warmup_seconds: must be finite and >= 0, got {self.warmup_seconds}"
            )
        if not 0 < self.measure_seconds < math.inf:
            raise ConfigurationError(
                f"measure_seconds: must be finite and > 0, got {self.measure_seconds}"
            )
        if not 0 <= self.resource_weight < math.inf:
            raise ConfigurationError(
                f"resource_weight: must be finite and >= 0, got {self.resource_weight}"
            )
        # a zero bump would leave an unstable allocation where it is
        if not 0 < self.correction_factor < math.inf:
            raise ConfigurationError(
                f"correction_factor: must be finite and > 0, got {self.correction_factor}"
            )
        for key in ("lower_bound", "upper_bound"):
            if not 0 <= getattr(self, key) < math.inf:
                raise ConfigurationError(
                    f"{key}: must be finite and >= 0, got {getattr(self, key)}"
                )
        if self.lower_bound > self.upper_bound:
            raise ConfigurationError(
                f"lower_bound: {self.lower_bound} exceeds upper_bound {self.upper_bound}"
            )
        for key in ("initial_allocation", "initial_entry_allocation"):
            value = getattr(self, key)
            if value is not None and not self.lower_bound <= value <= self.upper_bound:
                raise ConfigurationError(
                    f"{key}: {value} is outside [lower_bound, upper_bound]"
                    f" = [{self.lower_bound}, {self.upper_bound}]"
                )


@dataclass(frozen=True)
class LatencyObservation:
    mean_latency: float  # NaN exactly when departures == 0
    departures: int


def simulate_window(
    topology: Topology,
    rate: float,
    mix: dict[str, float],
    allocation: np.ndarray,
    sim_cfg: SimConfig,
    rng: np.random.Generator,
) -> LatencyObservation:
    """Run one fresh window and summarize departures inside the measurement span.

    The network starts empty, warms up for warmup_seconds, then every job that
    completes its full route during the next measure_seconds contributes its
    end-to-end sojourn. Zero such departures marks the window unstable.

    Events run in time order: an arrival at the same instant as a completion
    is admitted first, and completions at the same instant go in queue order
    (continuous draws make such ties a probability-zero event). A job routed
    onward joins its next queue before the queue that its completion freed
    starts its next job. The i-th service to start takes the i-th of one
    block of standard exponentials, one per route visit of the window's jobs,
    scaled by its queue's mean service time. Afterwards the generator is
    rewound and advanced by exactly the draws used, so it ends where one
    rng.exponential call per service start would leave it, and the window's
    values are the same bit for bit.

    The window's route visits sit in one flat list, each job's visits
    followed by a slot holding ~job; a queue's server and waiting line hold
    list positions, so a completion reads the job's next visit, or its
    departure, at the position after its current one. Three shortcuts leave
    the event order, every draw and the generator's final state as they were
    when each event was tested against the horizon, each completion popped
    its entry and pushed the next ones, and rng.choice drew the job types:

    - The horizon is one more heap entry, (horizon, num_queues): a
      pseudo-queue whose server holds the position before one extra slot,
      ~n, and the loop ends when that slot's departure comes up. A real
      completion due exactly at the horizon sorts ahead of it by its lower
      queue number, and every arrival falls before the horizon.
    - A completion replaces its heap entry in one operation: with the
      routed job's service when the job moves on to an idle queue, else with
      the freed queue's next service; only when neither comes is the entry
      popped, and only when both come is the second one pushed. Every entry
      has its own queue, so no two keys tie and the entries pop in the same
      order; the routed job still takes its draw before the freed queue's
      next job.
    - Job types come from the mix's CDF and one rng.random block
      (_job_types): rng.choice's own arithmetic without its per-call
      argument checks, which JacksonEnvironment.begin_round runs once a
      round instead.
    """
    names = topology.job_names
    # probes step outside the box, so near a lower_bound of 0 a probed
    # allocation can be negative; its queue then serves at the floor rate
    service_rate = np.maximum(allocation, 0.0) + SERVICE_RATE_FLOOR
    mean_service = (1.0 / service_rate).tolist()
    horizon = sim_cfg.warmup_seconds + sim_cfg.measure_seconds

    arrivals = _poisson_arrivals(rate, horizon, rng)
    n = arrivals.shape[0]
    # the mix was checked when its round began (JacksonEnvironment.begin_round)
    kinds = _job_types(np.array([mix.get(name, 0.0) for name in names]), n, rng)
    routes = [topology.routes[name] for name in names]
    visit: list[int] = []
    first = []  # each job's first visit, always to ENTRY_QUEUE
    for job, kind in enumerate(kinds.tolist()):
        first.append(len(visit))
        visit += routes[kind]
        visit.append(~job)

    # every route visit starts one service, so the window needs at most cap draws
    cap = len(visit) - n
    saved_state = rng.bit_generator.state
    draws = rng.standard_exponential(cap).tolist()
    used = 0

    end = len(visit)  # the horizon's slot, ~n: the only departure that is no job's
    visit.append(~n)
    arrival_times = arrivals.tolist()
    arrival_times.append(math.inf)  # the sentinel after the last arrival
    entry = ENTRY_QUEUE
    entry_mean = mean_service[entry]
    waiting = [deque() for _ in range(topology.num_queues)]
    entry_waiting = waiting[entry]
    in_service = [-1] * topology.num_queues
    in_service.append(end - 1)  # the horizon pseudo-queue "serves" up to its slot
    # (completion time, queue): a queue has at most one pending completion
    heap: list[tuple[float, int]] = [(horizon, topology.num_queues)]
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    next_arrival = 0
    arrival_time = arrival_times[0]
    measure_start = sim_cfg.warmup_seconds
    total_sojourn = 0.0
    departures = 0

    while True:
        top = heap[0]
        if arrival_time <= top[0]:  # ties: arrivals join before services finish
            now = arrival_time
            position = first[next_arrival]
            next_arrival += 1
            arrival_time = arrival_times[next_arrival]
            if in_service[entry] < 0:
                in_service[entry] = position
                heappush(heap, (now + draws[used] * entry_mean, entry))
                used += 1
            else:
                entry_waiting.append(position)
            continue

        now, freed = top
        position = in_service[freed] + 1
        target = visit[position]  # never the freed queue: Topology rejects repeats in a row
        if target < 0:  # the job leaves
            if position == end:
                break
            if now >= measure_start:
                total_sojourn += now - arrival_times[~target]
                departures += 1
        elif in_service[target] < 0:
            # the routed job's entry takes the freed queue's place on the heap
            in_service[target] = position
            heapreplace(heap, (now + draws[used] * mean_service[target], target))
            used += 1
            line = waiting[freed]
            if line:
                in_service[freed] = line.popleft()
                heappush(heap, (now + draws[used] * mean_service[freed], freed))
                used += 1
            else:
                in_service[freed] = -1
            continue
        else:
            waiting[target].append(position)
        line = waiting[freed]
        if line:
            in_service[freed] = line.popleft()
            heapreplace(heap, (now + draws[used] * mean_service[freed], freed))
            used += 1
        else:
            in_service[freed] = -1
            heappop(heap)

    rng.bit_generator.state = saved_state
    rng.standard_exponential(used)

    mean_latency = total_sojourn / departures if departures else math.nan
    return LatencyObservation(mean_latency=mean_latency, departures=departures)


def _job_types(probs: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """rng.choice(len(probs), size=n, p=probs) without its per-call argument checks.

    The arithmetic of Generator.choice with replacement: the same values, and
    the generator left in the same state.
    """
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(rng.random(n), side="right")


def _poisson_arrivals(rate: float, horizon: float, rng: np.random.Generator) -> np.ndarray:
    chunk = max(16, int(rate * horizon * 1.25) + 16)
    pieces = []
    start = 0.0
    while True:
        cum = start + np.cumsum(rng.exponential(1.0 / rate, size=chunk))
        inside = cum < horizon
        pieces.append(cum[inside])
        if not bool(inside.all()):
            return np.concatenate(pieces)
        start = float(cum[-1])


class JacksonEnvironment:
    """Adapter exposing the queueing network through the online-round protocol."""

    def __init__(self, topology: Topology, schedule, sim_cfg: SimConfig):
        self.topology = topology
        self.schedule = schedule
        self.sim_cfg = sim_cfg
        self.constraint_set = Box(
            lower=np.full(topology.num_queues, sim_cfg.lower_bound),
            upper=np.full(topology.num_queues, sim_cfg.upper_bound),
        )
        initial = np.full(topology.num_queues, sim_cfg.initial_allocation)
        if sim_cfg.initial_entry_allocation is not None:
            initial[ENTRY_QUEUE] = sim_cfg.initial_entry_allocation
        self._initial = initial
        self._rng: np.random.Generator | None = None
        self._rate = 0.0
        self._mix: dict[str, float] | None = None  # None: no round is open

    @property
    def dim(self) -> int:
        return self.topology.num_queues

    def reset(self, seed: int) -> np.ndarray:
        self._rng = np.random.default_rng([seed, _SIM_STREAM])
        self._mix = None  # the last run's round must not leak into this one
        return self._initial.copy()

    def begin_round(self, t: int) -> None:
        # a raise, not an assert, so that python -O keeps the check
        if self._rng is None:
            raise RuntimeError("reset() must run before begin_round()")
        rate, mix = self.schedule.at(t)
        # once a round: simulate_window draws job types from the mix unchecked
        _check_mix(mix, self.topology.job_names, f"round {t} mix")
        self._rate, self._mix = rate, mix

    def _latency(self, x: np.ndarray) -> float:
        """Mean latency of one fresh window under the current round's workload."""
        obs = simulate_window(self.topology, self._rate, self._mix, x, self.sim_cfg, self._rng)
        return obs.mean_latency

    def incur(self, x: np.ndarray) -> float:
        """Mean latency of one fresh window plus resource_weight * sum(x); NaN if unstable."""
        if self._mix is None:  # checked once a round, never per window
            raise RuntimeError("begin_round() must run after reset() and before incur()")
        return self._latency(x) + self.sim_cfg.resource_weight * float(x.sum())

    def oracle(self) -> ValueOracle:
        """Latency only, one fresh window per query; gradient_offset carries the resource term.

        The shared rng advances, so two queries of the same allocation differ and
        finite differences carry full window-to-window noise: the noise level
        the estimator comparison is about.
        """
        if self._mix is None:  # checked once a round, never per window
            raise RuntimeError("begin_round() must run after reset() and before oracle()")
        return ValueOracle(pointwise(self._latency))

    def gradient_offset(self) -> np.ndarray:
        return np.full(self.dim, self.sim_cfg.resource_weight)

    def exact_gradient(self, x: np.ndarray) -> None:
        return None

    def instability_correction(self, x: np.ndarray) -> np.ndarray:
        """Bump every queue's allocation by correction_factor, then project back into the box."""
        return self.constraint_set.project(x + self.sim_cfg.correction_factor)
