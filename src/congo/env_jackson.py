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
from dataclasses import dataclass, field

import numpy as np

from .core import Box, ConfigurationError
from .sensing import ValueOracle, pointwise

SERVICE_RATE_FLOOR = 0.1
ENTRY_QUEUE = 0  # every route starts here

_SIM_STREAM = 1


@dataclass(frozen=True)
class Topology:
    """Queue count plus one fixed route per job type; routes start at ENTRY_QUEUE.

    The other fields are worked out from the routes, once, and take no part in
    comparisons: is_tree is true when the routes form a tree rooted at
    ENTRY_QUEUE, so that simulate_window can take its event-free pass;
    reenters_entry is true when a route comes back to ENTRY_QUEUE;
    route_table holds one row per job type, its route padded with -1, and
    route_lengths the routes' lengths.
    """

    num_queues: int
    routes: dict[str, tuple[int, ...]]
    is_tree: bool = field(init=False, repr=False, compare=False)
    reenters_entry: bool = field(init=False, repr=False, compare=False)
    route_table: np.ndarray = field(init=False, repr=False, compare=False)
    route_lengths: np.ndarray = field(init=False, repr=False, compare=False)

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
        reenters = any(ENTRY_QUEUE in route[1:] for route in clean.values())
        # a tree: no route re-enters the entry queue, and every other queue
        # is entered from one queue at most
        feeder = {}
        tree = not reenters and all(
            feeder.setdefault(following, q) == q
            for route in clean.values()
            for q, following in zip(route, route[1:])
        )
        lengths = [len(route) for route in clean.values()]
        table = [route + (-1,) * (max(lengths) - len(route)) for route in clean.values()]
        object.__setattr__(self, "is_tree", tree)
        object.__setattr__(self, "reenters_entry", reenters)
        object.__setattr__(self, "route_table", np.array(table))
        object.__setattr__(self, "route_lengths", np.array(lengths))

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
    end-to-end sojourn, and the mean is their math.fsum over their count, so
    it does not depend on the order in which the departures are found. Zero
    such departures marks the window unstable.

    The window is drawn once (_draw_window), without the allocation, and the
    allocation enters in one place: the k-th route visit lasts the k-th unit
    draw times its queue's mean service time, whenever it starts. The
    generator advances by the draw alone, so a window is a function of its
    allocation and the generator state it starts from, and every allocation
    leaves the generator in the same state.

    Every queue serves first come, first served, and one of two orderings
    turns the durations into sojourns. When the routes form a tree rooted at
    ENTRY_QUEUE (Topology.is_tree), every queue is fed by one queue, or by
    the arrivals, and so sees its jobs in arrival order: one pass over the
    jobs (_tree_pass) finds each completion by Lindley's recursion. Any
    other network runs the event loop (_event_loop), which serves
    ENTRY_QUEUE by the same recursion before it starts unless a route
    re-enters that queue. Both orderings give the same values bit for bit
    wherever they apply, same-instant events included.
    """
    horizon = sim_cfg.warmup_seconds + sim_cfg.measure_seconds
    arrivals, kinds, queues, draws = _draw_window(topology, rate, mix, horizon, rng)
    # probes step outside the box, so near a lower_bound of 0 a probed
    # allocation can be negative; its queue then serves at the floor rate
    durations = draws * (1.0 / (np.maximum(allocation, 0.0) + SERVICE_RATE_FLOOR))[queues]
    ordering = _tree_pass if topology.is_tree else _event_loop
    sojourns = ordering(
        topology, arrivals, kinds, queues, durations, sim_cfg.warmup_seconds, horizon
    )
    departures = len(sojourns)
    mean_latency = math.fsum(sojourns) / departures if departures else math.nan
    return LatencyObservation(mean_latency=mean_latency, departures=departures)


def _draw_window(topology, rate, mix, horizon, rng):
    """(arrival times, job types, the queue of every route visit, its unit draw).

    The generator draws the arrivals, then the job types (_job_types), then
    one block of standard exponentials with one entry per route visit. The
    visits, and so their draws, run in job order and then visit order.
    """
    arrivals = _poisson_arrivals(rate, horizon, rng)
    # the mix was checked when its round began (JacksonEnvironment.begin_round)
    probs = np.array([mix.get(name, 0.0) for name in topology.job_names])
    kinds = _job_types(probs, arrivals.shape[0], rng)
    rows = topology.route_table[kinds]  # one row per job: its route, padded with -1
    queues = rows[rows >= 0]
    return arrivals, kinds, queues, rng.standard_exponential(queues.shape[0])


def _tree_pass(topology, arrivals, kinds, queues, durations, measure_start, horizon) -> list[float]:
    """The sojourns of a tree of routes, in job order: one pass over the jobs.

    On a tree every queue sees its jobs in arrival order, so a visit starts
    at the later of the job's arrival there and the queue's last completion
    (Lindley's recursion) and ends its duration later. Same-instant events
    change nothing here: a queue's order is its single feeder's.
    """
    routes = list(topology.routes.values())
    duration = iter(durations.tolist())
    last = [0.0] * topology.num_queues  # each queue's last completion
    sojourns = []
    for arrival, kind in zip(arrivals.tolist(), kinds.tolist()):
        now = arrival
        for q in routes[kind]:
            if last[q] > now:
                now = last[q]
            now += next(duration)
            last[q] = now
        if measure_start <= now <= horizon:
            sojourns.append(now - arrival)
    return sojourns


def _event_loop(
    topology, arrivals, kinds, queues, durations, measure_start, horizon
) -> list[float]:
    """The sojourns of any network, in departure order: its events in time order.

    An arrival at the same instant as a completion is admitted first, and
    completions at the same instant go in queue order (continuous draws make
    such ties a probability-zero event). A job routed onward joins its next
    queue before the queue that its completion freed starts its next job.

    Jobs come in from one stream, sorted by time. When no route re-enters
    ENTRY_QUEUE, that queue sees its jobs in arrival order, so one pass of
    Lindley's recursion before the loop finds each job's exit from it, and
    the stream holds these exits: a job comes in at its second visit, or
    leaves if its route is ENTRY_QUEUE alone. When a route re-enters it, the
    stream holds the arrivals, at their first visit. The stream goes before
    any completion due at the same instant, so the tie rule needs nothing
    more: arrivals went first before, and an exit from ENTRY_QUEUE was a
    completion of the lowest-numbered queue.

    The window's route visits sit in one flat list, each job's visits
    followed by a slot holding ~job, next to one list of their durations; a
    queue's server and waiting line hold list positions, so a completion
    reads the job's next visit, or its departure, at the position after its
    current one. Two shortcuts leave the event order as it is when each event
    is tested against the horizon and each completion pops its entry and
    pushes the next ones:

    - The horizon is one more heap entry, (horizon, num_queues): a
      pseudo-queue whose server holds the position before one extra slot,
      ~n, and the loop ends when that slot's departure comes up. A real
      completion due exactly at the horizon sorts ahead of it by its lower
      queue number, the stream by going first, and every arrival falls
      before the horizon.
    - A completion replaces its heap entry in one operation: with the
      routed job's service when the job moves on to an idle queue, else with
      the freed queue's next service; only when neither comes is the entry
      popped, and only when both come is the second one pushed. Every entry
      has its own queue, so no two keys tie and the entries pop in the same
      order.
    """
    n = arrivals.shape[0]
    jobs = np.arange(n)
    lengths = topology.route_lengths[kinds]
    slots = lengths.cumsum() + jobs  # each job's slot, just after its last visit
    end = queues.shape[0] + n  # the horizon's slot, ~n: the only departure that is no job's
    is_visit = np.ones(end + 1, dtype=bool)
    is_visit[slots] = False
    is_visit[end] = False
    visit = np.empty(end + 1, dtype=np.intp)
    visit[is_visit] = queues
    visit[slots] = ~jobs
    visit[end] = ~n
    duration = np.zeros(end + 1)
    duration[is_visit] = durations
    first = slots - lengths  # each job's first visit, always to ENTRY_QUEUE

    arrival_times = arrivals.tolist()
    if topology.reenters_entry:
        stream_times, stream = arrival_times, first.tolist()
    else:
        stream_times, stream = [], (first + 1).tolist()
        done = 0.0  # ENTRY_QUEUE's last completion
        for arrival, service in zip(arrival_times, duration[first].tolist()):
            done = (arrival if arrival > done else done) + service
            stream_times.append(done)
    stream_times.append(math.inf)  # the sentinel after the last job
    visit, duration = visit.tolist(), duration.tolist()
    waiting = [deque() for _ in range(topology.num_queues)]
    in_service = [-1] * topology.num_queues
    in_service.append(end - 1)  # the horizon pseudo-queue "serves" up to its slot
    # (completion time, queue): a queue has at most one pending completion
    heap: list[tuple[float, int]] = [(horizon, topology.num_queues)]
    heappush, heappop, heapreplace = heapq.heappush, heapq.heappop, heapq.heapreplace
    taken = 0  # stream entries taken in
    stream_time = stream_times[0]
    sojourns = []

    while True:
        top = heap[0]
        if stream_time <= top[0]:  # ties: the stream goes before any completion
            now = stream_time
            position = stream[taken]
            taken += 1
            stream_time = stream_times[taken]
            target = visit[position]
            if target < 0:  # a job routed through ENTRY_QUEUE alone leaves
                if now >= measure_start:
                    sojourns.append(now - arrival_times[~target])
            elif in_service[target] < 0:
                in_service[target] = position
                heappush(heap, (now + duration[position], target))
            else:
                waiting[target].append(position)
            continue

        now, freed = top
        position = in_service[freed] + 1
        target = visit[position]  # never the freed queue: Topology rejects repeats in a row
        if target < 0:  # the job leaves
            if position == end:
                break
            if now >= measure_start:
                sojourns.append(now - arrival_times[~target])
        elif in_service[target] < 0:
            # the routed job's entry takes the freed queue's place on the heap
            in_service[target] = position
            heapreplace(heap, (now + duration[position], target))
            line = waiting[freed]
            if line:
                following = in_service[freed] = line.popleft()
                heappush(heap, (now + duration[following], freed))
            else:
                in_service[freed] = -1
            continue
        else:
            waiting[target].append(position)
        line = waiting[freed]
        if line:
            following = in_service[freed] = line.popleft()
            heapreplace(heap, (now + duration[following], freed))
        else:
            in_service[freed] = -1
            heappop(heap)

    return sojourns


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
