"""Queueing-network simulator and its online-round adapter.

The statistical checks here average seeded windows and assert coarse
directional facts (more capacity means less waiting, the bottleneck
dominates) and, on the two fixed presets, the Jackson product form within 5%;
the M/M/1 and tandem calibration lives in the acceptance suite.
"""

import dataclasses
import hashlib
import heapq
import math
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from congo.core import ConfigurationError
from congo.env_jackson import (
    ENTRY_QUEUE,
    SERVICE_RATE_FLOOR,
    FixedWorkload,
    JacksonEnvironment,
    LatencyObservation,
    SimConfig,
    Topology,
    VariableMixWorkload,
    VariableRateWorkload,
    _draw_window,
    _event_loop,
    _job_types,
    _poisson_arrivals,
    _tree_pass,
    simulate_window,
)
from congo.scenario import find_preset, load_spec

TANDEM = Topology(num_queues=2, routes={"job1": (0, 1)})
SINGLE = Topology(num_queues=1, routes={"job1": (0,)})
LOOPED = Topology(num_queues=2, routes={"job1": (0, 1, 0)})  # re-enters the entry queue
MERGING = Topology(num_queues=3, routes={"job1": (0, 1, 2, 1)})  # queues 0 and 2 feed queue 1
# queues 0 and 1 feed queue 2, and job1 leaves from the entry queue
ENTRY_ONLY = Topology(num_queues=3, routes={"job1": (0,), "job2": (0, 1, 2), "job3": (0, 2)})
ONE_JOB = {"job1": 1.0}


def quick_cfg(**kw):
    base = dict(initial_allocation=4.0, warmup_seconds=2.0, measure_seconds=4.0)
    base.update(kw)
    return SimConfig(**base)


def test_topology_validation():
    with pytest.raises(ConfigurationError):
        Topology(num_queues=0, routes={"a": (0,)})
    with pytest.raises(ConfigurationError):
        Topology(num_queues=2, routes={})
    with pytest.raises(ConfigurationError):
        Topology(num_queues=2, routes={"a": ()})
    with pytest.raises(ConfigurationError):
        Topology(num_queues=2, routes={"a": (1,)})  # must start at the entry
    with pytest.raises(ConfigurationError):
        Topology(num_queues=2, routes={"a": (0, 5)})
    with pytest.raises(ConfigurationError, match="route.a: visits queue 0 twice in a row"):
        Topology(num_queues=2, routes={"a": (0, 0, 1)})
    with pytest.raises(ConfigurationError, match="route.b: visits queue 1 twice in a row"):
        Topology(num_queues=2, routes={"a": (0, 1), "b": (0, 1, 1)})
    topo = Topology(num_queues=3, routes={"a": (0, 2), "b": (0,), "c": (0, 1, 0)})
    assert topo.job_names == ("a", "b", "c")


def test_workload_schedules():
    fixed = FixedWorkload(rate=2.0, mix=ONE_JOB)
    assert fixed.at(1) == (2.0, ONE_JOB)
    assert fixed.at(99) == (2.0, ONE_JOB)

    varying = VariableRateWorkload(
        segments=((1, 10, 2.0), (11, 20, 3.0)), mix=ONE_JOB
    )
    assert varying.at(5)[0] == 2.0
    assert varying.at(11)[0] == 3.0
    assert varying.at(50)[0] == 3.0  # past the last segment: hold the last rate
    with pytest.raises(ConfigurationError):
        VariableRateWorkload(segments=(), mix=ONE_JOB)

    drift = VariableMixWorkload(
        rate=1.0,
        initial_mix={"a": 1.0},
        final_mix={"b": 1.0},
        start_round=10,
        end_round=20,
    )
    assert drift.at(5)[1] == {"a": 1.0, "b": 0.0}
    assert drift.at(15)[1] == {"a": 0.5, "b": 0.5}
    assert drift.at(99)[1] == {"a": 0.0, "b": 1.0}
    with pytest.raises(ConfigurationError):
        VariableMixWorkload(rate=1.0, initial_mix={}, final_mix={}, start_round=5, end_round=5)


@pytest.mark.parametrize(
    "segments",
    [
        ((2, 10, 2.0),),  # does not start at round 1
        ((1, 5, 2.0), (7, 10, 3.0)),  # gap at round 6
        ((1, 5, 2.0), (5, 10, 3.0)),  # round 5 twice
        ((6, 10, 3.0), (1, 5, 2.0)),  # out of order
        ((1, 5, 2.0), (6, 4, 3.0)),  # ends before it starts
    ],
)
def test_variable_rate_segments_must_cover_the_rounds(segments):
    with pytest.raises(ConfigurationError):
        VariableRateWorkload(segments=segments, mix=ONE_JOB)


def test_sim_config_validation():
    with pytest.raises(ConfigurationError):
        quick_cfg(measure_seconds=0.0)
    with pytest.raises(ConfigurationError):
        quick_cfg(warmup_seconds=-1.0)
    with pytest.raises(ConfigurationError):
        quick_cfg(lower_bound=5.0, upper_bound=1.0)
    with pytest.raises(ConfigurationError, match="warmup_seconds"):
        quick_cfg(warmup_seconds=math.inf)  # the first window would fail to size its arrivals
    with pytest.raises(ConfigurationError, match="measure_seconds"):
        quick_cfg(measure_seconds=math.nan)
    with pytest.raises(ConfigurationError, match="resource_weight"):
        quick_cfg(resource_weight=math.nan)  # every cost would read nan
    with pytest.raises(ConfigurationError, match="resource_weight"):
        quick_cfg(resource_weight=-0.5)
    with pytest.raises(ConfigurationError, match="correction_factor"):
        quick_cfg(correction_factor=0.0)  # a zero bump never leaves an unstable allocation
    with pytest.raises(ConfigurationError, match="correction_factor"):
        quick_cfg(correction_factor=math.inf)
    quick_cfg(resource_weight=0.0)


def test_a_negative_probe_allocation_serves_at_the_floor_rate():
    # probes leave the box, so with lower_bound = 0 a probed allocation can be negative
    cfg = quick_cfg(warmup_seconds=0.0, measure_seconds=200.0)
    below, at_zero = (
        simulate_window(TANDEM, 0.05, ONE_JOB, np.array([3.0, second]), cfg, np.random.default_rng(3))
        for second in (-0.5, 0.0)
    )
    assert below == at_zero and below.departures > 0


def test_simulate_window_is_deterministic_per_rng_state():
    obs1 = simulate_window(
        TANDEM, 2.0, ONE_JOB, np.array([3.0, 3.0]), quick_cfg(), np.random.default_rng(42)
    )
    obs2 = simulate_window(
        TANDEM, 2.0, ONE_JOB, np.array([3.0, 3.0]), quick_cfg(), np.random.default_rng(42)
    )
    assert obs1.mean_latency == obs2.mean_latency
    assert obs1.departures == obs2.departures
    assert obs1.departures > 0


def test_more_capacity_means_less_waiting():
    cfg = quick_cfg(warmup_seconds=5.0, measure_seconds=20.0)
    slow, fast = [], []
    for seed in range(8):
        slow.append(
            simulate_window(SINGLE, 2.0, ONE_JOB, np.array([2.4]), cfg,
                            np.random.default_rng(seed)).mean_latency
        )
        fast.append(
            simulate_window(SINGLE, 2.0, ONE_JOB, np.array([7.9]), cfg,
                            np.random.default_rng(seed)).mean_latency
        )
    assert np.mean(fast) < np.mean(slow)


def test_bottleneck_queue_dominates_latency():
    """A starved middle queue should blow the end-to-end latency up several-fold."""
    cfg = quick_cfg(warmup_seconds=5.0, measure_seconds=20.0)
    balanced, choked = [], []
    for seed in range(8):
        balanced.append(
            simulate_window(TANDEM, 1.0, ONE_JOB, np.array([4.9, 4.9]), cfg,
                            np.random.default_rng(seed)).mean_latency
        )
        choked.append(
            simulate_window(TANDEM, 1.0, ONE_JOB, np.array([4.9, 1.0]), cfg,
                            np.random.default_rng(seed)).mean_latency
        )
    assert np.mean(choked) >= 3.0 * np.mean(balanced)


def test_empty_window_is_unstable():
    # arrival rate so small that the window almost surely sees no departures
    obs = simulate_window(
        SINGLE, 1e-9, ONE_JOB, np.array([1.0]), quick_cfg(), np.random.default_rng(0)
    )
    assert obs.departures == 0
    assert np.isnan(obs.mean_latency)


def test_reentrant_route_completes():
    looped = Topology(num_queues=2, routes={"job1": (0, 1, 0)})
    obs = simulate_window(
        looped, 1.0, ONE_JOB, np.array([5.0, 5.0]),
        quick_cfg(warmup_seconds=5.0, measure_seconds=20.0), np.random.default_rng(3)
    )
    assert obs.departures > 0
    # three service visits at mu ~5 sit well above two but below heavy queueing
    assert obs.mean_latency > 2.0 / 5.1


def test_incur_adds_the_resource_term_and_is_nan_when_unstable():
    cfg = quick_cfg(resource_weight=0.5)
    x = np.array([2.0, 3.0])
    env = JacksonEnvironment(TANDEM, FixedWorkload(rate=2.0, mix=ONE_JOB), cfg)
    env.reset(5)
    env.begin_round(1)
    # the simulator stream of seed s is default_rng([s, 1]), as README "Determinism" says
    window = simulate_window(TANDEM, 2.0, ONE_JOB, x, cfg, np.random.default_rng([5, 1]))
    assert window.departures > 0
    assert env.incur(x) == window.mean_latency + 0.5 * 5.0

    # so small an arrival rate leaves the window without departures
    idle = JacksonEnvironment(TANDEM, FixedWorkload(rate=1e-9, mix=ONE_JOB), cfg)
    idle.reset(0)
    idle.begin_round(1)
    assert np.isnan(idle.incur(x))


def test_instability_correction_bumps_then_projects():
    cfg = quick_cfg(lower_bound=0.0, upper_bound=5.0, correction_factor=1.0)
    env = JacksonEnvironment(TANDEM, FixedWorkload(rate=2.0, mix=ONE_JOB), cfg)
    assert np.allclose(env.instability_correction(np.array([4.5, 1.0])), [5.0, 2.0])


def test_oracle_windows_are_independent():
    env = JacksonEnvironment(SINGLE, FixedWorkload(rate=2.0, mix=ONE_JOB), quick_cfg())
    env.reset(1)
    env.begin_round(1)
    oracle = env.oracle()
    x = np.array([4.0])
    first, second = oracle(np.stack([x, x]))
    assert oracle.queries == 2
    assert first != second  # fresh window per query, no common-random-numbers reuse
    # latency only: the resource term reaches the optimizers through gradient_offset
    rng = np.random.default_rng([1, 1])
    assert first == simulate_window(SINGLE, 2.0, ONE_JOB, x, quick_cfg(), rng).mean_latency


def test_environment_round_protocol():
    schedule = FixedWorkload(rate=2.0, mix=ONE_JOB)
    env = JacksonEnvironment(TANDEM, schedule, quick_cfg())
    assert env.dim == 2
    start = env.reset(0)
    assert np.array_equal(start, [4.0, 4.0])
    start[0] = -99.0  # caller-side mutation must not leak into the env
    again = env.reset(0)
    assert np.array_equal(again, [4.0, 4.0])

    env.begin_round(1)
    cost = env.incur(np.array([4.0, 4.0]))
    assert np.isfinite(cost)
    assert cost > 8.0  # resource term alone is 8
    assert np.array_equal(env.gradient_offset(), [1.0, 1.0])
    assert env.exact_gradient(np.array([4.0, 4.0])) is None
    corrected = env.instability_correction(np.array([59.5, 4.0]))
    assert np.allclose(corrected, [60.0, 5.0])


def test_incur_and_oracle_need_begin_round_after_each_reset():
    env = JacksonEnvironment(TANDEM, FixedWorkload(rate=2.0, mix=ONE_JOB), quick_cfg())
    x = np.array([4.0, 4.0])
    missing = r"begin_round\(\) must run after reset\(\) and before "

    def assert_no_round():
        with pytest.raises(RuntimeError, match=missing + r"incur\(\)"):
            env.incur(x)
        with pytest.raises(RuntimeError, match=missing + r"oracle\(\)"):
            env.oracle()

    assert_no_round()
    with pytest.raises(RuntimeError, match=r"reset\(\) must run before begin_round\(\)"):
        env.begin_round(1)
    env.reset(0)
    assert_no_round()
    env.begin_round(1)
    assert np.isfinite(env.incur(x))
    env.reset(0)
    assert_no_round()  # the last run's round does not carry over


@pytest.mark.parametrize(
    "mix, message",
    [
        ({"job1": 0.5}, r"round 1 mix probabilities sum to 0.5, expected 1"),
        (
            {"job1": 1.5, "job2": -0.5},
            r"round 1 mix probability for 'job2' must be finite and >= 0, got -0.5",
        ),
    ],
    ids=["sums-to-half", "negative-entry"],
)
def test_begin_round_rejects_a_mix_that_is_not_a_distribution(mix, message):
    # built without load_spec, which checks the mixes a spec names
    two_types = Topology(num_queues=2, routes={"job1": (0, 1), "job2": (0,)})
    env = JacksonEnvironment(two_types, FixedWorkload(rate=2.0, mix=mix), quick_cfg())
    env.reset(0)
    with pytest.raises(ConfigurationError, match=message):
        env.begin_round(1)


def test_sim_config_rejects_an_initial_allocation_outside_the_box():
    bounds = r"is outside \[lower_bound, upper_bound\] = \[1.0, 60.0\]"
    with pytest.raises(ConfigurationError, match="initial_allocation: 0.0 " + bounds):
        quick_cfg(initial_allocation=0.0)
    with pytest.raises(ConfigurationError, match="initial_entry_allocation: 99.0 " + bounds):
        quick_cfg(initial_entry_allocation=99.0)


def test_environment_runs_are_reproducible():
    schedule = FixedWorkload(rate=2.0, mix=ONE_JOB)
    costs = []
    for _ in range(2):
        env = JacksonEnvironment(SINGLE, schedule, quick_cfg())
        env.reset(7)
        env.begin_round(1)
        costs.append(env.incur(np.array([3.0])))
    assert costs[0] == costs[1]


def _per_event_reference(topology, rate, mix, allocation, sim_cfg, rng):
    """The simulator as an event loop over jobs and their stages, written for clarity.

    It draws one standard exponential per route visit of the window's jobs,
    in job order and then visit order, and a service takes the draw at its
    job's offset plus the job's stage. It breaks a tie between completions
    by push order (its seq), not by queue, and real draws never tie, so
    comparing against it cannot catch a broken tie rule;
    test_same_instant_events_follow_the_tie_rules pins those.
    """
    names = topology.job_names
    service_rate = np.maximum(allocation, 0.0) + SERVICE_RATE_FLOOR
    mean_service = 1.0 / service_rate
    horizon = sim_cfg.warmup_seconds + sim_cfg.measure_seconds

    arrivals = _poisson_arrivals(rate, horizon, rng)
    n = arrivals.shape[0]
    if n == 0:
        return float("nan"), 0
    probs = np.array([mix.get(name, 0.0) for name in names])
    routes = [topology.routes[name] for name in names]
    job_type = rng.choice(len(names), size=n, p=probs)
    offset = [0]
    for kind in job_type:
        offset.append(offset[-1] + len(routes[kind]))
    draws = rng.standard_exponential(offset[-1])

    stage = np.zeros(n, dtype=np.int64)
    waiting = [deque() for _ in range(topology.num_queues)]
    in_service = [-1] * topology.num_queues
    heap = []
    seq = 0
    next_arrival = 0
    measure_start = sim_cfg.warmup_seconds
    sojourns = []

    def begin_service(queue, job, now):
        nonlocal seq
        in_service[queue] = job
        seq += 1
        duration = draws[offset[job] + stage[job]] * mean_service[queue]
        heapq.heappush(heap, (now + duration, seq, queue))

    def enqueue(queue, job, now):
        if in_service[queue] < 0:
            begin_service(queue, job, now)
        else:
            waiting[queue].append(job)

    while True:
        arrival_time = arrivals[next_arrival] if next_arrival < n else math.inf
        completion_time = heap[0][0] if heap else math.inf
        if min(arrival_time, completion_time) > horizon:
            break
        if arrival_time <= completion_time:
            job = next_arrival
            next_arrival += 1
            enqueue(ENTRY_QUEUE, job, arrival_time)
        else:
            now, _, queue = heapq.heappop(heap)
            job = in_service[queue]
            in_service[queue] = -1
            stage[job] += 1
            route = routes[job_type[job]]
            if stage[job] == len(route):
                if now >= measure_start:
                    sojourns.append(now - arrivals[job])
            else:
                enqueue(route[stage[job]], job, now)
            if waiting[queue]:
                begin_service(queue, waiting[queue].popleft(), now)

    if not sojourns:
        return float("nan"), 0
    return math.fsum(sojourns) / len(sojourns), len(sojourns)


JACKSON_PRESETS = [
    "jackson-complex-fixed",
    "jackson-complex-varying-rate",
    "jackson-complex-varying-jobs",
    "jackson-large-fixed",
    "jackson-large-varying-rate",
    "jackson-large-varying-jobs",
]


@pytest.mark.parametrize("n", [0, 1, 7, 200, 5000])
def test_job_types_are_drawn_as_rng_choice_draws_them(n):
    mixes = [
        (("a", "b", "c", "d"), {"a": 0.0, "b": 0.25, "c": 0.75, "d": 0.0}),  # zero entries
    ]
    for name in JACKSON_PRESETS:
        env = load_spec(find_preset(name)).make_environment()
        # variable-mix presets blend between rounds 40 and 90
        for t in (1, 40, 41, 57, 73, 89, 90, 100):
            mixes.append((env.topology.job_names, env.schedule.at(t)[1]))
    ours, numpy_own = np.random.default_rng(n), np.random.default_rng(n)
    for names, mix in mixes:  # one generator pair throughout, as consecutive windows share it
        probs = np.array([mix.get(name, 0.0) for name in names])
        kinds = _job_types(probs, n, ours)
        assert np.array_equal(kinds, numpy_own.choice(len(names), size=n, p=probs))
        assert ours.bit_generator.state == numpy_own.bit_generator.state


def _reference_case(case):
    if case == "no-arrivals":
        return SINGLE, 1e-9, ONE_JOB, np.array([1.0]), quick_cfg()
    if case == "no-departures":
        cfg = quick_cfg(warmup_seconds=0.5, measure_seconds=0.5)
        return TANDEM, 2.0, ONE_JOB, np.array([0.0, 0.0]), cfg
    if case == "route-0-1-0":
        looped = Topology(num_queues=2, routes={"job1": (0, 1, 0)})
        cfg = quick_cfg(warmup_seconds=5.0, measure_seconds=20.0)
        return looped, 2.0, ONE_JOB, np.array([3.0, 4.0]), cfg
    name, _, allocation = case.rpartition("-")
    env = load_spec(find_preset(name)).make_environment()
    rate, mix = env.schedule.at(1)
    lower, upper = env.sim_cfg.lower_bound, env.sim_cfg.upper_bound
    x = {
        "initial": env.reset(0),
        "random": np.random.default_rng(5).uniform(lower, upper, env.dim),
        "low": np.full(env.dim, lower),  # far below the arrival rate: queues only grow
    }[allocation]
    return env.topology, rate, mix, x, env.sim_cfg


REFERENCE_CASES = [
    f"{name}-{allocation}"
    for name in JACKSON_PRESETS
    for allocation in ("initial", "random", "low")
] + ["no-arrivals", "no-departures", "route-0-1-0"]


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_simulate_window_matches_the_per_event_reference(case):
    topology, rate, mix, x, cfg = _reference_case(case)
    fast, slow = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(4):  # consecutive windows share the generator, as oracle queries do
        obs = simulate_window(topology, rate, mix, x, cfg, fast)
        latency, departures = _per_event_reference(topology, rate, mix, x, cfg, slow)
        assert obs.departures == departures
        assert np.array_equal(obs.mean_latency, latency, equal_nan=True)
        assert fast.bit_generator.state == slow.bit_generator.state


# the windows that every packaged Jackson preset plays, as one hash
WINDOW_DIGEST = "0e1a764a0ccac056403bf3a5f5bc4113aee5625798fe516454780e69f5a0e218"


def test_windows_are_bit_identical_to_the_recorded_digest():
    """Eight consecutive windows from default_rng(11) on every packaged Jackson
    preset, at its start, random and low allocations, hash to WINDOW_DIGEST: a
    sha256 over float.hex of each mean latency, each departure count and each
    case's final generator state.

    A window uses no BLAS, only exact elementwise operations, a sequential
    cumsum and the Generator stream, so the digest does not depend on the host.
    Re-record it only in a change that moves the draw order, and say so in
    CHANGES.md.
    """
    digest = hashlib.sha256()
    for name in JACKSON_PRESETS:
        for allocation in ("initial", "random", "low"):
            topology, rate, mix, x, cfg = _reference_case(f"{name}-{allocation}")
            rng = np.random.default_rng(11)
            for _ in range(8):
                obs = simulate_window(topology, rate, mix, x, cfg, rng)
                digest.update(f"{obs.mean_latency.hex()} {obs.departures}\n".encode())
            digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == WINDOW_DIGEST


@st.composite
def small_networks(draw):
    """A random network of 1-6 queues and 1-4 job types, with its workload and allocation."""
    num_queues = draw(st.integers(1, 6))
    routes = {}
    for k in range(draw(st.integers(1, 4))):
        route = [ENTRY_QUEUE]
        for _ in range(draw(st.integers(0, 5)) if num_queues > 1 else 0):
            # a nonzero step modulo num_queues: routes come back, never twice in a row
            route.append((route[-1] + draw(st.integers(1, num_queues - 1))) % num_queues)
        routes[f"job{k}"] = tuple(route)
    weights = draw(st.lists(st.integers(0, 3), min_size=len(routes), max_size=len(routes)))
    weights[0] += 1  # at least one job type can arrive
    mix = {name: w / sum(weights) for name, w in zip(routes, weights)}
    rate = draw(st.floats(0.2, 6.0))
    # down to negative allocations, which serve at the floor rate
    allocation = np.array(draw(st.lists(st.floats(-1.0, 8.0), min_size=num_queues, max_size=num_queues)))
    cfg = quick_cfg(
        warmup_seconds=draw(st.floats(0.0, 3.0)), measure_seconds=draw(st.floats(0.5, 4.0))
    )
    return Topology(num_queues=num_queues, routes=routes), rate, mix, allocation, cfg


@settings(max_examples=150, deadline=None)
@given(network=small_networks(), seed=st.integers(0, 2**32 - 1))
# not a tree and never back at the entry queue: the loop takes jobs in as they
# leave it, and job1 leaves the network there
@example(
    network=(
        ENTRY_ONLY,
        3.0,
        {"job1": 0.4, "job2": 0.3, "job3": 0.3},
        np.array([4.0, 2.0, 3.0]),
        quick_cfg(warmup_seconds=0.0),
    ),
    seed=0,
)
# back at the entry queue: the loop takes jobs in as they arrive
@example(
    network=(
        Topology(num_queues=3, routes={"job0": (0, 1, 0, 2), "job1": (0, 2, 1)}),
        2.0,
        {"job0": 0.5, "job1": 0.5},
        np.array([6.0, 3.0, 4.0]),
        quick_cfg(),
    ),
    seed=1,
)
def test_simulate_window_matches_the_reference_on_random_networks(network, seed):
    topology, rate, mix, x, cfg = network
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # consecutive windows share the generator
        obs = simulate_window(topology, rate, mix, x, cfg, fast)
        latency, departures = _per_event_reference(topology, rate, mix, x, cfg, slow)
        assert obs.departures == departures
        assert np.array_equal(obs.mean_latency, latency, equal_nan=True)
        assert fast.bit_generator.state == slow.bit_generator.state


@pytest.mark.parametrize(
    "topology, tree",
    [
        (SINGLE, True),
        (TANDEM, True),
        (Topology(num_queues=4, routes={"a": (0, 1, 2), "b": (0, 1, 3), "c": (0,)}), True),
        (Topology(num_queues=2, routes={"a": (0, 1, 0)}), False),  # re-enters the entry queue
        (Topology(num_queues=4, routes={"a": (0, 1, 3), "b": (0, 2, 3)}), False),  # 3 has two feeders
        (Topology(num_queues=3, routes={"a": (0, 1, 2), "b": (0, 2)}), False),  # so has 2
    ]
    + [(name, name.startswith("jackson-large")) for name in JACKSON_PRESETS],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_a_topology_knows_whether_its_routes_form_a_tree(topology, tree):
    if isinstance(topology, str):
        topology = load_spec(find_preset(topology)).make_environment().topology
    assert topology.is_tree is tree


@pytest.mark.parametrize(
    "topology, reenters",
    [
        (SINGLE, False),
        (TANDEM, False),
        (LOOPED, True),
        (MERGING, False),
        (ENTRY_ONLY, False),
        (Topology(num_queues=3, routes={"a": (0, 1, 2), "b": (0,), "c": (0, 2, 0, 1)}), True),
    ]
    + [(name, False) for name in JACKSON_PRESETS],
    ids=lambda v: v if isinstance(v, str) else None,
)
def test_a_topology_tabulates_its_routes(topology, reenters):
    if isinstance(topology, str):
        topology = load_spec(find_preset(topology)).make_environment().topology
    routes = list(topology.routes.values())
    assert topology.reenters_entry is reenters
    assert topology.route_lengths.tolist() == [len(route) for route in routes]
    width = max(len(route) for route in routes)
    assert topology.route_table.shape == (len(routes), width)
    for row, route in zip(topology.route_table.tolist(), routes):
        assert row == list(route) + [-1] * (width - len(route))


def test_equal_topologies_compare_equal_whatever_they_work_out():
    routes = {"a": (0, 1, 2), "b": (0,), "c": (0, 2, 0, 1)}
    first, second = Topology(num_queues=3, routes=routes), Topology(num_queues=3, routes=dict(routes))
    assert first == second
    assert first != Topology(num_queues=4, routes=routes)
    assert first != Topology(num_queues=3, routes={**routes, "b": (0, 1)})
    # the worked-out fields (route_table is an array) stay out of == and out of
    # the hash, which follows == (Topology does not hash: routes is a dict)
    assert [f.name for f in dataclasses.fields(Topology) if f.compare] == ["num_queues", "routes"]


def _drawn_window(topology, rate, mix, x, cfg, rng):
    """One window's draw at allocation x, as simulate_window hands it to an ordering."""
    horizon = cfg.warmup_seconds + cfg.measure_seconds
    arrivals, kinds, queues, draws = _draw_window(topology, rate, mix, horizon, rng)
    durations = draws * (1.0 / (np.maximum(x, 0.0) + SERVICE_RATE_FLOOR))[queues]
    return topology, arrivals, kinds, queues, durations, cfg.warmup_seconds, horizon


def _same_windows(topology, rate, mix, x, cfg, seed, windows):
    """The tree pass and the event loop find the same sojourns, bit for bit, on
    each of consecutive windows drawn once from one seed. The pass finds them
    in job order and the loop in departure order, so both lists are sorted."""
    rng = np.random.default_rng(seed)
    for _ in range(windows):  # consecutive windows share the generator, as oracle queries do
        window = _drawn_window(topology, rate, mix, x, cfg, rng)
        assert sorted(_tree_pass(*window)) == sorted(_event_loop(*window))


@pytest.mark.parametrize(
    "case",
    [
        f"{name}-{allocation}"
        for name in JACKSON_PRESETS
        if name.startswith("jackson-large")
        for allocation in ("initial", "random", "low")
    ],
)
def test_the_tree_pass_matches_the_event_loop_on_the_large_presets(case):
    topology, rate, mix, x, cfg = _reference_case(case)
    _same_windows(topology, rate, mix, x, cfg, seed=11, windows=4)


@st.composite
def small_trees(draw):
    """A random tree of 1-8 queues rooted at the entry queue, with 1-4 job types
    whose routes run from the root to a queue (so they share prefixes)."""
    num_queues = draw(st.integers(1, 8))
    parent = [None] + [draw(st.integers(0, q - 1)) for q in range(1, num_queues)]
    routes = {}
    for k in range(draw(st.integers(1, 4))):
        q, path = draw(st.integers(0, num_queues - 1)), []
        while q is not None:
            path.append(q)
            q = parent[q]
        routes[f"job{k}"] = tuple(reversed(path))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(routes), max_size=len(routes)))
    weights[0] += 1  # at least one job type can arrive
    mix = {name: w / sum(weights) for name, w in zip(routes, weights)}
    rate = draw(st.floats(0.2, 6.0))
    # down to negative allocations, which serve at the floor rate
    allocation = np.array(draw(st.lists(st.floats(-1.0, 8.0), min_size=num_queues, max_size=num_queues)))
    cfg = quick_cfg(
        warmup_seconds=draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0))),
        measure_seconds=draw(st.floats(0.5, 4.0)),
    )
    return Topology(num_queues=num_queues, routes=routes), rate, mix, allocation, cfg


@settings(max_examples=150, deadline=None)
@given(network=small_trees(), seed=st.integers(0, 2**32 - 1))
def test_the_tree_pass_matches_the_event_loop_on_random_trees(network, seed):
    topology, rate, mix, x, cfg = network
    assert topology.is_tree
    _same_windows(topology, rate, mix, x, cfg, seed=seed, windows=3)


@pytest.mark.parametrize("name", ["jackson-large-fixed", "jackson-complex-fixed"])
def test_a_window_uses_the_generator_alike_at_every_allocation(name):
    env = load_spec(find_preset(name)).make_environment()
    rate, mix = env.schedule.at(1)
    cfg = quick_cfg(warmup_seconds=0.0, measure_seconds=5.0)
    # at allocation -1 every visit lasts 10 s on average: no job gets through in 5 s
    stable, starved = env.reset(0), np.full(env.dim, -1.0)
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(3):
        assert simulate_window(env.topology, rate, mix, stable, cfg, a).departures > 0
        assert simulate_window(env.topology, rate, mix, starved, cfg, b).departures == 0
        assert a.bit_generator.state == b.bit_generator.state


@pytest.mark.parametrize("name", ["jackson-complex-fixed", "jackson-large-fixed"])
def test_the_mean_latency_matches_the_product_form(name):
    """Over 200 windows at the start allocation, the mean latency is within 5% of
    the Jackson product form: sum over queues of v_q / (mu_q - rate * v_q), with
    v_q the mean visits a job pays to queue q and mu_q its service rate."""
    env = load_spec(find_preset(name)).make_environment()
    rate, mix = env.schedule.at(1)
    x = env.reset(0)
    visits = np.zeros(env.dim)
    for job, route in env.topology.routes.items():
        for q in route:
            visits[q] += mix.get(job, 0.0)
    mu = x + SERVICE_RATE_FLOOR
    analytic = float(np.sum(visits / (mu - rate * visits)))
    rng = np.random.default_rng([0, 1])
    windows = [simulate_window(env.topology, rate, mix, x, env.sim_cfg, rng) for _ in range(200)]
    simulated = float(np.mean([w.mean_latency for w in windows]))
    assert abs(simulated / analytic - 1.0) <= 0.05


class _ScriptedGenerator:
    """Stands in for a Generator: arrivals every `spacing` seconds, all of job type 0,
    and `draws` as the window's block of service draws."""

    def __init__(self, spacing, draws):
        self.spacing = spacing
        self.draws = draws
        self.bit_generator = SimpleNamespace(state=None)
        self.block_sizes = []  # the service blocks drawn

    def exponential(self, scale, size):
        return np.full(size, self.spacing)

    def random(self, size):  # uniforms for the job types: all zero, so type 0
        return np.zeros(size)

    def standard_exponential(self, size):
        self.block_sizes.append(size)
        return np.array(self.draws[:size])


TIE_CASES = [
    # Job 0 leaves queue 1 at t=3 to rejoin queue 0, busy with job 1 until
    # t=3.5, just as job 2 arrives. Admitted first, job 2 starts at t=3.5
    # with its draw 6 (0.25), and job 0 then takes its draw 2 (0.125) and
    # leaves at 3.875 after 2.875. Completion first would give 2.625.
    pytest.param(
        LOOPED, 4.0, [0.5, 1.5, 0.125, 1.5, 1.0, 1.0, 0.25, 1.0, 1.0], 2.875, 1,
        id="arrival-before-completion",
    ),
    # At t=4 queue 0 finishes job 1 and queue 2 finishes job 0, both bound
    # for the idle queue 1. Queue 0 goes first: job 1 starts there with its
    # draw 5 (0.25), and job 0 then takes its draw 3 (0.125) and leaves at
    # 4.375 after 3.375. Queue 2 first would give 3.125.
    pytest.param(
        MERGING, 4.5, [0.5, 0.5, 2.0, 0.125, 2.0, 0.25] + [1.0] * 10, 3.375, 1,
        id="completions-in-queue-order",
    ),
    # Jobs 0 and 1 arrive at t=1 and t=2, so the block holds four draws. Job 0
    # leaves queue 1 at exactly t=3 after 2.0, which counts; job 1, waiting
    # there since t=2.5, then starts with its draw 3.
    pytest.param(TANDEM, 3.0, [0.5, 1.5, 0.5, 0.5], 2.0, 1, id="departure-at-the-horizon"),
    # Just short of t=3 the window ends before job 0 leaves: no departure.
    pytest.param(
        TANDEM, 2.9999999999, [0.5, 1.5, 0.5, 0.5], math.nan, 0, id="departure-past-the-horizon"
    ),
    # Not a tree, so the event loop runs, with the entry queue served
    # before it: job 0 leaves queue 0 at exactly t=3 after 2.0, which
    # counts; job 1 starts there at t=3 and leaves past the horizon.
    pytest.param(ENTRY_ONLY, 3.0, [2.0, 0.5], 2.0, 1, id="entry-departure-at-the-horizon"),
    # Just short of t=3 the window ends before job 0 leaves queue 0.
    pytest.param(
        ENTRY_ONLY, 2.9999999999, [2.0, 0.5], math.nan, 0, id="entry-departure-past-the-horizon"
    ),
]
ORDERINGS = {"event-loop": _event_loop, "tree-pass": _tree_pass}


# simulate_window on every case, and every ordering that applies on the
# case's draw: the event loop always, the tree pass on a tree
@pytest.mark.parametrize(
    "window, topology, horizon, draws, latency, departures",
    [
        pytest.param(window, *case.values, id=f"{window}-{case.id}")
        for window in ("window", *ORDERINGS)
        for case in TIE_CASES
        if window != "tree-pass" or case.values[0].is_tree
    ],
)
def test_same_instant_events_follow_the_tie_rules(window, topology, horizon, draws, latency, departures):
    rng = _ScriptedGenerator(spacing=1.0, draws=draws)
    cfg = quick_cfg(warmup_seconds=0.0, measure_seconds=horizon)
    # mean service time 1: each service lasts its draw
    x = np.full(topology.num_queues, 1.0 - SERVICE_RATE_FLOOR)
    if window == "window":
        obs = simulate_window(topology, 1.0, ONE_JOB, x, cfg, rng)
        assert obs.departures == departures
        assert np.array_equal(obs.mean_latency, latency, equal_nan=True)
    else:
        sojourns = ORDERINGS[window](*_drawn_window(topology, 1.0, ONE_JOB, x, cfg, rng))
        assert sojourns == [latency][:departures]  # every case has at most one departure
    assert rng.block_sizes == [len(draws)]  # one block, one draw per route visit


def test_a_reused_environment_plays_like_fresh_ones():
    schedule = VariableRateWorkload(segments=((1, 1, 1.5), (2, 3, 2.5)), mix=ONE_JOB)

    def latencies(env, seed):
        x = env.reset(seed)
        out = []
        for t in range(1, 4):
            env.begin_round(t)
            out.append(env.incur(x))
            out.extend(env.oracle()(np.stack([x, x + 1.0])).tolist())
        return np.array(out).tobytes()  # bytes: an unstable NaN window compares equal

    reused = JacksonEnvironment(TANDEM, schedule, quick_cfg())
    for seed in (0, 1, 0):
        fresh = latencies(JacksonEnvironment(TANDEM, schedule, quick_cfg()), seed)
        assert latencies(reused, seed) == fresh
