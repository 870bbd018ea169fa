"""A simplified person/location epidemic.

Persons follow a fixed daily schedule of location visits. Each day runs
three transitions:

1. persons emit Visit edges (person -> location) carrying their visit
   interval;
2. locations read the visits, pair susceptible with infectious visits
   whose intervals overlap (closed intervals), and emit an Infection edge
   (location -> person) for each susceptible visit infected;
3. persons that received an Infection edge become infectious.

Transmission takes one draw per overlapping (susceptible visit, infectious
visit) pair from the location's random stream, and a visit is infected
when any of its draws falls below theta. A location's pairs are drawn in
(susceptible id, start, end; infector id, start, end) order, every pair
whatever the earlier draws gave, so a location's draws can be taken in
bulk. The batch form gets that order without a full sort: the store lists
a location's visits by producer, which is the visiting person, so only a
person's repeat visits to one location are sorted by (start, end); visits
out of (location, person) order fall back to a four-key sort. Both give
the same order, so the draws are unchanged.

Status updates are synchronous: a person infected on day d transmits from
day d+1 on. The ever-infected set is therefore non-decreasing, and with
theta = 1 it reaches the transitive co-presence closure of the seed set.

:func:`day_program` runs the day as batch transitions, one call per chunk
of agents; :func:`day_program_agents` runs the per-agent forms, which give
bit-equal results and serve as their oracle. The schedule is fixed, so the
batch form emits a chunk of consecutive persons, as one worker, a
``contiguous`` partition and one-agent chunks give, as one slice of it;
the chunks of other partitions gather their persons' visits one run at a
time.
"""

from __future__ import annotations

import csv
import enum
import itertools
from dataclasses import dataclass

import numpy as np

from ..engine import TransitionSpec, run
from ..errors import UsageError
from ..ids import local_index
from ..schema import AgentTypeDecl, EdgeTypeDecl, Hint, Schema
from ..sim import Simulation

PERSON = "Person"
LOCATION = "Location"
VISIT = "Visit"
INFECTION = "Infection"


class Status(enum.IntEnum):
    SUSCEPTIBLE = 0
    INFECTED = 1


# Plain ints for the per-person compare: an np.int64 == IntEnum compare
# costs microseconds, an np.int64 == int one tens of nanoseconds.
_SUSCEPTIBLE = int(Status.SUSCEPTIBLE)
_INFECTED = int(Status.INFECTED)


@dataclass(frozen=True)
class EpiConfig:
    persons: int
    locations: int
    theta: float
    seed: int = 0
    # (person, location, start_minute, end_minute) rows; one per daily visit
    schedule: tuple | None = None
    initial_infected: tuple = (0,)
    hints: bool = True


def random_schedule(persons: int, locations: int, rng: np.random.Generator,
                    visits_per_person: int = 2, day_minutes: int = 960) -> tuple:
    """A plausible random daily schedule: short visits at random times."""
    rows = []
    for p in range(persons):
        for _ in range(int(rng.integers(0, visits_per_person + 1))):
            loc = int(rng.integers(0, locations))
            start = int(rng.integers(0, day_minutes - 60))
            rows.append((p, loc, start, start + int(rng.integers(30, 120))))
    return tuple(rows)


def load_schedule_csv(path) -> tuple:
    """Read a schedule file: person_id, location_id, start_minute, end_minute."""
    rows = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            if lineno == 1 and not row[0].strip().lstrip("-").isdigit():
                continue  # header row
            if len(row) != 4:
                raise UsageError(f"{path}:{lineno}: expected 4 columns, got {len(row)}")
            rows.append(tuple(int(c) for c in row))
    return tuple(rows)


def intervals_overlap(a_start, a_end, b_start, b_end) -> bool:
    """Closed-interval overlap; touching endpoints count as contact."""
    return a_start <= b_end and b_start <= a_end


@dataclass
class EpiModel:
    """A built epidemic and its daily schedule as a CSR over persons: the
    visits of person ``p`` (local index) sit at ``visit_ptr[p]:visit_ptr[p
    + 1]`` of the person, location id, start and end columns, in schedule
    order."""

    sim: Simulation
    person_base: int
    location_base: int
    visit_ptr: np.ndarray
    visit_person: np.ndarray
    visit_location: np.ndarray
    visit_start: np.ndarray
    visit_end: np.ndarray


def build_epi(config: EpiConfig, checks="on") -> EpiModel:
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl(PERSON, (("status", Status),), immortal=True)
    )
    schema.register_agent_type(AgentTypeDecl(LOCATION, (), immortal=True))
    schema.register_edge_type(EdgeTypeDecl(VISIT, (("start", "int64"), ("end", "int64"))))
    schema.register_edge_type(EdgeTypeDecl(
        INFECTION, hints=Hint.STATELESS | Hint.IGNORE_FROM if config.hints else Hint.NONE))

    sim = Simulation(
        schema, seed=config.seed, params={"theta": config.theta}, checks=checks
    )
    schedule = config.schedule
    if schedule is None:
        schedule = random_schedule(
            config.persons, config.locations, np.random.default_rng(config.seed)
        )
    status0 = np.zeros(config.persons, dtype=np.int64)
    for p in config.initial_infected:
        if not 0 <= p < config.persons:
            raise UsageError(f"initial infected person {p} out of range")
        status0[p] = int(Status.INFECTED)
    person_ids = sim.add_agents(PERSON, config.persons, {"status": status0})
    location_ids = sim.add_agents(LOCATION, config.locations, {})

    if not set(map(len, schedule)) <= {4}:
        raise UsageError("schedule rows are (person, location, start, end)")
    rows = np.fromiter(itertools.chain.from_iterable(schedule), dtype=np.int64,
                       count=4 * len(schedule)).reshape(-1, 4)
    p, loc, start, end = rows.T
    bad = (p < 0) | (p >= config.persons) | (loc < 0) | (loc >= config.locations)
    bad |= end < start
    if bad.any():
        row = tuple(rows[np.argmax(bad)].tolist())
        if not 0 <= row[0] < config.persons:
            raise UsageError(f"schedule person {row[0]} out of range")
        if not 0 <= row[1] < config.locations:
            raise UsageError(f"schedule location {row[1]} out of range")
        raise UsageError(f"schedule visit ends before it starts: {row}")
    order = np.argsort(p, kind="stable")
    visit_ptr = np.zeros(config.persons + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=config.persons), out=visit_ptr[1:])
    sim.commit_initial()
    return EpiModel(
        sim=sim,
        person_base=int(person_ids[0]) if config.persons else 0,
        location_base=int(location_ids[0]) if config.locations else 0,
        visit_ptr=visit_ptr,
        visit_person=p[order],
        visit_location=location_ids[loc[order]],
        visit_start=start[order],
        visit_end=end[order],
    )


def _visit_order(loc, sources, start, end) -> np.ndarray:
    """Positions of a chunk's visits in (location, source, start, end)
    order, ties kept in position order: ``np.lexsort((end, start, sources,
    loc))``.

    ``batch.edges`` lists a location's visits in producer order, and a
    visit's producer is its source, so (location, source) is nondecreasing
    and only its runs, a person's repeat visits to one location, are sorted
    by (start, end). When one vectorised pass finds (location, source)
    out of order, the full lexsort runs instead.
    """
    order = np.arange(loc.size)
    if loc.size < 2:
        return order
    same_loc = loc[1:] == loc[:-1]
    if not np.all((loc[1:] > loc[:-1]) | (same_loc & (sources[1:] >= sources[:-1]))):
        return np.lexsort((end, start, sources, loc))
    repeat = same_loc & (sources[1:] == sources[:-1])  # position k + 1 continues k's run
    if not repeat.any():
        return order
    run = np.cumsum(np.concatenate(([True], ~repeat)))
    member = np.zeros(loc.size, dtype=bool)
    member[1:] = repeat
    member[:-1] |= repeat
    m = np.flatnonzero(member)
    order[m] = m[np.lexsort((end[m], start[m], run[m]))]
    return order


def spread(batch, params, _globals):
    """Infection edges from a chunk of locations, one per susceptible visit
    infected; each location's draws as :func:`spread_agent` takes them.

    The visits are put in (location, source, start, end) order by
    :func:`_visit_order`, which sorts only a person's repeat visits to a
    location and runs the full sort only when the store's order is not
    (location, source); the draw order does not depend on which ran."""
    theta = params["theta"]
    if theta <= 0.0:
        return None
    sources, (start, end), indptr = batch.edges(VISIT)
    status, _ = batch.neighbor_field(VISIT, "status")
    n = batch.slots.size
    loc = np.repeat(np.arange(n), np.diff(indptr))  # chunk position per visit
    order = _visit_order(loc, sources, start, end)
    infectious = (status == _INFECTED)[order]
    s = order[~infectious]
    i = order[infectious]
    # Pair each susceptible visit with its location's infectious visits:
    # (location, susceptible, infectious) order, sum over locations of |S|·|I|.
    n_inf = np.bincount(loc[i], minlength=n)
    per_s = n_inf[loc[s]]
    pair_s = np.repeat(np.arange(s.size), per_s)
    first_i = np.cumsum(n_inf) - n_inf
    pair_i = i[np.arange(pair_s.size)
               + np.repeat(first_i[loc[s]] - (np.cumsum(per_s) - per_s), per_s)]
    sv = s[pair_s]
    pair_s = pair_s[(start[sv] <= end[pair_i]) & (start[pair_i] <= end[sv])]
    draws = batch.random(np.bincount(loc[s[pair_s]], minlength=n))
    hit = np.zeros(s.size, dtype=bool)
    hit[pair_s[draws < theta]] = True
    infected = s[hit]
    batch.add_edges(INFECTION, sources[infected], agents=loc[infected])
    return None


def update_status(batch, params, _globals):
    """Susceptible persons with an Infection edge become infectious."""
    status = batch.field("status")
    return (np.where((status == _SUSCEPTIBLE) & batch.has(INFECTION), _INFECTED, status),)


def spread_agent(view, params, _globals):
    """The per-agent form of :func:`spread`, kept as its oracle."""
    theta = params["theta"]
    if theta <= 0.0:
        return None
    infectious = []
    susceptible = []
    for record in view.edges(VISIT):
        status = view.source_state(record)[0]
        start, end = record.state
        if status == _INFECTED:
            infectious.append((record.source, start, end))
        else:
            susceptible.append((record.source, start, end))
    if not infectious or not susceptible:
        return None
    infectious.sort()
    rng = view.rng
    for sid, s_start, s_end in sorted(susceptible):
        draws = [rng.random() for _iid, i_start, i_end in infectious
                 if intervals_overlap(s_start, s_end, i_start, i_end)]
        if any(d < theta for d in draws):
            view.add_edge(INFECTION, sid)
    return None


def update_status_agent(view, params, _globals):
    """The per-agent form of :func:`update_status`, kept as its oracle."""
    status = view.field("status")
    if status == _SUSCEPTIBLE and view.has_edge(INFECTION):
        return (_INFECTED,)
    return (status,)


def _day(emit, spread_fn, update, batch: bool) -> list:
    return [
        (emit, TransitionSpec(
            callable_types=(PERSON,), write_types=(VISIT,), batch=batch,
        )),
        (spread_fn, TransitionSpec(
            callable_types=(LOCATION,), read_types=(VISIT, PERSON),
            write_types=(INFECTION,), batch=batch,
        )),
        (update, TransitionSpec(
            callable_types=(PERSON,), read_types=(INFECTION,),
            write_types=(PERSON,), batch=batch,
        )),
    ]


def day_program(model: EpiModel) -> list:
    """The day's three transitions as batch transitions.

    ``emit_visits`` takes a chunk of consecutive persons, which is every
    chunk at one worker or of a ``contiguous`` partition and every
    one-agent chunk, as one slice of the schedule, whose producers are its
    person column less the chunk's first person. Any other chunk, as
    ``round_robin`` and ``greedy_edge_cut`` give, gathers its persons'
    visits one run each with two repeats and a cumsum. Both give the same
    edges in the same order."""
    ptr, person, location = model.visit_ptr, model.visit_person, model.visit_location
    start, end = model.visit_start, model.visit_end
    first = local_index(model.person_base)

    def emit_visits(batch, params, _globals):
        p = batch.slots - first
        if p[-1] - p[0] == p.size - 1:  # chunks are never empty
            pos = slice(ptr[p[0]], ptr[p[-1] + 1])
            agents = person[pos] - p[0]
        else:
            lo, counts = ptr[p], ptr[p + 1] - ptr[p]
            agents = np.repeat(np.arange(p.size), counts)
            pos = np.arange(agents.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
        batch.add_edges(VISIT, location[pos], agents=agents,
                        states=(start[pos], end[pos]))
        return None

    return _day(emit_visits, spread, update_status, batch=True)


def day_program_agents(model: EpiModel) -> list:
    """The per-agent forms of :func:`day_program`, kept as its oracle."""
    ptr, location, start, end = (
        a.tolist() for a in (model.visit_ptr, model.visit_location,
                             model.visit_start, model.visit_end)
    )
    base = model.person_base

    def emit_visits_agent(view, params, _globals):
        p = view.agent_id - base
        for k in range(ptr[p], ptr[p + 1]):
            view.add_edge(VISIT, location[k], (start[k], end[k]))
        return None

    return _day(emit_visits_agent, spread_agent, update_status_agent, batch=False)


def infected_count(sim: Simulation) -> int:
    return int(np.count_nonzero(sim.field_array(PERSON, "status") == Status.INFECTED))


def epi_metrics(sim: Simulation, prev_infected: int) -> dict:
    infected = infected_count(sim)
    total = sim.n_alive(PERSON)
    return {
        "susceptible": total - infected,
        "infected": infected,
        "new_infections": infected - prev_infected,
    }


@dataclass
class EpiResult:
    metrics: list[dict]
    infected_persons: np.ndarray  # local person indices, ascending
    checksum: str
    transition_wall_s: float
    step_walls: list
    merges_reused: list  # per day, the edge-type merges that kept their container
    storage: dict  # the final graph's ``Simulation.describe()``


def epi_run(config: EpiConfig, days: int, *, workers: int = 1,
            strategy: str = "contiguous", checks="on") -> EpiResult:
    model = build_epi(config, checks=checks)
    sim = model.sim
    metrics: list[dict] = []
    state = {"infected": infected_count(sim)}

    def on_step(s):
        row = epi_metrics(s, state["infected"])
        state["infected"] = row["infected"]
        metrics.append(row)

    run(sim, days, day_program(model), workers=workers, strategy=strategy,
        on_step=on_step)
    status = sim.field_array(PERSON, "status")
    walls = [m["wall_ms"] for m in sim.step_metrics]
    return EpiResult(
        metrics=metrics,
        infected_persons=np.flatnonzero(status == int(Status.INFECTED)),
        checksum=sim.state_checksum(),
        transition_wall_s=sum(walls) / 1e3,
        step_walls=walls,
        merges_reused=[m["merges_reused"] for m in sim.step_metrics],
        storage=sim.describe(),
    )


def copresence_closure(config: EpiConfig) -> set[int]:
    """Brute-force oracle: persons reachable from the seed set through
    chains of overlapping co-presence (one hop per day, run to fixpoint)."""
    schedule = config.schedule
    if schedule is None:
        schedule = random_schedule(
            config.persons, config.locations, np.random.default_rng(config.seed)
        )
    contacts: dict[int, set[int]] = {p: set() for p in range(config.persons)}
    by_location: dict[int, list] = {}
    for p, loc, start, end in schedule:
        by_location.setdefault(loc, []).append((p, start, end))
    for rows in by_location.values():
        for p, ps, pe in rows:
            for q, qs, qe in rows:
                if p != q and intervals_overlap(ps, pe, qs, qe):
                    contacts[p].add(q)
    infected = set(config.initial_infected)
    frontier = set(infected)
    while frontier:
        new = set()
        for p in frontier:
            new |= contacts[p] - infected
        infected |= new
        frontier = new
    return infected
