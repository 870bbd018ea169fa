"""A simplified person/location epidemic.

Persons follow a fixed daily schedule of location visits. Each day runs
three transitions:

1. persons emit Visit edges (person -> location) carrying their visit
   interval;
2. locations read the visits, pair susceptible with infectious visitors
   whose intervals overlap (closed intervals), and emit an Infection edge
   (location -> person) for each transmission, drawn per infectious
   contact with probability theta from the location's random stream;
3. persons that received an Infection edge become infectious.

Status updates are synchronous: a person infected on day d transmits from
day d+1 on. The ever-infected set is therefore non-decreasing, and with
theta = 1 it reaches the transitive co-presence closure of the seed set.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass

import numpy as np

from ..engine import TransitionSpec, run
from ..errors import UsageError
from ..ids import INDEX_MASK
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
_INFECTED = (int(Status.INFECTED),)


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
    sim: Simulation
    person_base: int
    location_base: int
    visits_by_person: tuple  # person local idx -> tuple of (loc, start, end)

    def person_id(self, p: int) -> int:
        return self.person_base + p

    def person_index(self, aid: int) -> int:
        return (aid & INDEX_MASK) - (self.person_base & INDEX_MASK)


def build_epi(config: EpiConfig, checks="on") -> EpiModel:
    schema = Schema()
    schema.register_agent_type(
        AgentTypeDecl(PERSON, (("status", Status),), immortal=True)
    )
    schema.register_agent_type(AgentTypeDecl(LOCATION, (), immortal=True))
    visit_layout = (("start", "int64"), ("end", "int64"))
    if config.hints:
        schema.register_edge_type(EdgeTypeDecl(VISIT, visit_layout))
        schema.register_edge_type(
            EdgeTypeDecl(INFECTION, hints=Hint.STATELESS | Hint.IGNORE_FROM)
        )
    else:
        schema.register_edge_type(EdgeTypeDecl(VISIT, visit_layout))
        schema.register_edge_type(EdgeTypeDecl(INFECTION))

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

    visits: list[list] = [[] for _ in range(config.persons)]
    for p, loc, start, end in schedule:
        if not 0 <= p < config.persons:
            raise UsageError(f"schedule person {p} out of range")
        if not 0 <= loc < config.locations:
            raise UsageError(f"schedule location {loc} out of range")
        if end < start:
            raise UsageError(f"schedule visit ends before it starts: {(p, loc, start, end)}")
        visits[p].append((int(location_ids[loc]), start, end))
    sim.commit_initial()
    return EpiModel(
        sim=sim,
        person_base=int(person_ids[0]) if config.persons else 0,
        location_base=int(location_ids[0]) if config.locations else 0,
        visits_by_person=tuple(tuple(v) for v in visits),
    )


def day_program(model: EpiModel):
    visits_by_person = model.visits_by_person
    person_base = model.person_base

    def emit_visits(view, params, _globals):
        for loc_id, start, end in visits_by_person[view.agent_id - person_base]:
            view.add_edge(VISIT, loc_id, (start, end))
        return None

    def spread(view, params, _globals):
        theta = params["theta"]
        if theta <= 0.0:
            return None
        infectious = []
        susceptible = []
        for record in view.edges(VISIT):
            status = view.source_state(record)[0]
            start, end = record.state
            if status == Status.INFECTED:
                infectious.append((record.source, start, end))
            else:
                susceptible.append((record.source, start, end))
        if not infectious or not susceptible:
            return None
        rng = None
        # Deterministic contact order: by susceptible id, then infector id.
        for sid, s_start, s_end in sorted(susceptible):
            for iid, i_start, i_end in sorted(infectious):
                if not intervals_overlap(s_start, s_end, i_start, i_end):
                    continue
                if theta >= 1.0:
                    view.add_edge(INFECTION, sid)
                    break
                if rng is None:
                    rng = view.rng
                if rng.random() < theta:
                    view.add_edge(INFECTION, sid)
                    break
        return None

    def update_status(view, params, _globals):
        status = view.field("status")
        if status == _SUSCEPTIBLE and view.has_edge(INFECTION):
            return _INFECTED
        return (status,)

    return [
        (emit_visits, TransitionSpec(
            callable_types=(PERSON,), write_types=(VISIT,),
        )),
        (spread, TransitionSpec(
            callable_types=(LOCATION,), read_types=(VISIT, PERSON),
            write_types=(INFECTION,),
        )),
        (update_status, TransitionSpec(
            callable_types=(PERSON,), read_types=(INFECTION,),
            write_types=(PERSON,),
        )),
    ]


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
