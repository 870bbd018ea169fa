from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from graphabm.models.episim import (
    EpiConfig,
    Status,
    _visit_order,
    build_epi,
    copresence_closure,
    epi_run,
    intervals_overlap,
    load_schedule_csv,
    random_schedule,
)


def run_to_fixpoint(config: EpiConfig, max_days=None):
    days = max_days or config.persons + 2
    return epi_run(config, days)


class TestContactSemantics:
    def test_overlap_is_closed_interval(self):
        assert intervals_overlap(0, 10, 10, 20)   # touching endpoints
        assert intervals_overlap(5, 15, 0, 30)
        assert not intervals_overlap(0, 9, 10, 20)

    def test_nonoverlapping_visits_never_infect(self):
        # Three people at one location, disjoint intervals: no contact.
        schedule = ((0, 0, 0, 10), (1, 0, 20, 30), (2, 0, 40, 50))
        cfg = EpiConfig(
            persons=3, locations=1, theta=1.0, seed=0,
            schedule=schedule, initial_infected=(0,),
        )
        res = run_to_fixpoint(cfg)
        assert res.infected_persons.tolist() == [0]
        assert copresence_closure(cfg) == {0}

    def test_theta_one_infects_all_overlapping(self):
        schedule = ((0, 0, 0, 100), (1, 0, 50, 150), (2, 0, 90, 200))
        cfg = EpiConfig(
            persons=3, locations=1, theta=1.0, seed=0,
            schedule=schedule, initial_infected=(0,),
        )
        res = epi_run(cfg, 1)
        assert res.infected_persons.tolist() == [0, 1, 2]

    def test_chain_takes_one_day_per_hop(self):
        # 0 overlaps 1 at L0; 1 overlaps 2 at L1; 0 never meets 2.
        schedule = ((0, 0, 0, 10), (1, 0, 5, 20), (1, 1, 30, 40), (2, 1, 35, 50))
        cfg = EpiConfig(
            persons=3, locations=2, theta=1.0, seed=0,
            schedule=schedule, initial_infected=(0,),
        )
        day1 = epi_run(cfg, 1)
        assert day1.infected_persons.tolist() == [0, 1]
        day2 = epi_run(cfg, 2)
        assert day2.infected_persons.tolist() == [0, 1, 2]


class TestThetaExtremes:
    def test_theta_zero_never_spreads(self):
        cfg = EpiConfig(persons=25, locations=4, theta=0.0, seed=7)
        res = epi_run(cfg, 10)
        assert res.infected_persons.tolist() == [0]
        assert all(m["new_infections"] == 0 for m in res.metrics)

    def test_theta_one_reaches_closure(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            schedule = random_schedule(20, 5, rng, visits_per_person=3)
            cfg = EpiConfig(
                persons=20, locations=5, theta=1.0,
                seed=trial, schedule=schedule, initial_infected=(0,),
            )
            res = run_to_fixpoint(cfg)
            assert set(res.infected_persons.tolist()) == copresence_closure(cfg)


class TestDynamics:
    def test_infected_set_is_monotone(self):
        cfg = EpiConfig(persons=30, locations=5, theta=0.5, seed=13)
        res = epi_run(cfg, 20)
        infected = [m["infected"] for m in res.metrics]
        assert infected == sorted(infected)
        assert all(
            m["susceptible"] + m["infected"] == 30 for m in res.metrics
        )

    def test_new_infections_sum_to_growth(self):
        cfg = EpiConfig(persons=30, locations=3, theta=0.8, seed=2)
        res = epi_run(cfg, 15)
        growth = res.metrics[-1]["infected"] - 1
        assert sum(m["new_infections"] for m in res.metrics) == growth

    def test_deterministic_and_worker_independent(self):
        cfg = EpiConfig(persons=24, locations=4, theta=0.35, seed=5)
        a = epi_run(cfg, 12)
        b = epi_run(cfg, 12)
        c = epi_run(cfg, 12, workers=4)
        assert a.checksum == b.checksum == c.checksum
        assert a.infected_persons.tolist() == c.infected_persons.tolist()

    def test_hinted_and_plain_infection_edges_agree(self):
        schedule = random_schedule(16, 4, np.random.default_rng(3), 3)
        base = dict(persons=16, locations=4, theta=1.0, seed=1, schedule=schedule)
        hinted = epi_run(EpiConfig(**base, hints=True), 16)
        plain = epi_run(EpiConfig(**base, hints=False), 16)
        assert hinted.infected_persons.tolist() == plain.infected_persons.tolist()

    def test_intermediate_theta_between_extremes(self):
        schedule = random_schedule(20, 3, np.random.default_rng(8), 4)
        base = dict(persons=20, locations=3, seed=4, schedule=schedule)
        none = run_to_fixpoint(EpiConfig(**base, theta=0.0))
        some = run_to_fixpoint(EpiConfig(**base, theta=0.6))
        full = run_to_fixpoint(EpiConfig(**base, theta=1.0))
        assert len(none.infected_persons) <= len(some.infected_persons)
        assert len(some.infected_persons) <= len(full.infected_persons)


class TestScheduleFile:
    def test_round_trip_with_header(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text(
            "person_id,location_id,start_minute,end_minute\n"
            "0,0,0,60\n"
            "1,0,30,90\n"
            "2,1,10,20\n"
        )
        schedule = load_schedule_csv(path)
        assert schedule == ((0, 0, 0, 60), (1, 0, 30, 90), (2, 1, 10, 20))

    def test_headerless_accepted(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("0,0,0,60\n1,0,30,90\n")
        assert load_schedule_csv(path) == ((0, 0, 0, 60), (1, 0, 30, 90))

    def test_bad_column_count_rejected(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("0,0,0\n")
        from graphabm import UsageError

        with pytest.raises(UsageError):
            load_schedule_csv(path)

    def test_schedule_drives_model(self, tmp_path):
        path = tmp_path / "visits.csv"
        path.write_text("person_id,location_id,start_minute,end_minute\n0,0,0,60\n1,0,30,90\n")
        cfg = EpiConfig(
            persons=2, locations=1, theta=1.0, seed=0,
            schedule=load_schedule_csv(path), initial_infected=(0,),
        )
        res = epi_run(cfg, 1)
        assert res.infected_persons.tolist() == [0, 1]


class TestStatusStorage:
    def test_initially_infected_marked(self):
        cfg = EpiConfig(
            persons=5, locations=1, theta=0.0, seed=0,
            schedule=(), initial_infected=(1, 3),
        )
        model = build_epi(cfg)
        status = model.sim.field_array("Person", "status")
        assert status.tolist() == [0, 1, 0, 1, 0]
        assert Status.INFECTED == 1


class TestDayComposite:
    def test_epi_day_advances_one_day(self):
        from graphabm import run
        from graphabm.models.episim import build_epi, day_program

        schedule = ((0, 0, 0, 100), (1, 0, 50, 150))
        model = build_epi(EpiConfig(
            persons=2, locations=1, theta=1.0, seed=0,
            schedule=schedule, initial_infected=(0,),
        ))
        run(model.sim, 1, day_program(model))
        status = model.sim.field_array("Person", "status")
        assert status.tolist() == [1, 1]
        assert model.sim.step == 3  # three transitions per day


class TestScheduleCsr:
    def test_csr_holds_each_persons_visits_in_schedule_order(self):
        schedule = ((2, 1, 5, 9), (0, 0, 0, 10), (2, 0, 1, 3), (0, 1, 20, 30))
        model = build_epi(EpiConfig(persons=4, locations=2, theta=0.0,
                                    schedule=schedule))
        loc0 = model.location_base
        assert model.visit_ptr.tolist() == [0, 2, 2, 4, 4]
        assert (model.visit_location - loc0).tolist() == [0, 1, 1, 0]
        assert model.visit_start.tolist() == [0, 20, 5, 1]
        assert model.visit_end.tolist() == [10, 30, 9, 3]

    @pytest.mark.parametrize("rows, message", [
        (((0, 0, 0, 1), (5, 0, 0, 1), (0, 9, 0, 1)), "schedule person 5 out of range"),
        (((0, 0, 0, 1), (0, 9, 3, 1), (5, 0, 0, 1)), "schedule location 9 out of range"),
        (((0, 0, 0, 1), (-1, 0, 0, 1)), "schedule person -1 out of range"),
        (((1, 1, 3, 1), (5, 0, 0, 1)),
         r"schedule visit ends before it starts: \(1, 1, 3, 1\)"),
        (((0, 0, 0, 1), (0, 0, 0)), "schedule rows are"),
    ], ids=["person", "location-first", "negative", "ends-early", "short-row"])
    def test_first_bad_row_is_named(self, rows, message):
        from graphabm import UsageError

        with pytest.raises(UsageError, match=message):
            build_epi(EpiConfig(persons=3, locations=2, theta=0.0, schedule=rows))


# (location, source, start, end) rows on small ranges, so chunks hold repeat
# visits, repeats with starts out of order and rows equal on all four keys.
visit_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 5), st.integers(0, 5)),
    max_size=40,
)


def visit_columns(rows):
    loc, sources, start, end = np.array(rows, dtype=np.int64).reshape(-1, 4).T.copy()
    return loc, sources.astype(np.uint64), start, end


def order_and_lexsort_sizes(columns):
    """``_visit_order(*columns)`` and the length of each ``np.lexsort`` it ran."""
    sizes = []
    lexsort = np.lexsort

    def spy(keys):
        sizes.append(len(keys[0]))
        return lexsort(keys)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "lexsort", spy)
        order = _visit_order(*columns)
    return order, sizes


def store_order(rows):
    """Rows as ``batch.edges`` lists them: by location, then source, and a
    source's repeat visits in add order."""
    return sorted(rows, key=lambda r: r[:2])


class TestVisitOrder:
    """``_visit_order`` against the full four-key lexsort that ``spread``
    ran before; ties on every key keep position order."""

    @given(visit_rows)
    def test_store_order_matches_lexsort(self, rows):
        columns = visit_columns(store_order(rows))
        loc, sources, start, end = columns
        order, sizes = order_and_lexsort_sizes(columns)
        assert order.tolist() == np.lexsort((end, start, sources, loc)).tolist()
        # only the repeat visits are sorted, in one small lexsort
        pairs = list(zip(loc.tolist(), sources.tolist()))
        repeats = sum(pairs.count(p) > 1 for p in pairs)
        assert sizes == ([repeats] if repeats else [])

    @given(visit_rows)
    def test_any_order_matches_lexsort(self, rows):
        columns = visit_columns(rows)
        loc, sources, start, end = columns
        order, sizes = order_and_lexsort_sizes(columns)
        assert order.tolist() == np.lexsort((end, start, sources, loc)).tolist()
        if sorted(zip(loc.tolist(), sources.tolist())) != list(zip(loc.tolist(), sources.tolist())):
            assert sizes == [len(rows)]  # the fallback sorts the whole chunk

    @pytest.mark.parametrize("rows", [[], [(2, 7, 5, 9)]], ids=["empty", "one"])
    def test_tiny_chunks(self, rows):
        order, sizes = order_and_lexsort_sizes(visit_columns(rows))
        assert order.tolist() == list(range(len(rows))) and sizes == []

    def test_repeat_visits_out_of_order_and_full_ties(self):
        rows = [(0, 3, 50, 60), (0, 3, 10, 20), (0, 3, 10, 20), (0, 3, 10, 15),
                (0, 4, 0, 1), (1, 3, 9, 9), (1, 3, 9, 9)]
        order, sizes = order_and_lexsort_sizes(visit_columns(rows))
        assert order.tolist() == [3, 1, 2, 0, 4, 5, 6]
        assert sizes == [6]

    def test_sources_not_ascending_in_a_location_take_the_fallback(self):
        rows = [(0, 5, 0, 1), (0, 2, 0, 1), (0, 2, 3, 4), (1, 0, 0, 1)]
        order, sizes = order_and_lexsort_sizes(visit_columns(rows))
        assert order.tolist() == [1, 2, 0, 3]
        assert sizes == [4]

    def test_no_repeat_visits_is_the_identity(self):
        rows = [(0, 1, 9, 9), (0, 2, 0, 1), (1, 0, 5, 6), (1, 2, 3, 4), (3, 0, 0, 0)]
        order, sizes = order_and_lexsort_sizes(visit_columns(rows))
        assert order.tolist() == list(range(5)) and sizes == []
