from __future__ import annotations

import csv

import pytest

from graphabm.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestRunCommand:
    def test_hk_rows_and_header(self, tmp_path):
        out = tmp_path / "hk.csv"
        code = main([
            "run", "--model", "hk", "--n", "200", "--epsilon", "0.2",
            "--steps", "7", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["step", "wall_ms", "min", "max", "mean", "clusters"]
        assert len(rows) == 8  # header + one row per step
        assert [r[0] for r in rows[1:]] == [str(i) for i in range(7)]

    def test_episim_rows(self, tmp_path):
        out = tmp_path / "epi.csv"
        code = main([
            "run", "--model", "episim", "--n", "30", "--theta", "0.6",
            "--steps", "5", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["step", "wall_ms", "susceptible", "infected", "new_infections",
                           "merges_reused"]
        assert len(rows) == 6
        counts = [int(r[5]) for r in rows[1:]]
        assert counts[0] == 0 and min(counts[1:]) >= 1  # Visit is kept from day 2 on

    def test_metric_columns_deterministic(self, tmp_path):
        def metrics(path):
            rows = read_csv(path)
            return [[c for i, c in enumerate(r) if i != 1] for r in rows]

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["run", "--model", "hk", "--n", "120", "--steps", "6", "--seed", "9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert metrics(a) == metrics(b)

    def test_newline_terminated_with_dot_decimals(self, tmp_path):
        out = tmp_path / "hk.csv"
        main(["run", "--model", "hk", "--n", "20", "--steps", "2", "--out", str(out)])
        text = out.read_text()
        assert text.endswith("\n")
        assert "," in text and ";" not in text.splitlines()[1]

    def test_schedule_flag(self, tmp_path):
        sched = tmp_path / "visits.csv"
        sched.write_text("person_id,location_id,start_minute,end_minute\n0,0,0,60\n1,0,30,90\n")
        out = tmp_path / "epi.csv"
        code = main([
            "run", "--model", "episim", "--schedule", str(sched),
            "--theta", "1.0", "--steps", "2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[1][3] == "2"  # both persons infected on day one


class TestConfigFile:
    def test_file_values_used_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "model = hk\n"
            "n = 40\n"
            "steps = 3\n"
            "epsilon = 0.5\n"
        )
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(cfg), "--steps", "2", "--out", str(out)])
        assert code == 0
        assert len(read_csv(out)) == 3  # override: 2 steps, not 3

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = soon\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


class TestExitCodes:
    def test_zero_steps_config_error(self, tmp_path):
        assert main(["run", "--model", "hk", "--steps", "0"]) == 2

    def test_contract_violation_exits_1(self, tmp_path, monkeypatch):
        # Force a violation through a model run with a poisoned schema.
        import graphabm.cli as cli
        from graphabm import ContractViolation

        def boom(*a, **k):
            raise ContractViolation("synthetic breach")

        monkeypatch.setattr(cli.hk, "hk_run", boom)
        assert main(["run", "--model", "hk", "--steps", "1"]) == 1


class TestScaleCommand:
    def test_rows_checksums_and_speedup(self, tmp_path):
        out = tmp_path / "scale.csv"
        code = main([
            "scale", "--model", "hk", "--n", "60", "--steps", "3",
            "--seed", "4", "--workers", "1,2", "--out", str(out),
        ])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["workers", "wall_ms", "speedup", "checksum"]
        assert len(rows) == 3
        assert rows[1][3] == rows[2][3]  # identical checksums
        assert rows[1][2] == "1.0000"  # speedup of the first entry

    def test_schedule_flag(self, tmp_path):
        from graphabm.models import episim

        sched = tmp_path / "visits.csv"
        sched.write_text("person_id,location_id,start_minute,end_minute\n"
                         "0,0,0,60\n1,0,30,90\n2,1,0,30\n")
        out = tmp_path / "scale.csv"
        code = main([
            "scale", "--model", "episim", "--schedule", str(sched),
            "--theta", "1.0", "--steps", "3", "--workers", "1,2", "--out", str(out),
        ])
        assert code == 0
        expected = episim.epi_run(episim.EpiConfig(
            persons=3, locations=2, theta=1.0,
            schedule=episim.load_schedule_csv(str(sched)),
        ), 3).checksum
        assert [r[3] for r in read_csv(out)[1:]] == [expected, expected]

    def test_bad_worker_list_exits_2(self):
        assert main(["scale", "--model", "hk", "--workers", "1,x"]) == 2


class TestMicrobench:
    def test_csv_shape_and_plan_coverage(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["microbench", "--calls", "50000", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["edge_plan", "ns_per_add"]
        plans = {r[0] for r in rows[1:]}
        assert plans == {
            "full_edge_list", "source_only_list", "state_only_list",
            "count_only", "existence_bit", "single_full_edge",
        }
        for r in rows[1:]:
            assert float(r[1]) > 0


class TestMicrobenchRepeatability:
    def test_same_plan_measured_twice_within_30_percent(self):
        # Needs the full 1e7-call averaging window; shorter runs are too
        # exposed to scheduler noise on contended machines.
        from graphabm.cli import measure_edge_adds

        measure_edge_adds(1_000_000, plans=("existence_bit",))  # warm-up
        a = measure_edge_adds(10_000_000, plans=("existence_bit",))["existence_bit"]
        b = measure_edge_adds(10_000_000, plans=("existence_bit",))["existence_bit"]
        assert max(a, b) / min(a, b) <= 1.3
