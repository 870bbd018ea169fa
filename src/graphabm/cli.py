"""Command-line harness for the bundled models.

Three subcommands:

- ``run``: execute a model and emit one CSV row of metrics per step; the
  final graph's storage, per edge type, goes to standard error.
- ``scale``: run the same configuration at several worker counts and emit
  wall time, speedup, and a state checksum per worker count. Timing covers
  transition steps only (initialization excluded); the checksum column
  must be identical across rows.
- ``microbench``: measure the per-call cost of edge insertion under each
  storage plan.

Flags may also come from a config file of ``key=value`` lines (``#``
comments); explicit flags win. All randomness flows from ``--seed``.
Exit codes: 0 success, 1 contract violation, 2 configuration error.
"""

from __future__ import annotations

import argparse
import array
import csv
import sys
import time
from dataclasses import dataclass, fields
from statistics import median

from .checks import MODES
from .errors import ContractViolation, EngineError
from .models import episim, hk
from .models.topology import Cliques, Complete, Regular
from .schema import AgentTypeDecl, EdgeTypeDecl, Hint, Schema
from .sim import Simulation


class ConfigError(Exception):
    pass


@dataclass
class RunConfig:
    model: str = "hk"
    steps: int = 50
    workers: int = 1
    seed: int = 0
    checks: str = "on"
    hints: bool = True
    topology: str = "complete"
    epsilon: float = 0.2
    n: int = 1000
    k: int = 10
    cliques: int = 8
    clique_size: int = 8
    theta: float = 0.3
    locations: int = 0  # 0: derived from n
    schedule: str = ""
    out: str = ""
    strategy: str = "contiguous"


_BOOLS = {"true": True, "1": True, "on": True, "yes": True,
          "false": False, "0": False, "off": False, "no": False}


def _coerce(name: str, kind, raw: str):
    try:
        if kind is bool:
            return _BOOLS[raw.strip().lower()]
        return kind(raw)
    except (ValueError, KeyError):
        raise ConfigError(f"bad value for {name}: {raw!r}") from None


def load_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and '#' comments ignored."""
    kinds = {f.name: f.type for f in fields(RunConfig)}
    types = {"int": int, "float": float, "str": str, "bool": bool}
    values = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip().replace("-", "_")
                if key not in kinds:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _coerce(key, types[kinds[key]], raw.strip())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            setattr(cfg, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.model not in ("hk", "episim"):
        raise ConfigError(f"unknown model {cfg.model!r}; expected hk or episim")
    if cfg.steps < 1:
        raise ConfigError("steps must be >= 1")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if cfg.checks not in MODES:
        raise ConfigError(f"unknown checks mode {cfg.checks!r}; expected one of {MODES}")
    return cfg


def _hk_topology(cfg: RunConfig):
    if cfg.topology == "complete":
        return Complete(), cfg.n
    if cfg.topology == "regular":
        return Regular(cfg.k), cfg.n
    if cfg.topology == "clique":
        topo = Cliques(cfg.cliques, cfg.clique_size)
        return topo, topo.size()
    raise ConfigError(f"unknown topology {cfg.topology!r}")


def _open_out(path: str):
    if path:
        return open(path, "w", newline="")
    return sys.stdout


def _run_model(cfg: RunConfig, workers: int, collect_metrics: bool = True):
    """Build the configured model and run it at ``workers`` workers."""
    if cfg.model == "hk":
        topo, n = _hk_topology(cfg)
        return hk.hk_run(
            hk.HKConfig(n=n, epsilon=cfg.epsilon, topology=topo,
                        seed=cfg.seed, hints=cfg.hints),
            cfg.steps, workers=workers, strategy=cfg.strategy,
            checks=cfg.checks, collect_metrics=collect_metrics,
        )
    schedule = episim.load_schedule_csv(cfg.schedule) if cfg.schedule else None
    locations = cfg.locations or max(1, cfg.n // 4)
    if schedule is not None:
        persons = max(r[0] for r in schedule) + 1 if schedule else cfg.n
        locations = max((r[1] for r in schedule), default=0) + 1
    else:
        persons = cfg.n
    return episim.epi_run(
        episim.EpiConfig(persons=persons, locations=locations, theta=cfg.theta,
                         seed=cfg.seed, schedule=schedule, hints=cfg.hints),
        cfg.steps, workers=workers, strategy=cfg.strategy, checks=cfg.checks,
    )


def _model_rows(cfg: RunConfig):
    """Run the configured model; returns (header, rows, its final storage)."""
    result = _run_model(cfg, cfg.workers)
    if cfg.model == "hk":
        header = ["step", "wall_ms", "min", "max", "mean", "clusters"]
        rows = [
            [i, f"{m['wall_ms']:.3f}", repr(float(s["min"])), repr(float(s["max"])),
             repr(float(s["mean"])), s["clusters"]]
            for i, (m, s) in enumerate(zip_metrics(result))
        ]
        return header, rows, result.storage

    header = ["step", "wall_ms", "susceptible", "infected", "new_infections",
              "merges_reused"]
    rows = [
        [i, f"{m['wall_ms']:.3f}", s["susceptible"], s["infected"], s["new_infections"],
         reused]
        for i, ((m, s), reused) in enumerate(zip(zip_metrics(result), result.merges_reused))
    ]
    return header, rows, result.storage


def zip_metrics(result):
    return list(zip(({"wall_ms": w} for w in result.step_walls), result.metrics))


def storage_table(storage: dict) -> str:
    """``Simulation.describe()``'s edge types as a table: storage plan,
    edges stored, bytes held and bytes per stored edge."""
    lines = [f"{'edge type':<16}{'plan':<18}{'stored':>12}{'bytes':>14}{'bytes/edge':>12}"]
    for name, row in storage["edges"].items():
        per_edge = f"{row['bytes'] / row['stored']:.2f}" if row["stored"] else "-"
        lines.append(f"{name:<16}{row['plan']:<18}{row['stored']:>12}{row['bytes']:>14}"
                     f"{per_edge:>12}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    cfg = build_run_config(args)
    header, rows, storage = _model_rows(cfg)
    print(storage_table(storage), file=sys.stderr)
    out = _open_out(cfg.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_scale(args) -> int:
    cfg = build_run_config(args)
    try:
        worker_list = [int(w) for w in str(args.workers_list).split(",") if w.strip()]
    except ValueError:
        raise ConfigError(f"bad worker list {args.workers_list!r}") from None
    if not worker_list or any(w < 1 for w in worker_list):
        raise ConfigError("worker list must hold positive integers")
    rows = []
    base_wall = None
    for w in worker_list:
        result = _run_model(cfg, w, collect_metrics=False)
        wall = result.transition_wall_s
        if base_wall is None:
            base_wall = wall
        rows.append([w, f"{wall * 1e3:.3f}", f"{base_wall / wall:.4f}", result.checksum])
    out = _open_out(cfg.out)
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["workers", "wall_ms", "speedup", "checksum"])
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# -- edge-insertion microbenchmark -------------------------------------------

_BENCH_DECLS = [
    ("full_edge_list", EdgeTypeDecl("EFull", (("w", "float64"),))),
    ("source_only_list", EdgeTypeDecl("ESrc", hints=Hint.STATELESS)),
    ("state_only_list", EdgeTypeDecl("ESt", (("w", "float64"),), hints=Hint.IGNORE_FROM)),
    ("count_only", EdgeTypeDecl("ECnt", hints=Hint.STATELESS | Hint.IGNORE_FROM)),
    (
        "existence_bit",
        EdgeTypeDecl(
            "EBit",
            hints=Hint.STATELESS | Hint.IGNORE_FROM | Hint.SINGLE_EDGE | Hint.SINGLE_TYPE,
            single_type_target="Node",
        ),
    ),
    ("single_full_edge", EdgeTypeDecl("EOne", (("w", "float64"),), hints=Hint.SINGLE_EDGE)),
]


# Thread CPU seconds the calibration kernel takes on the reference machine
# (2-vCPU Xeon, Python 3.11.7); it only sets the scale of the
# microbenchmark's figures, to about that machine's nanoseconds.
_KERNEL_REFERENCE_S = 0.017
_KERNEL_CALLS = 200_000


def _calibration_kernel() -> float:
    """Run fixed interpreter work of the kind a per-edge add does, a call
    that appends to a growing ``array.array``, without graphabm; return
    its thread CPU time in seconds. Host load that slows the adds, such
    as contention for shared caches or a lower clock, slows it alike."""
    column = array.array("Q")
    append = column.append

    def add(value, _source=0, _state=None, _producer=0):
        append(value)

    t0 = time.thread_time()
    for i in range(_KERNEL_CALLS):
        add(i)
    return time.thread_time() - t0


def measure_edge_adds(calls: int, plans=None) -> dict[str, float]:
    """Median ns per edge insertion for each storage plan.

    Times the per-step write path: the ``add`` of the shard a transition
    worker fills (:func:`graphabm.engine.step_shard`), with checks off.
    Ordered list plans record each edge's producer, which their merge
    orders by; counts and existence bits keep targets alone, which is part
    of their advantage. The ``calls`` adds of each plan run as repetitions
    into fresh shards, interleaved across the plans, so that no plan is
    timed only after the others; a plan's figure is the median over its
    repetitions. Each repetition grows its shard from empty, as a worker's
    shard grows in a step, and adds to one fixed target. Repetitions are
    timed in the calling thread's CPU time (``time.thread_time``), so time
    the thread spends preempted does not count.

    CPU time still moves with the load of a shared host, so a calibration
    kernel (:func:`_calibration_kernel`) runs before the first repetition
    and after each one, and each repetition is scaled by the mean of the
    kernel times on its two sides: the figures are nanoseconds at the
    speed at which the kernel takes ``_KERNEL_REFERENCE_S``.
    """
    from .engine import step_shard

    cases = {}
    for plan_name, decl in _BENCH_DECLS:
        if plans is not None and plan_name not in plans:
            continue
        schema = Schema()
        schema.register_agent_type(AgentTypeDecl("Node", (), immortal=True))
        schema.register_edge_type(decl)
        sim = Simulation(schema, checks="off")
        ids = sim.add_agents("Node", 2, {})
        state = (1.0,) if decl.state_layout else None
        cases[plan_name] = (schema.edge_type(decl.name), int(ids[0]), int(ids[1]), state)
    repeats = 9
    n = max(1, calls // repeats)
    loop = range(n)
    times = {plan_name: [] for plan_name in cases}
    kernel_before = _calibration_kernel()
    for _ in range(repeats):
        for plan_name, (info, target, source, state) in cases.items():
            add = step_shard(info, checked=False).add
            add(target, source, state, 0)  # warm allocation
            t0 = time.thread_time()
            for _ in loop:
                add(target, source, state, 0)
            raw = time.thread_time() - t0
            del add
            kernel_after = _calibration_kernel()
            scale = 2 * _KERNEL_REFERENCE_S / (kernel_before + kernel_after)
            times[plan_name].append(raw * scale / n * 1e9)
            kernel_before = kernel_after
    return {plan_name: median(ns) for plan_name, ns in times.items()}


def cmd_microbench(args) -> int:
    calls = int(args.calls)
    if calls < 1:
        raise ConfigError("calls must be >= 1")
    results = measure_edge_adds(calls)
    out = _open_out(args.out or "")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["edge_plan", "ns_per_add"])
        for plan_name, ns in results.items():
            writer.writerow([plan_name, f"{ns:.2f}"])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# -- argument parsing -----------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser):
    p.add_argument("--model", choices=("hk", "episim"), default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--checks", choices=MODES, default=None)
    p.add_argument("--hints", choices=("on", "off"), default=None,
                   help="declare model edge types with storage hints")
    p.add_argument("--topology", choices=("complete", "regular", "clique"), default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--cliques", type=int, default=None)
    p.add_argument("--clique-size", dest="clique_size", type=int, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--locations", type=int, default=None)
    p.add_argument("--schedule", default=None, help="visit schedule CSV")
    p.add_argument("--strategy", choices=("contiguous", "round_robin", "greedy_edge_cut"),
                   default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p.add_argument("--config", default=None, help="key=value config file")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphabm",
        description="Run and benchmark the bundled graph agent models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a model, one metrics row per step")
    _add_model_flags(p_run)
    p_run.add_argument("--workers", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_scale = sub.add_parser("scale", help="sweep worker counts")
    _add_model_flags(p_scale)
    p_scale.add_argument("--workers", dest="workers_list", default="1,2,4",
                         help="comma-separated worker counts")
    p_scale.set_defaults(func=cmd_scale, workers=None)

    p_bench = sub.add_parser("microbench", help="edge insertion cost per storage plan")
    p_bench.add_argument("--calls", type=int, default=10_000_000)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_microbench)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "hints", None) is not None:
        args.hints = args.hints == "on"
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
