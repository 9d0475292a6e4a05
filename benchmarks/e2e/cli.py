"""One command for the end-to-end benchmark.

    PYTHONPATH=src python -m benchmarks.e2e                 # four workloads, untraced then traced
    python3 benchmarks/e2e/run.py --workload serve-diurnal --seed 3 --seconds 18 --trace 0
    python -m benchmarks.e2e --smoke --trace                # < 30 s self-check
    python -m benchmarks.e2e --compare A.json B.json

Each run sets up, measures the work ``--seconds`` stands for
(``metrics.work``) or until ``--seconds`` have passed, checks the
program's outputs and prints every metric by name and unit (timings in
reference seconds, see ``hostclock.py``, with the wall readings beside
them); its last stdout line is the contract's JSON object.
Exit status is non-zero when a correctness check fails.  A full run
(four workloads, both modes, full size) ends by writing ``BENCHMARK.json``
from ``metrics.py``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import inproc, layers, metrics, served, tracing

PACKAGE_DIR = Path(__file__).resolve().parent
ROOT = PACKAGE_DIR.parents[1]
WORK_DIR = PACKAGE_DIR / ".work"

#: full-size and ``--smoke`` parameters; nothing else differs
FULL = {"scale": 1.0, "rescue_fill_apps": 720}
SMOKE = {"scale": 0.05, "rescue_fill_apps": 90}


def run_workload(name: str, seed: int, seconds: float, params: dict,
                 trace: bool) -> dict:
    """One set-up + measurement of ``name``; returns the result record."""
    work = metrics.work(name, seconds)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    if name == "serve-diurnal":
        run = served.run_serve_diurnal(
            ROOT, workdir, seed, params["scale"], work, seconds, tracer
        )
    elif name == "serve-storm-burst":
        run = served.run_serve_storm_burst(
            ROOT, workdir, seed, params["scale"], work, seconds, tracer
        )
    elif name == "sim-mixed-lla":
        run = inproc.run_sim_mixed_lla(
            seed, params["scale"], work, seconds, tracer
        )
    elif name == "tight-rescue":
        run = inproc.run_tight_rescue(
            seed, params["rescue_fill_apps"], work, seconds, tracer
        )
    else:
        raise ValueError(f"unknown workload {name!r}")
    shutil.rmtree(workdir)  # kept when the run raised: it holds server.log

    # Wall intervals, and the same in reference seconds (hostclock.py)
    clock = run["clock"]
    busy = np.asarray(run["busy"]).reshape(-1, 2)
    measured_s = float((busy[:, 1] - busy[:, 0]).sum())
    measured_ref_s = float(clock.ref_seconds(busy).sum())
    setup_s = run["setup"][1] - run["setup"][0]
    decisions = np.asarray(run["decisions"]).reshape(-1, 2)
    decisions_ref_s = clock.ref_seconds(decisions)
    wall_ms = (decisions[:, 1] - decisions[:, 0]) * 1e3
    submitted = max(1, run["submitted"])
    run["measured_s"] = measured_s
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "params": {
            **params, **run["info"],
            "work": f"{run['work_done']} "
                    f"{metrics.WORKLOADS[name]['work_per_s'][1]}",
        },
        "measured_s": measured_s,
        "measured_ref_s": measured_ref_s,
        "host": {
            "slices": clock.slices,
            "setup_factor": clock.mean_factor(*run["setup"]),
            "measured_factor": measured_s / measured_ref_s if len(busy) else None,
        },
        "truncated": run["truncated"],
        "samples": len(decisions),
        "attempted": run["units"],
        "failed": run["units_failed"],
        "containers": {
            "submitted": run["submitted"], "placed": run["placed"],
            "undeployed": run["submitted"] - run["placed"],
        },
        "client": run.get("client"),
        "decision_digest": run["digest"],
        "checks": run["checks"],
        "correct": all(run["checks"].values()) and len(decisions) > 0,
        # the three timings in reference seconds, the rest as counted
        "end_to_end": {
            "setup_s": setup_s / clock.mean_factor(*run["setup"]),
            "containers_per_s": run["submitted"] / measured_ref_s,
            "decision_p50_ms": metrics.percentile(decisions_ref_s, 0.50) * 1e3,
            "placed_share": run["placed"] / submitted,
            "peak_used_machines": run["peak_used_machines"],
            "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
        } if len(decisions) else {},
        # wall-clock readings of the same run, and the tail
        "diagnostics": {
            "setup_wall_s": setup_s,
            "containers_per_wall_s": run["submitted"] / measured_s,
            "decision_p50_wall_ms": metrics.percentile(wall_ms, 0.50),
            "decision_p90_wall_ms": metrics.percentile(wall_ms, 0.90),
            "decision_p95_wall_ms": metrics.percentile(wall_ms, 0.95),
            "decision_p99_wall_ms": metrics.percentile(wall_ms, 0.99),
            "decision_max_wall_ms": float(wall_ms.max()),
            **run.get("diagnostics", {}),
        } if len(decisions) else {},
    }
    if trace:
        record["per_layer"], record["budget"] = layers.per_layer(run, tracer)
        # per-layer times are wall seconds; this is what to divide them by
        record["per_layer"]["host.slowdown"] = record["host"]["measured_factor"]
    return record


# ----------------------------------------------------------------------
# printing
# ----------------------------------------------------------------------
def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}" if abs(value) < 1e4 else f"{value:.0f}"


def print_record(record: dict) -> None:
    name = record["workload"]
    p = record["params"]
    print(
        f"== {name}  seed {record['seed']}  "
        f"{'traced' if record['traced'] else 'untraced'}  "
        f"{p['n_machines']} machines, {p['n_apps']} apps, "
        f"{p['n_containers']} containers in the input"
    )
    c = record["containers"]
    print(
        f"   measured {p['work']} in {record['measured_s']:.2f} s of wall "
        f"(host at {record['host']['measured_factor']:.2f}x the reference "
        f"slice, {record['host']['slices']} slices): "
        f"{record['samples']} decisions "
        f"({metrics.WORKLOADS[name]['unit']}); containers submitted "
        f"{c['submitted']}, placed {c['placed']}, undeployed {c['undeployed']}"
    )
    if record["truncated"]:
        print(f"   TRUNCATED at the {record['seconds']:g} s deadline: counts, "
              "quality metrics and digest do not compare with a full run")
    if record["client"]:
        print("   client: " + ", ".join(
            f"{k} {v}" for k, v in record["client"].items()
        ))
    if not record["traced"]:
        for metric, unit, better, bound in metrics.END_TO_END:
            value = record["end_to_end"].get(metric)
            print(f"   {metric:<26}{_fmt(value):>12} {unit:<9}"
                  f"({better} is better, bound {bound:.0%})")
        for metric, value in record["diagnostics"].items():
            print(f"   {metric:<26}{_fmt(value):>12}          (diagnostic)")
    else:
        for metric, unit, _better in metrics.PER_LAYER:
            print(f"   {metric:<34}{_fmt(record['per_layer'][metric]):>12} {unit}")
        budget = record["budget"]
        print(f"   budget ({budget['unit']}; total {_fmt(budget['total'])}):")
        for row, value, share in budget["rows"]:
            print(f"     {row:<38}{_fmt(value):>10} {share:7.1%}")
        for name, share in budget.get("share_of_latency", {}).items():
            print(f"   {name} is {share:.1%} of the decision latency")
    print(f"   decision_digest: {record['decision_digest']}")
    for check, ok in record["checks"].items():
        print(f"   [{'ok' if ok else 'FAILED'}] {check}")


def contract_line(record: dict) -> str:
    """The last stdout line the driver reads.  Absent per-layer values
    are written as 0 there (the contract wants numbers); the record and
    the table above keep them ``null``."""
    if record["traced"]:
        values = {
            name: record["per_layer"][name] or 0
            for name, _unit, _better in metrics.PER_LAYER
        }
    else:
        values = record["end_to_end"]
    return json.dumps({
        "correct": record["correct"],
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    })


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    """B against A: relative change of every end-to-end metric per
    workload against its bound; input sizes and (same seed) digests must
    match.  A workload that one report lacks, that has no untraced
    record or whose run was incorrect counts as outside the bounds."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    same_seed = a["seed"] == b["seed"]
    bad = 0
    for name in sorted(set(a["workloads"]) | set(b["workloads"])):
        print(f"== {name}")
        records = []
        for path, report in ((path_a, a), (path_b, b)):
            record = report["workloads"].get(name, {}).get("untraced")
            if not record or not record["end_to_end"]:
                print(f"   no untraced measurement in {path}")
            elif not record["correct"]:
                print(f"   the run in {path} failed its correctness gate")
            else:
                records.append(record)
        if len(records) < 2:
            bad += 1
            continue
        ua, ub = records
        for metric, unit, better, bound in metrics.END_TO_END:
            va, vb = ua["end_to_end"][metric], ub["end_to_end"][metric]
            # a metric that reads 0 has no share to lose: any change counts
            change = (vb - va) / va if va else float(vb != va)
            worse = -change if better == "higher" else change
            flag = "ok" if worse <= bound else "WORSE"
            bad += flag != "ok"
            print(f"   {metric:<26}{_fmt(va):>12} -> {_fmt(vb):>12} {unit:<9}"
                  f"{change:+7.1%}  (bound {bound:.0%})  {flag}")
        exact = [
            (key, ua["params"][key], ub["params"][key])
            for key in ("n_machines", "n_apps", "n_containers", "work")
        ]
        if not metrics.WORKLOADS[name]["deterministic"]:
            print("   decision_digest: window composition depends on timing,"
                  " not compared")
        elif not same_seed:
            print("   decision_digest: seeds differ, not compared")
        else:
            exact.append(
                ("decision_digest", ua["decision_digest"][:12],
                 ub["decision_digest"][:12])
            )
        for key, va, vb in exact:
            bad += va != vb
            print(f"   {key:<26}{va!s:>12} -> {vb!s:>12}  must match exactly"
                  f"  {'ok' if va == vb else 'DIFFERS'}")
    print("compare: " + ("within bounds" if not bad else f"{bad} outside bounds"))
    return 1 if bad else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", action="append",
                        choices=list(metrics.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=0,
                        help="order applications arrive in within a tick")
    parser.add_argument("--seconds", type=float, default=None,
                        help="sizes the work a run measures (metrics.work) "
                        "and is its deadline (default "
                        f"{metrics.RUN_SECONDS}, 2 with --smoke)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1),
                        const=1, default=None,
                        help="0: untraced only; 1 (or bare): traced only; "
                        "omitted: untraced, then traced")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.05, 2 s per run: exercises every path")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)

    params = SMOKE if args.smoke else FULL
    seconds = args.seconds or (2.0 if args.smoke else float(metrics.RUN_SECONDS))
    names = args.workload or list(metrics.WORKLOADS)
    modes = [False, True] if args.trace is None else [bool(args.trace)]
    report = {
        "header": metrics.header(ROOT), "seed": args.seed,
        "seconds": seconds, "smoke": args.smoke, "workloads": {},
    }
    single = len(names) == 1 and len(modes) == 1
    all_correct = True
    for name in names:
        entry = report["workloads"].setdefault(name, {})
        for trace in modes:
            if single:
                record = run_workload(name, args.seed, seconds, params, trace)
                print_record(record)
                print(contract_line(record), flush=True)
            else:
                record = _run_in_child(name, args, seconds, trace)
            entry["traced" if trace else "untraced"] = record
            all_correct &= record["correct"]
        if len(modes) == 2:
            ratio = (entry["traced"]["measured_ref_s"]
                     / entry["untraced"]["measured_ref_s"])
            entry["trace_overhead_ratio"] = ratio
            print(f"   trace_overhead_ratio {ratio:.3f} (traced over "
                  "untraced reference seconds, same work)")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    if args.workload is None and args.trace is None and not args.smoke:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(metrics.manifest(), indent=2) + "\n"
        )
    return 0 if all_correct else 1


def _run_in_child(name: str, args, seconds: float, trace: bool) -> dict:
    """One run in a process of its own, as the driver starts it: peak
    RSS and the installed wrappers never leak from one run to the next."""
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile(
        dir=WORK_DIR, suffix=".json", delete=False
    ) as fh:
        out = Path(fh.name)
    command = [
        sys.executable, str(PACKAGE_DIR / "run.py"), "--workload", name,
        "--seed", str(args.seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)), "--out", str(out),
    ] + (["--smoke"] if args.smoke else [])
    code = subprocess.run(command, cwd=ROOT).returncode
    try:
        with open(out) as fh:
            return json.load(fh)["workloads"][name][
                "traced" if trace else "untraced"
            ]
    except (OSError, ValueError):
        raise SystemExit(f"{name}: run exited with {code} and left no report")
    finally:
        out.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
