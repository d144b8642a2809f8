"""Layer spans around one ``agrivolt`` CLI command.

Run as a program, this file imports the package, replaces each layer's
boundary functions with wrappers that record a span per call, runs the
CLI in the same process and writes the spans to a JSON file:

    python3 perfbench/tracing.py SPANS.json RUN_ID -- simulate --config ...

A span is (name, start, end, parent, run id); ``parent`` indexes the span
that was open when the call began. Spans stay in memory until the command
returns. Only calls in the traced process are recorded: worker processes
of ``--threads`` inherit the wrappers but pass straight through them, and
appear only as the CPU time of reaped children.

Functions called once per simulated hour (``solar``, ``sky``, ``layout``
and the module model inside ``electrical``) are not wrapped; their time
counts toward the layer that calls them.

``layer_metrics`` turns one written trace into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import statistics
import sys
import time

#: Boundary functions per module: the calls one layer makes into another.
BOUNDARY = {
    "config": ("load_config",),
    "weather": ("ingest_weather", "ingest_prices"),
    "scenario": ("run_scenario", "run_decision_map", "run_cases", "run_case"),
    "electrical": ("simulate_year",),
    "shading": ("ground_irradiance_map",),
    "outputs": (
        "write_indicators_csv",
        "write_hourly_csv",
        "write_monthly_csv",
        "write_ground_csv",
        "write_ground_pgm",
        "write_decision_csv",
        "write_comparisons_csv",
        "write_regions_csv",
        "write_summary_csv",
    ),
    "land": (
        "read_ascii_grid",
        "load_class_sets",
        "eligibility_mask",
        "region_potential",
        "aggregate_potential",
    ),
    "agronomy": ("par_flux", "decision_point", "sort_decision_points"),
    "indicators": ("report",),
}


def _count_rows(args, result):
    return {"rows": len(result)}


def _count_hours(args, result):
    return {"hours": len(result.times)}


def _count_cells(args, result):
    cells = int(result.blocked_direct.size)
    return {"cells": cells, "cell_hours": cells * int(result.daylight_hours)}


def _count_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _count_pixels(args, result):
    return {"pixels": int(args["raster"].codes.size)}


#: Counts taken at the boundary from a call's arguments and result.
COUNTERS = {
    "weather.ingest_weather": _count_rows,
    "electrical.simulate_year": _count_hours,
    "shading.ground_irradiance_map": _count_cells,
    "land.eligibility_mask": _count_pixels,
    **{f"outputs.{name}": _count_bytes for name in BOUNDARY["outputs"]},
}


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.sweeps: list[tuple[dict, list]] = []  # run_cases (arguments, results)

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": parent,
                "run": self.run_id,
            }
        )
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                return fn(*args, **kwargs)
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None or name == "scenario.run_cases":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if counter is not None:
                    self.spans[index].update(counter(bound.arguments, result))
                else:
                    self.sweeps.append((dict(bound.arguments), result))
            return result

        return traced

    def install(self) -> None:
        """Replace every reference to a boundary function in the package."""
        replaced = {}
        for module_name, names in BOUNDARY.items():
            module = sys.modules[f"agrivolt.{module_name}"]
            for name in names:
                fn = getattr(module, name)
                replaced[id(fn)] = self.wrap(f"{module_name}.{name}", fn)
        for module_name, module in list(sys.modules.items()):
            if module_name == "agrivolt" or module_name.startswith("agrivolt."):
                for attr, value in list(vars(module).items()):
                    if id(value) in replaced:
                        setattr(module, attr, replaced[id(value)])

    def ipc_bytes(self) -> int:
        """Bytes a process pool pickles for the sweeps, computed.

        Initializer arguments once per worker plus every returned case
        result; zero for a sweep that ran in-process.
        """
        from multiprocessing.reduction import ForkingPickler

        total = 0
        for args, results in self.sweeps:
            threads = args["threads"]
            if threads <= 1 or len(results) <= 1:
                continue
            workers = min(threads, len(results))
            initargs = (args["config"], args["weather"], args["months"])
            total += len(ForkingPickler.dumps(initargs)) * workers
            total += sum(len(ForkingPickler.dumps(r)) for r in results)
        return total


def run(spans_path: str, run_id: str, cli_argv: list[str]) -> int:
    tracer = Tracer(run_id)
    index = tracer.begin("cli.import")
    import agrivolt.cli

    for module_name in BOUNDARY:
        __import__(f"agrivolt.{module_name}")
    tracer.end(index)
    tracer.install()

    index = tracer.begin("cli.main")
    try:
        code = agrivolt.cli.main(cli_argv)
    finally:
        tracer.end(index)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    with open(spans_path, "w") as fh:
        json.dump(
            {
                "exit": code,
                "spans": tracer.spans,
                "ipc_bytes": tracer.ipc_bytes(),
                "workers_cpu_s": children.ru_utime + children.ru_stime,
            },
            fh,
        )
    return code


# ---------------------------------------------------------------------------
# reduction of one trace to per-layer metrics


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _union(intervals: list[tuple[float, float]]) -> float:
    covered = 0.0
    last_end = float("-inf")
    for start, end in sorted(intervals):
        if end > last_end:
            covered += end - max(start, last_end)
            last_end = end
    return covered


def _self_time(spans: list[dict], index: int) -> float:
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == index]
    return _duration(spans[index]) - _union(children)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0.0 else 0.0


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command whose process took ``wall_s``."""
    spans = trace["spans"]

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def total(name: str) -> float:
        return sum(_duration(s) for s in named(name))

    def count(name: str, key: str) -> int:
        return sum(s.get(key, 0) for s in named(name))

    def top_level(layer: str) -> float:
        """Busy time of a layer: its spans not nested in a span of its own."""
        prefix = layer + "."
        return sum(
            _duration(s)
            for s in spans
            if s["name"].startswith(prefix)
            and (s["parent"] is None or not spans[s["parent"]]["name"].startswith(prefix))
        )

    ingest_s = total("weather.ingest_weather")
    sim = [_duration(s) * 1000.0 for s in named("electrical.simulate_year")]
    sim_s = sum(sim) / 1000.0
    ground_s = total("shading.ground_irradiance_map")
    cell_hours = count("shading.ground_irradiance_map", "cell_hours")
    writers = [s for s in spans if s["name"].startswith("outputs.")]
    write_s = sum(_duration(s) for s in writers)
    out_bytes = sum(s["bytes"] for s in writers)
    main = [i for i, s in enumerate(spans) if s["name"] == "cli.main"]
    layers = [(s["start"], s["end"]) for s in spans if s["name"] != "cli.main"]
    quartiles = statistics.quantiles(sim, n=4) if len(sim) > 1 else sim * 3

    return {
        "cli.import_s": total("cli.import"),
        "cli.self_s": sum(_self_time(spans, i) for i in main),
        "config.load_s": total("config.load_config"),
        "weather.ingest_s": ingest_s,
        "weather.prices_s": total("weather.ingest_prices"),
        "weather.rows_per_s": _ratio(count("weather.ingest_weather", "rows"), ingest_s),
        "electrical.simulate_year_s": sim_s,
        "electrical.case_ms_p50": quartiles[1] if sim else 0.0,
        "electrical.case_ms_p75": quartiles[2] if sim else 0.0,
        "electrical.hours_per_s": _ratio(count("electrical.simulate_year", "hours"), sim_s),
        "shading.ground_map_s": ground_s,
        "shading.ground_map_calls": len(named("shading.ground_irradiance_map")),
        "shading.cell_hours": cell_hours,
        "shading.cell_hours_per_s": _ratio(cell_hours, ground_s),
        "indicators.report_s": top_level("indicators"),
        "agronomy.s": top_level("agronomy"),
        "outputs.write_s": write_s,
        "outputs.hourly_csv_s": total("outputs.write_hourly_csv"),
        "outputs.bytes": out_bytes,
        "outputs.files": len(writers),
        "outputs.mb_per_s": _ratio(out_bytes / 1e6, write_s),
        "scenario.sweep_s": total("scenario.run_cases"),
        "scenario.self_s": sum(
            _self_time(spans, i)
            for i, s in enumerate(spans)
            if s["name"] in ("scenario.run_scenario", "scenario.run_decision_map")
        ),
        "scenario.ipc_bytes": trace["ipc_bytes"],
        "scenario.workers_cpu_s": trace["workers_cpu_s"],
        "land.read_grid_s": total("land.read_ascii_grid"),
        "land.eligibility_s": total("land.eligibility_mask"),
        "land.region_s": total("land.region_potential"),
        "land.regions": len(named("land.region_potential")),
        "land.mpix": count("land.eligibility_mask", "pixels") / 1e6,
        "trace.coverage": _ratio(_union(layers), wall_s),
    }


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[3] != "--":
        sys.exit("usage: tracing.py SPANS.json RUN_ID -- <agrivolt arguments>")
    sys.exit(run(sys.argv[1], sys.argv[2], sys.argv[4:]))
