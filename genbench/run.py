"""Benchmark for genline: drives ``genline.cli.run_cli`` in-process, as the
``genline`` command does, on seeded synthetic inputs.

    python3 genbench/run.py --workload cold-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; genline is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Work files go to ``.genbench-out/``.
See README.md for the workloads, checks and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

SETUPS = 3
LARGE_CLASSES = 200
MIB = 1024 * 1024
OUT_ROOT = Path(".genbench-out")
WORK = OUT_ROOT / f"work-{os.getpid()}"
ALL = frozenset(inputs.ALL_FEATURES)


def import_genline():
    """Import genline afresh from ``src/`` of the current directory."""
    src = Path("src").resolve()
    for name in [n for n in sys.modules if n == "genline" or n.startswith("genline.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    cli = importlib.import_module("genline.cli")
    if Path(cli.__file__).resolve().parent != src / "genline":
        raise ImportError(f"genline was imported from {cli.__file__}, not from {src}")
    return cli


class IOCounter:
    """Bytes this process read and wrote (``rchar``/``wchar`` of /proc/self/io).

    Reading /proc/self/io is itself counted in ``rchar``; those bytes are
    left out.
    """

    def __init__(self) -> None:
        self._own_reads = 0

    def sample(self) -> tuple[int, int]:
        with open("/proc/self/io", "rb", buffering=0) as f:
            data = f.read()
        fields = dict(line.split(b": ") for line in data.splitlines())
        rchar = int(fields[b"rchar"]) - self._own_reads
        self._own_reads += len(data)
        return rchar, int(fields[b"wchar"])


@dataclass
class Sample:
    seconds: float
    read: int
    written: int
    failed: bool
    stdout: str


class Harness:
    """Runs genline commands with stdout and stderr going to files, as a shell would."""

    def __init__(self) -> None:
        self.cli = None
        self.io = IOCounter()
        self.tracer: tracing.Tracer | None = None

    def run(self, argvs: list[list[str]]) -> Sample:
        out_path, err_path = WORK / "stdout.txt", WORK / "stderr.txt"
        with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
            gc.collect()
            before = self.io.sample()
            start = time.perf_counter()
            codes = [self._run_one(argv, out, err) for argv in argvs]
            out.flush()
            err.flush()
            seconds = time.perf_counter() - start
            after = self.io.sample()
        read, written = after[0] - before[0], after[1] - before[1]
        failed = any(codes)
        if failed:
            sys.stderr.write(err_path.read_text(encoding="utf-8"))
        return Sample(seconds, read, written, failed, out_path.read_text(encoding="utf-8"))

    def _run_one(self, argv: list[str], out, err) -> int:
        try:
            if self.tracer is None:
                return self.cli.run_cli(argv, out, err)
            with self.tracer.span("cli.run_cli"):
                return self.cli.run_cli(argv, out, err)
        except Exception:
            # What the ``genline`` command would do: print the traceback, exit 1.
            traceback.print_exc(file=err)
            return 1


# ---------------------------------------------------------------------------
# Workloads. An op is a list of genline command lines; ``prepare_op`` runs
# untimed before it, and the warm op repeats it with no preparation. Each
# ``check_*`` returns the problems it found.

class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed

    def build(self) -> None:
        """Write the seeded input files under WORK."""

    def prime(self, harness: Harness) -> Sample:
        """The warm-up op that ends set-up (and fills the cache, if any)."""
        self.prepare_op()
        return harness.run(self.op())

    def check_prime(self, sample: Sample) -> list[str]:
        return self.check_op(sample) + self.check_output()

    def prepare_op(self) -> None:
        pass

    def check_warm(self, sample: Sample) -> list[str]:
        return self.check_op(sample)

    def check_output(self) -> list[str]:
        return []

    def final_check(self, harness: Harness) -> list[str]:
        return self.check_output()


class ColdLarge(Workload):
    """Plain ``generate`` of a large hybrid diagram into a fresh directory;
    the warm op regenerates over the existing output."""

    def build(self) -> None:
        self.diagram = inputs.large_diagram(self.seed, LARGE_CLASSES)
        self.artifacts = checks.expected_artifacts(self.diagram, ALL, "hybrid")
        (WORK / "large.cdl").write_text(inputs.render_cdl(self.diagram), encoding="utf-8")
        (WORK / "large.vsp").write_text(
            inputs.render_vsp("large", ALL, "hybrid", "large.cdl", "out"), encoding="utf-8"
        )

    def prepare_op(self) -> None:
        shutil.rmtree(WORK / "out", ignore_errors=True)

    def op(self) -> list[list[str]]:
        return [["generate", "-s", str(WORK / "large.vsp")]]

    def check_op(self, sample: Sample) -> list[str]:
        return self._check_report(sample, self.artifacts, set())

    def check_output(self) -> list[str]:
        return checks.check_output(WORK / "out", self.diagram, ALL, "hybrid")

    def _check_report(self, sample: Sample, written: set[str], hits: set[str]) -> list[str]:
        blocks = checks.parse_report(sample.stdout)
        if len(blocks) != 1:
            return [f"{len(blocks)} variant reports, expected 1"]
        facts = checks.expected_facts(self.diagram, ALL, "hybrid")
        return checks.check_report(blocks[0], written, hits, facts)


class Incremental(ColdLarge):
    """Edit one attribute, then ``generate --incremental``; the warm op is a
    no-change rerun that must write nothing and hit every artifact."""

    def build(self) -> None:
        super().build()
        (WORK / "plain.vsp").write_text(
            inputs.render_vsp("plain", ALL, "hybrid", "large.cdl", "plain"), encoding="utf-8"
        )
        self.edits = random.Random(f"edits-{self.seed}")
        self.edited: inputs.ClassSpec | None = None

    def prime(self, harness: Harness) -> Sample:
        shutil.rmtree(WORK / "out", ignore_errors=True)
        return harness.run(self.op())

    def check_prime(self, sample: Sample) -> list[str]:
        return self._check_report(sample, self.artifacts, set()) + self.check_output()

    def prepare_op(self) -> None:
        self.edited = inputs.edit_attribute(self.edits, self.diagram)
        (WORK / "large.cdl").write_text(inputs.render_cdl(self.diagram), encoding="utf-8")

    def op(self) -> list[list[str]]:
        return [["generate", "-s", str(WORK / "large.vsp"), "--incremental"]]

    def check_op(self, sample: Sample) -> list[str]:
        name = self.edited.name
        changed = {f"{name}.oo"} if "nobuilder" in self.edited.tags else {f"{name}.oo", f"{name}Builder.oo"}
        return self._check_report(sample, changed, self.artifacts - changed)

    def check_warm(self, sample: Sample) -> list[str]:
        return self._check_report(sample, set(), self.artifacts)

    def check_output(self) -> list[str]:
        return checks.check_output(WORK / "out", self.diagram, ALL, "hybrid", frozenset({checks.CACHE_FILE}))

    def final_check(self, harness: Harness) -> list[str]:
        """The incremental output equals a plain generate of the final diagram."""
        shutil.rmtree(WORK / "plain", ignore_errors=True)
        if harness.run([["generate", "-s", str(WORK / "plain.vsp")]]).failed:
            return ["plain generate of the final diagram failed"]
        return self.check_output() + checks.same_files(
            WORK / "out", WORK / "plain", frozenset({checks.CACHE_FILE})
        )


class ProductSweep(Workload):
    """Derive and generate all 60 composable variants of the reference line;
    the warm op regenerates them over the existing outputs."""

    def build(self) -> None:
        base = inputs.small_diagram(self.seed)
        self.variants = []
        for index, features in enumerate(inputs.composable_configurations()):
            for mode in inputs.MODES:
                name = f"v{index:02d}_{mode}"
                diagram = inputs.restrict_to_variant(base, features, mode)
                (WORK / f"{name}.cdl").write_text(inputs.render_cdl(diagram), encoding="utf-8")
                (WORK / f"{name}.vsp").write_text(
                    inputs.render_vsp(name, features, mode, f"{name}.cdl", f"sweep/{name}"),
                    encoding="utf-8",
                )
                self.variants.append((name, diagram, features, mode))

    def prepare_op(self) -> None:
        shutil.rmtree(WORK / "sweep", ignore_errors=True)

    def op(self) -> list[list[str]]:
        return [["generate", "-s", str(WORK / f"{name}.vsp")] for name, *_ in self.variants]

    def check_op(self, sample: Sample) -> list[str]:
        blocks = checks.parse_report(sample.stdout)
        if len(blocks) != len(self.variants):
            return [f"{len(blocks)} variant reports, expected {len(self.variants)}"]
        problems = []
        for block, (name, diagram, features, mode) in zip(blocks, self.variants):
            expected = checks.expected_artifacts(diagram, features, mode)
            facts = checks.expected_facts(diagram, features, mode)
            problems += [f"{name}: {p}" for p in checks.check_report(block, expected, set(), facts)]
        return problems

    def check_output(self) -> list[str]:
        problems = []
        for name, diagram, features, mode in self.variants:
            problems += checks.check_output(WORK / "sweep" / name, diagram, features, mode)
        return problems


class Enumerate(Workload):
    """Count the valid configurations of a seeded 16-feature model."""

    def build(self) -> None:
        model = inputs.feature_model(self.seed)
        self.expected = inputs.expected_count(model)
        (WORK / "model.fml").write_text(inputs.render_fml(model), encoding="utf-8")

    def op(self) -> list[list[str]]:
        return [["enumerate", "-m", str(WORK / "model.fml")]]

    def check_op(self, sample: Sample) -> list[str]:
        if sample.stdout != f"{self.expected}\n":
            return [f"enumerate printed {sample.stdout!r}, expected {self.expected}"]
        return []


WORKLOADS = {
    "cold-large": ColdLarge,
    "incremental": Incremental,
    "product-sweep": ProductSweep,
    "enumerate": Enumerate,
}


# ---------------------------------------------------------------------------
# The run

WARM_LAYER_METRICS = (
    "generation.engine_s", "generation.engine_self_s", "generation.trace_s",
    "generation.written", "generation.cache_hits", "ootl.check_calls",
)
_UNITS = {
    "_s": "s", "_calls": "count", ".calls": "count", ".tokens": "count", ".written": "count",
    ".cache_hits": "count", ".facts": "count", ".spans": "count", "_ratio": "ratio", "_share": "ratio",
}


def _unit(name: str) -> str:
    return next(unit for suffix, unit in _UNITS.items() if name.endswith(suffix))


def _median(values) -> float:
    return statistics.median(list(values))


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool) -> None:
        self.name, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.harness = Harness()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.ops: list[Sample] = []
        self.warms: list[Sample] = []
        self.traced: dict[str, list[tuple[Sample, dict]]] = {"op": [], "warm": []}
        self.spans: list[dict] = []

    def setup(self) -> float:
        """Median wall time of SETUPS complete set-ups; the last one is kept."""
        times = []
        for _ in range(SETUPS):
            shutil.rmtree(WORK, ignore_errors=True)
            WORK.mkdir(parents=True)
            start = time.perf_counter()
            self.harness.cli = import_genline()
            self.workload = WORKLOADS[self.name](self.seed)
            self.workload.build()
            sample = self.workload.prime(self.harness)
            times.append(time.perf_counter() - start)
            if sample.failed:
                raise RuntimeError(f"{self.name}: the set-up operation failed")
            self.problems += self.workload.check_prime(sample)
        return statistics.median(times)

    def record(self, sample: Sample, problems: list[str]) -> None:
        self.attempted += 1
        if sample.failed:
            self.failed += 1
        else:
            self.problems += problems

    def count_calls(self):
        """The counting pass: one op under cProfile, apart from the timed ops."""
        wl = self.workload
        wl.prepare_op()
        samples: list[Sample] = []
        package = Path(self.harness.cli.__file__).resolve().parent
        calls, stats = tracing.count_calls(lambda: samples.append(self.harness.run(wl.op())), package)
        self.record(samples[0], wl.check_op(samples[0]))
        return calls, stats

    def timed_rounds(self) -> None:
        """Whole rounds of (op, warm op) until ``seconds`` have passed.

        In a traced run every other round is traced; the untraced rounds give
        the baseline for the tracing overhead.
        """
        wl = self.workload
        start = time.perf_counter()
        rounds = 0
        while rounds < (2 if self.trace else 1) or time.perf_counter() - start < self.seconds:
            traced = self.trace and rounds % 2 == 1
            wl.prepare_op()
            self.measure("op", wl.check_op, self.ops, traced)
            self.measure("warm", wl.check_warm, self.warms, traced)
            rounds += 1

    def measure(self, kind: str, check, untraced: list[Sample], traced: bool) -> None:
        if traced:
            sample, layers = self._traced(kind, self.workload.op())
            self.traced[kind].append((sample, layers))
        else:
            sample = self.harness.run(self.workload.op())
            untraced.append(sample)
        self.record(sample, check(sample))

    def _traced(self, kind: str, argvs: list[list[str]]) -> tuple[Sample, dict]:
        tracer = tracing.Tracer()
        tracer.install()
        self.harness.tracer = tracer
        try:
            sample = self.harness.run(argvs)
        finally:
            self.harness.tracer = None
            tracer.uninstall()
        self.spans.append({"kind": kind, "spans": tracer.spans})
        return sample, tracing.layer_metrics(tracer.spans, tracer.counts)

    def execute(self) -> dict:
        setup_s = self.setup()
        calls, stats = self.count_calls()
        self.timed_rounds()
        self.problems += self.workload.final_check(self.harness)
        if self.trace:
            metrics = {name: (value, _unit(name)) for name, value in self.layer_report(calls, stats).items()}
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_s": (_median(s.seconds for s in self.ops), "s"),
                "warm_s": (_median(s.seconds for s in self.warms), "s"),
                "op_mcalls": (sum(calls.values()) / 1e6, "Mcalls"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
                "write_mib": (_median(s.written for s in self.ops) / MIB, "MiB"),
                "read_mib": (_median(s.read for s in self.ops) / MIB, "MiB"),
            }
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }

    def layer_report(self, calls, stats) -> dict[str, float]:
        op_layers = [layers for _, layers in self.traced["op"]]
        warm_layers = [layers for _, layers in self.traced["warm"]]
        metrics = {name: _median(layers[name] for layers in op_layers) for name in op_layers[0]}
        for name in WARM_LAYER_METRICS:
            metrics["warm." + name] = _median(layers[name] for layers in warm_layers)
        for layer in tracing.LAYERS + ("builtin", "other"):
            metrics[f"{layer}.calls"] = calls[layer]
        metrics["generation.cache_key_share"] = tracing.cache_key_share(stats)
        traced_op_s = _median(sample.seconds for sample, _ in self.traced["op"])
        metrics["trace.op_s"] = traced_op_s
        metrics["trace.overhead_s"] = traced_op_s - _median(s.seconds for s in self.ops)
        metrics["trace.spans"] = _median(len(op["spans"]) for op in self.spans if op["kind"] == "op")
        path = OUT_ROOT / f"spans-{self.name}-{self.seed}.json"
        path.write_text(json.dumps(self.spans), encoding="utf-8")
        print(f"spans of {len(self.spans)} traced ops written to {path}")
        return metrics

    def summary(self) -> list[str]:
        """Human-readable lines: every sample, and the I/O of the warm op."""
        lines = [f"PROBLEM {p}" for p in self.problems[:20]]
        for kind, samples in (("op", self.ops), ("warm", self.warms)):
            lines.append(
                f"{kind}: {len(samples)} untraced samples (s): "
                + " ".join(f"{s.seconds:.4f}" for s in samples)
            )
            lines.append(
                f"{kind}: median read {_median(s.read for s in samples) / MIB:.4f} MiB, "
                f"median written {_median(s.written for s in samples) / MIB:.4f} MiB"
            )
        return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_genline()
    except ImportError as exc:
        print(f"cannot import genline from ./src: {exc}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        result = run.execute()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in run.summary():
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:32} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
