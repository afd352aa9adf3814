"""End-to-end benchmark: ``repro`` CLI routes on seeded corpora.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload github --seed 0 --seconds 55 --trace 0

Set-up (``prepare.py``, in a child process) generates the workload's
corpus from ``--seed`` with ``benchmarks/corpus.write_corpus``, cuts
it to the workload's byte budget, splits it into head and tail
halves, checkpoints the head half and stores the default route's
schema for ``validate``.  None of that is timed.

``--trace 0`` then runs the CLI routes of :mod:`workloads` as
subprocesses in a closed loop (one client, one command at a time), in
rounds whose order rotates, for ``--seconds``.  It reports each
route's throughput in corpus MB/s: bytes over the seconds its commands
took, scaled to the reference host speed by ``reference.py``, which
runs before every route's command.  It also reports the median peak RSS of the
``default`` and ``fused`` commands and ``setup_s``, the median wall
time of a no-op command (interpreter start plus package import).
The parent process never imports the program, so that ``wait4``
reports each child's own peak RSS.

``--trace 1`` instead alternates each CLI route with its traced
in-process chain (:mod:`chains`) and reports per-layer times, counts
and ratios, plus ``trace.coverage.<route>``: ``setup_s`` plus the
chain's span total, over the CLI command's wall time.  The spans are
written to ``.bench_out/trace-<workload>-seed<seed>.json``.

Every command is one operation.  It fails if it exits non-zero or if
its output is wrong: the JXPLAIN-family routes must print identical
bytes, ``validate`` must accept every record, a traced chain must
render its CLI route's bytes, and at the default seed every output
must match the sha256 pinned in ``pins.json``.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from workloads import (
    JXPLAIN_ROUTES,
    NOOP,
    ROUTES,
    WORKLOADS,
    Files,
    Workload,
    head_checkpoint_args,
    route_args,
)

HERE = os.path.dirname(os.path.abspath(__file__))

#: The seed whose outputs ``pins.json`` pins.
DEFAULT_SEED = 0

#: Variables that could switch a route's backend, inject faults or
#: change what a command prints.
SCRUBBED_ENV = ("REPRO_EXECUTOR", "REPRO_FAULTS", "REPRO_VERBOSE")

#: A single command that runs longer than this is killed and failed.
COMMAND_TIMEOUT_S = 120.0

#: No new round starts once this much of a run has passed.
RUN_LIMIT_S = 150.0

MB = 1e6

#: Median wall time of ``reference.py`` on the reference host (2 vCPUs,
#: Python 3.11): end-to-end throughputs are reported at that speed.
REFERENCE_S = 0.2


@dataclass
class Outcome:
    wall_s: float
    returncode: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_command(argv: List[str], env: Dict[str, str], workdir: str) -> Outcome:
    """Run one child to completion; its peak RSS comes from ``wait4``.

    ``getrusage(RUSAGE_CHILDREN)`` would report the largest child so
    far, so each child is reaped by pid instead.  Output goes to files
    so a full pipe can never stall the child.
    """
    out_path = os.path.join(workdir, "cmd.stdout")
    err_path = os.path.join(workdir, "cmd.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM arrives as SystemExit): leave no child.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as handle:
        stdout = handle.read()
    with open(err_path, "rb") as handle:
        stderr = handle.read()
    return Outcome(wall, proc.returncode, usage.ru_maxrss, stdout, stderr)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.startswith("entities."):
        return "count"
    return "ratio"


class Bench:
    """One run: set-up, the timed loop and its output checks."""

    def __init__(
        self, root: str, workload: Workload, seed: int, workdir: str
    ) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.files = Files(workdir)
        self.env = dict(os.environ)
        for name in SCRUBBED_ENV:
            self.env.pop(name, None)
        src = os.path.join(root, "src")
        inherited = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = (
            src + os.pathsep + inherited if inherited else src
        )
        pins = {}
        if seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as handle:
                pins = json.load(handle).get(workload.name, {})
        self.pins: Dict[str, str] = pins
        #: Reference output per check key (see :meth:`_check`).
        self.expected: Dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        #: Seconds per no-op command: the ``setup_s`` samples.
        self.noop_walls: List[float] = []
        self.corpus_bytes = 0
        self.tail_bytes = 0

    # -- operations ----------------------------------------------------------

    def fail(self, route: str, message: str) -> None:
        self.failed += 1
        print(
            f"FAIL workload={self.workload.name} route={route}: {message}",
            file=sys.stderr,
        )

    def _check(self, route: str, outcome: Outcome) -> Optional[str]:
        if outcome.returncode != 0:
            tail = outcome.stderr.decode("utf-8", "replace")[-300:]
            return f"exit code {outcome.returncode}: {tail}"
        key = "default" if route in JXPLAIN_ROUTES else route
        expected = self.expected.setdefault(key, outcome.stdout)
        if outcome.stdout != expected:
            return f"stdout differs from the {key} output"
        pinned = self.pins.get(route)
        if pinned is not None and sha256(outcome.stdout) != pinned:
            return "stdout sha256 differs from the pinned value"
        return None

    def cli(self, route: str) -> Outcome:
        """One timed CLI command, checked."""
        if route == "noop":
            args = NOOP
        else:
            args = route_args(route, self.workload, self.files)
        if route == "append":
            # ``--resume --checkpoint`` overwrites the checkpoint.
            shutil.copyfile(self.files.head_checkpoint, self.files.checkpoint)
        outcome = run_command(
            [sys.executable, "-m", "repro.cli", *args],
            self.env,
            self.files.workdir,
        )
        self.attempted += 1
        problem = self._check(route, outcome)
        if problem:
            self.fail(route, problem)
        if route == "noop":
            self.noop_walls.append(outcome.wall_s)
        return outcome

    def reference(self) -> float:
        """Wall time of one run of ``reference.py``."""
        outcome = run_command(
            [sys.executable, os.path.join(HERE, "reference.py")],
            self.env,
            self.files.workdir,
        )
        if outcome.returncode != 0:
            raise SystemExit("the reference command failed")
        return outcome.wall_s

    def chain(self, route: str, trace_id: str) -> Optional[dict]:
        """One traced chain in a fresh interpreter, checked."""
        out = self.files.path("chain.json")
        outcome = run_command(
            [
                sys.executable, os.path.join(HERE, "chains.py"), route,
                "--workload", self.workload.name,
                "--workdir", self.files.workdir,
                "--trace-id", trace_id,
                "--out", out,
            ],
            self.env,
            self.files.workdir,
        )
        self.attempted += 1
        if outcome.returncode != 0:
            tail = outcome.stderr.decode("utf-8", "replace")[-300:]
            self.fail(f"trace.{route}", f"exit code {outcome.returncode}: {tail}")
            return None
        with open(out, encoding="utf-8") as handle:
            result = json.load(handle)
        problems = list(result["failures"])
        for key, text in result["outputs"].items():
            wanted = self.expected.get(
                "default" if key in JXPLAIN_ROUTES else key
            )
            if text.encode("utf-8") != wanted:
                problems.append(f"rendered bytes differ from the {key} CLI output")
        if problems:
            self.fail(f"trace.{route}", "; ".join(problems))
        return result

    # -- set-up --------------------------------------------------------------

    def set_up(self) -> None:
        files = self.files
        workload = self.workload
        prepared = run_command(
            [
                sys.executable, os.path.join(HERE, "prepare.py"),
                "--root", self.root,
                "--workload", workload.name,
                "--seed", str(self.seed),
                "--workdir", files.workdir,
            ],
            self.env,
            files.workdir,
        )
        if prepared.returncode != 0:
            sys.stderr.write(prepared.stderr.decode("utf-8", "replace"))
            raise SystemExit("set-up failed: corpus not written")
        stats = json.loads(prepared.stdout)
        self.corpus_bytes = stats["bytes"]
        self.tail_bytes = stats["tail_bytes"]
        records = stats["records"]
        print(
            f"corpus {workload.name} seed={self.seed}: "
            f"{self.corpus_bytes} bytes, {records} records, "
            f"tail {self.tail_bytes} bytes; "
            f"jsontypes.distinct_ratio {stats['distinct']}/{records} "
            f"= {stats['distinct'] / records:.4f}; "
            f"io.shape_hit_rate {stats['shape_hits']}/{stats['lines']} "
            f"= {stats['shape_hits'] / stats['lines']:.4f}"
        )
        # Warm-up: the first command in a fresh checkout compiles
        # bytecode, which no later command pays.
        self.cli("noop")
        self.noop_walls.clear()
        default = self.cli("default")
        if default.returncode != 0:
            raise SystemExit("set-up failed: the default route did not run")
        with open(files.schema, "wb") as handle:
            handle.write(default.stdout)
        self.expected["validate"] = (
            f"validated {records} records: {records} accepted, 0 rejected "
            f"(recall 1.0000)\n"
        ).encode("utf-8")
        head = run_command(
            [
                sys.executable, "-m", "repro.cli",
                *head_checkpoint_args(workload, files),
            ],
            self.env,
            files.workdir,
        )
        self.attempted += 1
        if head.returncode != 0:
            self.fail("set-up", "head checkpoint command failed")
            raise SystemExit("set-up failed: no head checkpoint")

    # -- the timed loops -----------------------------------------------------

    def rounds(self, seconds: float, body) -> int:
        """Call ``body(index)`` round after round for about ``seconds``.

        A round starts only if the longest round so far still fits.
        """
        start = time.perf_counter()
        count = 0
        longest = 0.0
        while True:
            began = time.perf_counter()
            body(count)
            count += 1
            longest = max(longest, time.perf_counter() - began)
            elapsed = time.perf_counter() - start
            if elapsed + longest > min(seconds, RUN_LIMIT_S):
                return count

    @staticmethod
    def rotated(routes, index: int) -> List[str]:
        shift = index % len(routes)
        return list(routes[shift:]) + list(routes[:shift])

    def measure_cli(self, seconds: float) -> Dict[str, dict]:
        walls: Dict[str, List[float]] = {route: [] for route in ROUTES}
        rss: Dict[str, List[int]] = {"default": [], "fused": []}
        outputs: Dict[str, bytes] = {}
        reference: List[float] = []

        def one_round(index: int) -> None:
            order = self.rotated(ROUTES, index)
            for position, route in enumerate(order):
                if position == 0:
                    self.cli("noop")
                reference.append(self.reference())
                outcome = self.cli(route)
                if outcome.returncode != 0:
                    continue
                walls[route].append(outcome.wall_s)
                outputs[route] = outcome.stdout
                if route in rss:
                    rss[route].append(outcome.maxrss_kb)

        count = self.rounds(seconds, one_round)
        # Host speed over this run relative to the reference host.
        speed = REFERENCE_S / median(reference)
        print(f"rounds: {count}; host speed {speed:.3f} x reference")
        self.report_samples("reference", reference, None)
        self.report_samples("noop", self.noop_walls, None)
        metrics = {"setup_s": {"value": median(self.noop_walls), "unit": "s"}}
        for route in ROUTES:
            size = self.tail_bytes if route == "append" else self.corpus_bytes
            self.report_samples(route, walls[route], outputs.get(route))
            # Bytes over the seconds the route's commands took, summed:
            # per-command times are bimodal here, and a median jumps
            # between the modes.  Scaled to the reference host speed.
            busy = sum(walls[route])
            raw = size * len(walls[route]) / MB / busy if busy else 0.0
            print(f"  {route:9s} {raw:.4f} MB/s as timed")
            metrics[f"{route}.mb_s"] = {"value": raw / speed, "unit": "MB/s"}
        for route, values in rss.items():
            metrics[f"{route}.rss_mb"] = {
                "value": median(values) / 1024.0,
                "unit": "MiB",
            }
        return metrics

    def report_samples(
        self, route: str, walls: List[float], output: Optional[bytes]
    ) -> None:
        if not walls:
            print(f"  {route:9s} no successful samples")
            return
        digest = sha256(output) if output is not None else "-"
        print(
            f"  {route:9s} n={len(walls):2d} median {median(walls):.3f}s "
            f"min {min(walls):.3f}s max {max(walls):.3f}s sha256 {digest}"
        )
        print(f"  samples {route} {json.dumps([round(w, 4) for w in walls])}")

    def measure_traced(self, seconds: float) -> Dict[str, dict]:
        samples: Dict[str, List[float]] = {}
        bases: Dict[str, list] = {}
        spans: List[dict] = []
        walls: Dict[str, List[float]] = {route: [] for route in ROUTES}

        def one_round(index: int) -> None:
            self.cli("noop")
            self.cli("noop")
            setup = median(self.noop_walls)
            for route in self.rotated(ROUTES, index) + ["kernel"]:
                cli = None if route == "kernel" else self.cli(route)
                trace_id = (
                    f"{self.workload.name}-s{self.seed}-r{index}-{route}"
                )
                result = self.chain(route, trace_id)
                if result is None:
                    continue
                spans.extend(result["spans"])
                for name, value in result["metrics"].items():
                    samples.setdefault(name, []).append(value)
                for name, base in result["bases"].items():
                    bases[name] = base
                if cli is not None and cli.returncode == 0:
                    walls[route].append(cli.wall_s)
                    # Set-up is added to the spans rather than taken off
                    # the wall: where a command is mostly set-up, the
                    # difference of two noisy times can be near zero.
                    samples.setdefault(f"trace.coverage.{route}", []).append(
                        (setup + result["total_s"]) / cli.wall_s
                    )

        count = self.rounds(seconds, one_round)
        print(f"rounds: {count}")
        metrics = {}
        for name in sorted(samples):
            value = median(samples[name])
            metrics[name] = {"value": value, "unit": per_layer_unit(name)}
            base = bases.get(name)
            suffix = f" ({base[0]:g}/{base[1]:g} in the last round)" if base else ""
            print(f"  {name} = {value:.6g}{suffix}")
        self.dump_trace(spans, walls)
        return metrics

    def dump_trace(self, spans: List[dict], walls: Dict[str, List[float]]) -> None:
        out_dir = os.path.join(self.root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"trace-{self.workload.name}-seed{self.seed}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "workload": self.workload.name,
                    "seed": self.seed,
                    "host": host_info(),
                    "setup_s": self.noop_walls,
                    "cli_wall_s": walls,
                    "spans": spans,
                },
                handle,
            )
        print(f"spans: {len(spans)} written to {os.path.relpath(path, self.root)}")


def host_info() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    for needed in ("src/repro/cli.py", "benchmarks/corpus.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(
                f"error: {needed} not found; run from the root of a "
                f"source checkout",
                file=sys.stderr,
            )
            return 2

    # Let a termination unwind through the clean-up below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(
        root, ".bench_work", f"{workload.name}-s{args.seed}-p{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        bench = Bench(root, workload, args.seed, workdir)
        bench.set_up()
        print(json.dumps({"host": host_info()}))
        if args.trace:
            metrics = bench.measure_traced(args.seconds)
        else:
            metrics = bench.measure_cli(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
