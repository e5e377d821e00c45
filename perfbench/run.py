"""gbsr benchmark: one pinned workload per process.

    python3 perfbench/run.py --workload train-paper --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload's inputs are generated
from --seed in a child process, then this process sets up the program
several times (setup_s is the median), times whole operations through the
public entry points for about --seconds, and checks the outputs outside the
timed region.  An operation is one trainer.train_epoch call on train-* and
one trainer.evaluate_state pass on eval-full.

--trace 0 prints the end-to-end metrics; --trace 1 alternates a fixed number
of untraced and traced operations, and prints the per-layer metrics of
layers.json plus the tracing overhead.  Human-readable lines come first; the
last line of stdout is one JSON object.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, and a fixed str hash seed: with a random one, dict and set
# layouts move the allocator's high-water mark, and peak RSS of one input
# varied by 8 MB between processes.  Both must be set before the interpreter
# and numpy start (numpy is imported only inside functions here).
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5
INPUT_TIMEOUT_S = 120


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="gbsr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def versions():
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas} "
            + " ".join(f"{k}={v}" for k, v in PINNED_ENV.items()))


class Run:
    """One workload in this process: set-up, timed operations, checks."""

    def __init__(self, workload, seed, inputs):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs

    def set_up(self):
        """Ingest, layout and model state; returns the wall time it took."""
        import numpy as np
        from gbsr import data, graph, trainer
        from workloads import CHECKPOINT, INTERACTIONS, SOCIAL

        start = time.perf_counter()
        self.dataset = data.load_dataset(self.inputs / INTERACTIONS,
                                         self.inputs / SOCIAL, seed=self.seed)
        self.layout = graph.layout_for(self.dataset)
        if self.workload.kind == "train":
            self.config = self.workload.config(self.seed)
            self.rng = np.random.default_rng(self.seed)
            self.state = trainer.init(self.config, self.dataset, self.rng)
        else:
            self.state, self.config = trainer.load_checkpoint(self.inputs / CHECKPOINT)
        return time.perf_counter() - start

    def fixed_batch(self):
        """One batch and relaxation draw from the seed, apart from training."""
        import numpy as np
        from gbsr import data

        rng = np.random.default_rng([self.seed, 1])
        batch = data.sample_batch_arrays(self.dataset, self.config.batch_size, rng)
        return batch, rng.uniform(size=self.layout.social_count)

    def loss_of(self, batch, deltas, with_grads):
        from gbsr import objective

        c = self.config
        return objective.gradients(
            self.state.embeddings.matrix, self.state.denoiser, self.layout, batch,
            deltas, layers=c.layers, beta=c.beta, reg_lambda=c.reg_lambda,
            sigma_sq=c.sigma_sq, detach_original=c.detach_original,
            kernel_normalize=c.kernel_normalize, with_grads=with_grads)[0]

    def warm_up(self):
        """One untimed training step, without the update: the first step of a
        process pays for page faults and allocator growth once, which `gbsr
        train` spreads over all its epochs.  `gbsr evaluate` pays its first
        pass every time, so evaluation is not warmed."""
        if self.workload.kind == "train":
            self.loss_of(*self.fixed_batch(), with_grads=True)

    def operation(self):
        """One timed operation; returns (samples it processed, its output)."""
        from gbsr import trainer

        if self.workload.kind == "train":
            _, losses = trainer.train_epoch(self.state, self.dataset, self.config, self.rng)
            batches = math.ceil(self.dataset.train_pairs.shape[0] / self.config.batch_size)
            return batches * self.config.batch_size, losses
        report = trainer.evaluate_state(self.state, self.dataset, self.config)
        return report.evaluated_user_count, report

    def timed(self, seconds=None, setups=None):
        """One operation, or operations for about `seconds`.

        With `seconds`, another operation starts only while it should end
        within half an operation of the budget, and a set-up time is added
        to `setups` whenever the elapsed share of the budget passes the next
        of SETUP_REPEATS marks.  Returns (times, samples, outputs, errors).
        """
        times, samples, outputs, errors = [], [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            try:
                n, out = self.operation()
            except Exception as err:  # counted as a failed operation
                errors.append(f"{type(err).__name__}: {err}")
                break
            times.append(time.perf_counter() - t0)
            samples.append(n)
            outputs.append(out)
            if seconds is None:
                break
            elapsed = time.perf_counter() - start
            while (len(setups) < SETUP_REPEATS
                   and elapsed >= len(setups) * seconds / SETUP_REPEATS):
                setups.append(self.set_up())
            if time.perf_counter() - start + statistics.median(times) / 2 >= seconds:
                break
        return times, samples, outputs, errors

    def check(self, outputs):
        """Per-operation failure flags from the output checks."""
        failed = [False] * len(outputs)
        problems = []
        try:
            pipeline = self._check(outputs, failed, problems)
        except Exception as err:  # the program failed on the check's input
            pipeline = [f"{type(err).__name__}: {err}"]
        if pipeline:
            # the recomputed pipeline is the one every operation ran
            failed = [True] * len(outputs)
            problems += pipeline
        return failed, problems

    def _check(self, outputs, failed, problems):
        """Marks single operations in `failed`; returns whole-pipeline failures."""
        import numpy as np
        from gbsr import backbone, denoiser, evaluation, graph
        import checks

        if self.workload.kind == "train":
            for k, losses in enumerate(outputs):
                if not all(math.isfinite(v) for v in
                           (losses.rec_loss, losses.ib_loss, losses.reg_loss, losses.total)):
                    failed[k] = True
                    problems.append(f"epoch {k}: non-finite loss {losses}")
            batch, deltas = self.fixed_batch()
            got = self.loss_of(batch, deltas, with_grads=False)
            want = checks.expected_losses(self.dataset, self.state, self.config,
                                          batch, deltas)
            return checks.check_losses(got, want)
        cmap = denoiser.denoise(self.state.denoiser, self.state.embeddings.matrix,
                                self.dataset, mode="deterministic")
        reps = backbone.forward(self.state.embeddings,
                                graph.build_adjacency(self.dataset, cmap))
        expected = checks.oracle_metrics(reps, self.dataset, self.config.cutoffs)
        for k, report in enumerate(outputs):
            bad = checks.check_report(report, expected)
            failed[k] = bool(bad)
            problems += [f"pass {k}: {msg}" for msg in bad]
        return checks.check_ranking(
            reps, self.dataset, evaluation.rank_user, max(self.config.cutoffs),
            np.random.default_rng([self.seed, 2]))

    def sizes(self):
        d = self.dataset
        return (f"users={d.user_count} items={d.item_count} "
                f"train={d.train_pairs.shape[0]} social={d.social_pairs.shape[0]} "
                f"adjacency={self.layout.rows.size}")


def percentile_line(times):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    line = f"median {statistics.median(ordered):.4f} s, n={len(ordered)}"
    if len(ordered) > 10:
        k = len(ordered) - 11
        line += f", p{100.0 * (k + 1) / len(ordered):.0f} {ordered[k]:.4f} s"
    return line


def untraced(run, seconds):
    setups = [run.set_up()]
    run.warm_up()
    # the other set-ups are spread over the timed window, between operations:
    # machine speed drifts over seconds, and back-to-back set-ups all landed
    # in one stretch, so their median flipped between fast and slow runs
    times, samples, outputs, errors = run.timed(seconds, setups)
    while len(setups) < SETUP_REPEATS:
        setups.append(run.set_up())
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed, problems = run.check(outputs)
    op = "train_epoch" if run.workload.kind == "train" else "evaluate_state"
    lines = [f"sizes        {run.sizes()}"]
    metrics = {"setup_s": (statistics.median(setups), "s")}
    lines.append(f"setup_s      {metrics['setup_s'][0]:.4f} s  median of {len(setups)} "
                 f"set-ups: {', '.join(f'{s:.4f}' for s in setups)}")
    if times:
        # the fastest operation, not the median: see README.md, "Noise"
        rate = samples[0] / min(times)
        metrics["samples_per_s"] = (rate, "1/s")
        what = "training samples" if run.workload.kind == "train" else "users ranked"
        lines.append(f"samples_per_s {rate:.2f} 1/s  {what}: {samples[0]} per {op} "
                     f"/ fastest {op}, {min(times):.4f} s")
        name = "epoch_s" if run.workload.kind == "train" else "eval_s"
        lines.append(f"{name:<12} {percentile_line(times)}")
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    lines.append(f"peak_rss_mb  {peak_mb:.1f} MB  getrusage of this process before the checks")
    return metrics, lines, failed, problems + errors, len(outputs) + len(errors)


def traced(run):
    from tracing import Tracer, layer_table, metric_names

    tracer = Tracer()
    run.set_up()  # an untraced set-up first, so the traced one is warm
    with tracer:
        run.set_up()
    run.warm_up()
    # untraced and traced operations alternate, so both see the same
    # stretches of machine speed
    plain_times, times, outputs, errors = [], [], [], []
    for _ in range(run.workload.traced_ops):
        op_times, _, _, op_errors = run.timed()
        plain_times += op_times
        errors += op_errors
        with tracer:
            op_times, _, op_outputs, op_errors = run.timed()
        times += op_times
        outputs += op_outputs
        errors += op_errors
        if errors:
            break
    failed, problems = run.check(outputs)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{run.workload.name}-s{run.seed}.jsonl"
    tracer.write(spans_path)

    totals = tracer.layer_totals()
    op_s = sum(times)
    overhead = 100.0 * (op_s / sum(plain_times) - 1.0) if times and plain_times else 0.0
    gradients_calls = totals.get("objective.gradients", [0])[0]
    values = {"autodiff.nodes_per_step": tracer.tape_nodes / gradients_calls
              if gradients_calls else 0.0,
              "trace.overhead_pct": overhead}
    lines = [f"sizes        {run.sizes()}",
             f"traced {len(times)} operations in {op_s:.3f} s against "
             f"{sum(plain_times):.3f} s untraced: overhead {overhead:+.2f}%",
             f"spans        {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}",
             f"{'layer':<34}{'calls':>8}{'self ms':>12}{'total ms':>12}{'self %op':>9}"]
    for layer in layer_table()["layers"]:
        name = layer["metric"]
        calls, total_s, self_s = totals.get(name, (0, 0.0, 0.0))
        values[name] = self_s * 1000.0
        values[name + ".calls"] = calls
        share = 100.0 * self_s / op_s if op_s else 0.0
        lines.append(f"{name:<34}{calls:>8}{self_s * 1e3:>12.2f}"
                     f"{total_s * 1e3:>12.2f}{share:>8.1f}%")
    lines.append(f"autodiff.nodes_per_step {values['autodiff.nodes_per_step']:g}")
    metrics = {name: (values[name], unit) for name, unit in metric_names()}
    return metrics, lines, failed, problems + errors, len(outputs) + len(errors)


def expected_names(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return None
    spec = json.loads(spec_path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "gbsr" / "__init__.py").is_file():
        print(f"no gbsr sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{workload.name}-", dir=OUT))
    try:
        subprocess.run([sys.executable, str(HERE / "workloads.py"),
                        "--workload", workload.name, "--seed", str(args.seed),
                        "--out", str(inputs)],
                       cwd=ROOT, check=True, timeout=INPUT_TIMEOUT_S)
        print(f"# gbsr benchmark workload={workload.name} seed={args.seed} "
              f"trace={args.trace} {versions()}")
        run = Run(workload, args.seed, inputs)
        if args.trace:
            metrics, lines, failed, problems, attempted = traced(run)
        else:
            metrics, lines, failed, problems, attempted = untraced(run, args.seconds)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failures = sum(failed) + (attempted - len(failed))
    for line in lines:
        print(line)
    print(f"error_rate   {failures / attempted:g}  ({failures} failed of {attempted} operations)")
    for problem in problems:
        print(f"FAILED       {problem}")
    names = expected_names(args.trace)
    if names is not None and names != list(metrics):
        print(f"metrics {list(metrics)} do not match BENCHMARK.json {names}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": failures == 0,
        "attempted": attempted,
        "failed": failures,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # re-execute once in the pinned environment; the child process that
        # generates inputs inherits it
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
