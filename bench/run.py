"""Outside-in benchmark of eslrsim: desk training, a 2k-vertex rollout and a
2k-vertex preprocess, timed end to end and, in a separate traced run, per layer.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1    # every workload, untraced then traced

Run it from the root of a source checkout: the program is imported from the
checkout's `src/`. A single workload prints one JSON object as its last line
(`correct`, `attempted`, `failed`, `metrics`) and exits 1 if a correctness
check failed, 2 if the program's sources are missing. Outputs go to
`bench/out/`.
"""

import os

# One BLAS thread, set before numpy loads OpenBLAS: timings then do not depend
# on how many cores the machine has or how busy they are, and results do not
# depend on how BLAS splits its work.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("train-desk", "rollout-2k", "preprocess-2k")

# The end-to-end metrics under the names a user of each workload reads:
# name -> (metric in the result, factor, unit)
NAMED = {
    "train-desk": {"train_iter_per_s": ("op_per_s", 1.0, "iter/s"),
                   "train_iter_ms_p50": ("op_ms_p50", 1.0, "ms"),
                   "train_iter_ms_tail": ("op_ms_tail", 1.0, "ms")},
    "rollout-2k": {"frame_ms_p50": ("op_ms_p50", 1.0, "ms"),
                   "frame_ms_tail": ("op_ms_tail", 1.0, "ms")},
    "preprocess-2k": {"preprocess_s": ("op_ms_p50", 1e-3, "s")},
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "eslrsim" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/eslrsim", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import eslrsim

    if Path(eslrsim.__file__).resolve().parent != (src / "eslrsim").resolve():
        print(f"error: imported eslrsim from {eslrsim.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads

    result = workloads.measure(args.workload, args.seed, args.seconds,
                               bool(args.trace), OUT)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, untraced then traced; prints every
    metric with its unit and the traced run's overhead."""
    status = 0
    for name in WORKLOADS:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stdout}")
                status = 1
                continue
            results[trace] = res = json.loads(lines[-1])
            print(f"== {name} ({'traced' if trace else 'untraced'}): correct="
                  f"{res['correct']} attempted={res['attempted']} failed={res['failed']}")
            metrics = res["metrics"]
            if not trace:
                for alias, (key, factor, unit) in NAMED[name].items():
                    print(f"  {alias:32s} {factor * metrics[key]['value']:14.6g} {unit}")
            for key, m in metrics.items():
                print(f"  {key:32s} {m['value']:14.6g} {m['unit']}")
        if len(results) == 2:
            base = results[0]["metrics"]["op_ms_p50"]["value"]
            traced = results[1]["metrics"]["trace.op_ms_p50"]["value"]
            print(f"  {'trace overhead':32s} {100 * (traced / base - 1):+14.2f} % "
                  f"(median operation {traced:.6g} ms traced, {base:.6g} ms untraced)")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
