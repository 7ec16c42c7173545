"""Self-test of the benchmark.

    python3 -m unittest discover -s benchmark -p 'test_*.py'

Runs every workload in smoke mode (a fraction of a second of work,
untraced and traced) through `run.py`, and checks that

- the run passes its output checks with no failed operation;
- every metric the benchmark defines for the workload is printed with
  its unit and sample count, and the result line carries exactly the
  metrics `BENCHMARK.json` lists;
- the layer rows plus the unaccounted row add up to the measured total,
  within `SUM_TOLERANCE`;
- a failed output check ends the run with a non-zero code.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "0.1"
# Sums closed by an unaccounted row hold exactly up to the printed
# digits; the data/forward/backward split of the model span leaves only
# the span bookkeeping between its parts.
SUM_TOLERANCE = 0.01
SPLIT_TOLERANCE = 0.05

# Per-layer metrics each workload must measure (non-zero samples).
MODEL = ["model.loss_grad_us", "data.batch_us", "nn.forward_us", "autograd.backward_us"]
OPTIM = ["optim.step_us", "optim.measure_us", "core.combine_us", "optim.apply_us",
         "optim.dispatch_us", "tensor.fanouts_per_step", "trainer.unaccounted_us",
         "trainer.step_us", "trace.overhead_share"]
LAYERS = {
    "resnet-train": MODEL + OPTIM,
    "tuner-wide": ["task.grad_us"] + OPTIM,
    "serve-remote": ["task.grad_us", "remote.step_us", "wire.measure_frame_bytes",
                     "wire.encode_us", "wire.decode_us", "serve.session_measure_us",
                     "serve.snapshot_encode_us", "serve.snapshot_bytes",
                     "fsio.write_sealed_us", "serve.ping_rtt_us", "serve.unaccounted_us",
                     "serve.session_state_kb"] + OPTIM,
    "lstm-sweep": MODEL + OPTIM + ["fleet.sweep_s", "fleet.cell_s", "fleet.overhead_share",
                                   "fleet.checkpoint_us", "fleet.checkpoint_bytes",
                                   "fsio.write_sealed_us", "fleet.journal_events"],
}
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)$")


def bench(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


def parse(out):
    lines = out.stdout.strip().splitlines()
    table = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            table[m.group(1)] = (float(m.group(2)), m.group(3), int(m.group(4)))
    return json.loads(lines[-1]), table


class Smoke(unittest.TestCase):
    def run_ok(self, workload, trace):
        out = bench(workload, trace)
        self.assertEqual(out.returncode, 0, out.stdout[-3000:] + out.stderr[-3000:])
        result, table = parse(out)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            value, unit, samples = table[m["name"]]
            self.assertEqual(unit, m["unit"])
        wanted = LAYERS[workload] if trace else [m["name"] for m in declared]
        for name in wanted:
            value, unit, samples = table[name]
            self.assertGreaterEqual(samples, 1, f"{workload}: {name} has no samples")
        return table

    def check_sums(self, workload, t):
        def v(name):
            return t[name][0]

        def close(total, parts, tol):
            self.assertLessEqual(abs(total - parts), tol * abs(total) + 1e-9,
                                 f"{workload}: {total} vs {parts}")

        close(v("trainer.step_us"),
              v("model.loss_grad_us") + v("task.grad_us") + v("optim.step_us")
              + v("trainer.unaccounted_us"), SUM_TOLERANCE)
        close(v("optim.step_us"),
              v("optim.measure_us") + v("core.combine_us") + v("optim.apply_us")
              + v("optim.dispatch_us"), SUM_TOLERANCE)
        if v("model.loss_grad_us") > 0:
            close(v("model.loss_grad_us"),
                  v("data.batch_us") + v("nn.forward_us") + v("autograd.backward_us"),
                  SPLIT_TOLERANCE)
        if workload == "serve-remote":
            close(v("remote.step_us"),
                  v("wire.encode_us") + v("wire.decode_us") + 2 * v("serve.session_measure_us")
                  + v("serve.snapshot_encode_us") + v("fsio.write_sealed_us")
                  + v("serve.ping_rtt_us") + v("serve.unaccounted_us"), SUM_TOLERANCE)
        if workload == "lstm-sweep":
            cells, workers = 4, 2
            close(v("fleet.sweep_s"),
                  cells * v("fleet.cell_s") / workers
                  + v("fleet.overhead_share") * v("fleet.sweep_s"), SUM_TOLERANCE)

    def smoke(self, workload):
        self.run_ok(workload, 0)
        self.check_sums(workload, self.run_ok(workload, 1))

    def test_resnet_train(self):
        self.smoke("resnet-train")

    def test_tuner_wide(self):
        self.smoke("tuner-wide")

    def test_serve_remote(self):
        self.smoke("serve-remote")

    def test_lstm_sweep(self):
        self.smoke("lstm-sweep")

    def test_failed_check_exits_non_zero(self):
        for workload in ["resnet-train", "serve-remote", "lstm-sweep"]:
            out = bench(workload, 0, "--break-check")
            self.assertNotEqual(out.returncode, 0, workload)
            result, _ = parse(out)
            self.assertFalse(result["correct"], workload)
            self.assertIn("FAILED", out.stdout, workload)


if __name__ == "__main__":
    unittest.main()
