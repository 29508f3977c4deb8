#!/usr/bin/env python3
"""Self-test of the perfbench benchmark: `python3 perfbench/test_bench.py`.

Runs every workload at a tiny size, traced and untraced, and checks that
its gates pass, that they fail when a reference verdict is flipped, and
that the traced replay reports the same verdict rows as the real CLI and
server. Builds like `bench.py run` does, into $CARGO_TARGET_DIR (default
`.bench_build`).
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import bench  # noqa: E402

TINY = {"cli-uniprot": 300, "cli-recursive": 640, "serve-mixed": 60}


def run(workload, trace, seed=7):
    done = subprocess.run(
        [sys.executable, str(bench.ROOT / "perfbench" / "bench.py"), "run", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", str(TINY[workload])],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} failed:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def work(workload):
    return bench.target_dir() / "perfbench" / workload


class Workloads(unittest.TestCase):
    def check_result(self, result, names):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(names))

    def test_every_workload_passes_its_gates(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"] for m in spec["end_to_end"]}
        layers = {m["name"] for m in spec["per_layer"]}
        self.assertEqual(e2e, set(bench.UNITS))
        self.assertEqual(layers, set(bench.PER_LAYER))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = run(workload, 0)
                self.check_result(untraced, e2e)
                for name in e2e:
                    self.assertGreater(untraced["metrics"][name]["value"], 0, name)
                # The traced run also compares the replay's verdict rows
                # with the CLI's or the server's: `correct` covers that.
                self.check_result(run(workload, 1), layers)


def dump(doc, path):
    """Writes a report document as the program renders it: two-space
    indents, sorted keys, UTF-8."""
    path.write_text(json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n")


class Gates(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        for workload in bench.WORKLOADS:
            run(workload, 1)
        cls.shapex, cls.exe = bench.build()

    def check(self, workload, report, same_as=None, directory=None):
        """Failed operations of `perfbench-harness check`."""
        args = ["check", "--workload", workload, "--dir", directory or work(workload),
                "--report", report]
        if same_as:
            args += ["--same-as", same_as]
        return bench.harness(self.exe, *args)["failed"]

    def test_flipped_cli_verdict_fails_the_gate(self):
        for workload in ("cli-uniprot", "cli-recursive"):
            with self.subTest(workload=workload):
                flipped = work(workload) / "flipped"
                flipped.mkdir(exist_ok=True)
                shutil.copy(work(workload) / "cli_report.json", flipped)
                expected = json.loads((work(workload) / "expected.json").read_text())
                (flipped / "expected.json").write_text(json.dumps(expected))
                self.assertEqual(self.check(workload, "cli_report.json", directory=flipped), 0)
                v = expected["verdicts"]
                expected["verdicts"] = ("0" if v[0] == "1" else "1") + v[1:]
                (flipped / "expected.json").write_text(json.dumps(expected))
                self.assertEqual(self.check(workload, "cli_report.json", directory=flipped), 1)

    def test_dropped_row_fails_the_gate(self):
        doc = json.loads((work("cli-recursive") / "cli_report.json").read_text())
        dump(doc, work("cli-recursive") / "kept.json")
        self.assertEqual(self.check("cli-recursive", "kept.json"), 0)
        doc["results"].pop()
        dump(doc, work("cli-recursive") / "dropped.json")
        self.assertEqual(self.check("cli-recursive", "dropped.json"), 1)

    def test_flipped_server_verdict_fails_the_gate(self):
        server = bench.Server(self.shapex, work("serve-mixed"), 1)
        try:
            out = bench.harness(self.exe, "client", "--addr", server.addr, "--seed", 7,
                                "--size", TINY["serve-mixed"], "--seconds", 1, "--flip", 3)
        finally:
            server.stop()
        self.assertGreater(out["failed"], 0)

    def test_replay_rows_equal_the_real_output(self):
        pairs = [(w, "replay_report.json", "cli_report.json")
                 for w in ("cli-uniprot", "cli-recursive")]
        pairs += [("serve-mixed", f"replay_{n}.json", f"client_{n}.json")
                  for n in ("validate", "shacl", "delta")]
        for workload, replayed, real in pairs:
            with self.subTest(workload=workload, report=real):
                self.assertEqual(self.check(workload, replayed, real), 0)
        # A tampered row is told apart; `serve-mixed` has no reference gate
        # in `check`, so the row comparison alone must catch it.
        doc = json.loads((work("serve-mixed") / "replay_validate.json").read_text())
        dump(doc, work("serve-mixed") / "untampered.json")
        self.assertEqual(self.check("serve-mixed", "untampered.json", "client_validate.json"), 0)
        row = doc["results"][0]
        row["verdict"] = "conforms" if row["verdict"] == "fails" else "fails"
        dump(doc, work("serve-mixed") / "tampered.json")
        self.assertEqual(self.check("serve-mixed", "tampered.json", "client_validate.json"), 1)


if __name__ == "__main__":
    unittest.main()
