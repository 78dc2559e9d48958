"""Self-test of the benchmark: the gate, the traced run and BENCHMARK.json.

Run from the repository root:  python3 perfbench/selftest.py
It takes a few seconds; every CLI command it runs uses a small field.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import gate
import run
from spans import SPAN_NAMES, layer_metrics, per_layer_metrics, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced(tmp: Path, argv: list[str]) -> tuple[dict, str]:
    """Run traced_cli.py on the checkout's sources: (its record, report text)."""
    result, report = tmp / "trace.json", tmp / "report.json"
    subprocess.run(
        [sys.executable, str(HERE / "traced_cli.py"), str(ROOT / "src"), str(result), *argv, "--out", str(report)],
        check=True,
    )
    return json.loads(result.read_text()), report.read_text()


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cache = Path(cls.tmp.name)
        cls.prebloch = gate.reference_report(cache, ["prebloch", "--q", "9"])
        cls.verify = gate.reference_report(cache, ["verify", "--q", "7", "--suite", "all"])
        cls.fuzz = gate.reference_report(cache, ["laurent-fuzz", "--q", "5", "--precision", "16", "--samples", "40"])

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def tampered(self, text: str, edit) -> str:
        report = json.loads(text)
        edit(report)
        return json.dumps(report, indent=2)

    def test_untampered_reports_pass(self):
        for text in (self.prebloch, self.verify, self.fuzz):
            self.assertEqual(gate.check_report(text, text), [])

    def test_wrong_bloch_order_is_rejected(self):
        def edit(report):
            report["checks"][1]["integral"]["factors"] = [gate.bloch_order(9) * 2]

        bad = self.tampered(self.prebloch, edit)
        self.assertTrue(gate.fact_problems(json.loads(bad)))
        self.assertTrue(gate.check_report(bad, bad))
        self.assertTrue(gate.check_report(bad, self.prebloch))

    def test_nontrivial_eigenspace_is_rejected(self):
        def edit(report):
            report["checks"][2]["eigenspaces"][1]["odd_invariants"]["factors"] = [3]

        self.assertTrue(gate.fact_problems(json.loads(self.tampered(self.prebloch, edit))))

    def test_failed_sweep_is_rejected(self):
        def edit(report):
            report["checks"][3]["status"] = "fail"

        bad = self.tampered(self.verify, edit)
        self.assertTrue(gate.fact_problems(json.loads(bad)))
        self.assertTrue(gate.check_report(bad, self.verify))

    def test_fuzz_failures_and_inconclusive_rate_are_rejected(self):
        def failing(report):
            report["checks"][0]["failures"] = ["sample 0 attempt 0: nonzero image"]

        def inconclusive(report):
            report["checks"][0]["inconclusive"] = report["checks"][0]["attempts"]

        for edit in (failing, inconclusive):
            self.assertTrue(gate.fact_problems(json.loads(self.tampered(self.fuzz, edit))))

    def test_timing_is_ignored_and_anything_else_is_not(self):
        def slower(report):
            report["timing"]["seconds"] += 1.0

        def reseeded(report):
            report["config"]["seed"] += 1

        self.assertEqual(gate.check_report(self.tampered(self.fuzz, slower), self.fuzz), [])
        self.assertTrue(gate.check_report(self.tampered(self.fuzz, reseeded), self.fuzz))

    def test_malformed_report_is_rejected_not_raised(self):
        def edit(report):
            del report["config"]
            report["checks"][2]["eigenspaces"] = [{"character": "-"}]

        self.assertTrue(gate.check_report(self.tampered(self.prebloch, edit), self.prebloch))
        self.assertTrue(gate.check_report("{", self.prebloch))
        self.assertTrue(gate.check_report("[]", self.prebloch))

    def test_c_order_rule_matches_brute_force_over_prime_fields(self):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 61):
            solvable = any((x * x - x + 1) % p == 0 for x in range(p))
            self.assertEqual(gate.c_order(p), 1 if solvable else 3, p)


class TraceTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        tmp = Path(cls.tmp.name)
        cls.runs = {
            "verify": traced(tmp, ["verify", "--q", "7", "--suite", "all"]),
            "prebloch": traced(tmp, ["prebloch", "--q", "9"]),
            "fuzz": traced(tmp, ["laurent-fuzz", "--q", "5", "--precision", "16", "--samples", "40"]),
        }

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def test_spans_nest_and_carry_listed_names(self):
        for command, (record, _report) in self.runs.items():
            spans = {s["id"]: s for s in record["spans"]}
            self.assertEqual(record["missing"], [], command)
            for s in spans.values():
                self.assertIn(s["name"], SPAN_NAMES, command)
                self.assertLessEqual(s["start"], s["end"])
                if s["parent"] is not None:
                    parent = spans[s["parent"]]
                    self.assertLessEqual(parent["start"], s["start"])
                    self.assertLessEqual(s["end"], parent["end"])
            roots = [s["name"] for s in spans.values() if s["parent"] is None]
            self.assertEqual(roots, ["cli.import", "cli.main"], command)
            covered = sum(s["end"] - s["start"] for s in spans.values() if s["parent"] is None)
            self.assertAlmostEqual(sum(self_times(record["spans"]).values()), covered, places=9)

    def test_each_command_reaches_its_layers(self):
        expected = {
            "verify": {"bloch_core.rp_lattice", "bloch_core.reduced_lattice", "bloch_core.prebloch_lattice",
                       *(f"bloch_core.sweep.{name}" for name in (
                           "lambda_well_defined", "suslin_cocycle", "suslin_lambda_one", "inversion_two_torsion",
                           "suslin_lambda_one_image", "constants", "difference_identity",
                           "reduced_quotient_identities"))},
            "prebloch": {"bloch_core.prebloch_presentation", "exact_linalg.invariants",
                         "bloch_core.bloch_invariants", "bloch_core.refined_bloch"},
            "fuzz": {"laurent.fuzz_specialization", "laurent.specialization_target", "laurent.target_membership"},
        }
        for command, (record, _report) in self.runs.items():
            names = {s["name"] for s in record["spans"]}
            self.assertLessEqual(expected[command], names, command)
        self.assertEqual(self.runs["verify"][0]["facts"]["c_orders"], [[7, gate.c_order(7)]])

    def test_layer_metrics_cover_the_list(self):
        runs = []
        for record, report in self.runs.values():
            runs.append(dict(record, wall=1.0, report_bytes=len(report)))
        metrics = layer_metrics(runs, 0.5)
        self.assertEqual(list(metrics), [name for name, _unit in per_layer_metrics()])
        self.assertTrue(all(v is not None for v in metrics.values()))
        self.assertGreater(metrics["exact_linalg.prebloch_invariants_s"], 0)
        self.assertGreater(metrics["finite_field.mul_code_calls"], 0)
        self.assertEqual(metrics["laurent.conclusive_ratio"], 40 / metrics["laurent.attempts"])

    def test_missing_entry_points_read_null(self):
        record = copy.deepcopy(self.runs["verify"][0])
        record["missing"] = ["bloch_core.sweep", "finite_field.mul_code_calls", "bloch_core.rp_lattice"]
        metrics = layer_metrics([dict(record, wall=1.0, report_bytes=1)], 0.5)
        self.assertIsNone(metrics["bloch_core.sweep.suslin_cocycle_s"])
        self.assertIsNone(metrics["bloch_core.sweep.suslin_cocycle.checked"])
        self.assertIsNone(metrics["finite_field.mul_code_calls"])
        self.assertIsNone(metrics["bloch_core.rp_lattice.self_s"])
        self.assertIsNotNone(metrics["bloch_core.reduced_lattice_s"])


class BenchmarkJsonTest(unittest.TestCase):
    def test_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], per_layer_metrics())
        setup_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup_bound, max(m["bound"] for m in spec["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
