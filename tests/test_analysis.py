"""Analysis layer: runner, statistics, report rendering, verdicts."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import (
    PaperComparison,
    cluster_for,
    format_table,
    paired_difference,
    relative_difference,
    render_comparisons,
    render_table1,
    render_table2,
    run_program,
    verify_program,
)
from repro.analysis.stats import _t_critical
from repro.analysis.verify import Verdict
from repro.pperfmark import HotProcedure

ROOT = Path(__file__).resolve().parents[1]


class TestRunner:
    def test_cluster_shaped_like_paper_runs(self):
        cluster = cluster_for(6, procs_per_node=2)
        assert cluster.num_nodes == 3  # "two each on three nodes"
        cluster2 = cluster_for(2, procs_per_node=1)
        assert cluster2.num_nodes == 2

    def test_run_program_places_procs_per_node(self):
        result = run_program(HotProcedure(iterations=20), with_tool=False)
        nodes = [ep.proc.node.name for ep in result.world.endpoints]
        assert nodes[0] == nodes[1]
        assert nodes[2] == nodes[3]
        assert nodes[0] != nodes[2]

    def test_run_result_accessors(self):
        result = run_program(HotProcedure(iterations=30))
        assert result.tool is not None
        assert result.consultant.finished
        assert result.proc(0).exited
        assert result.elapsed > 0


class TestStats:
    def test_identical_series_not_significant(self):
        a = [1.0, 2.0, 3.0, 4.0]
        cmp = paired_difference(a, a, label="same")
        assert not cmp.significant
        assert cmp.mean_diff == 0.0

    def test_clear_offset_is_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(10.0, 0.1, size=30)
        b = a + 1.0
        cmp = paired_difference(a, b, label="offset")
        assert cmp.significant
        assert cmp.mean_diff == pytest.approx(-1.0, abs=0.01)
        assert "SIGNIFICANT" in cmp.describe()

    def test_noisy_equal_means_not_significant(self):
        rng = np.random.default_rng(1)
        a = rng.normal(10.0, 1.0, size=25)
        b = a + rng.normal(0.0, 1.0, size=25)
        cmp = paired_difference(a, b)
        # difference is pure noise around zero
        assert abs(cmp.mean_diff) < 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            paired_difference([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_difference([1.0, 2.0], [1.0])

    def test_relative_difference(self):
        assert relative_difference(100.0, 99.0) == pytest.approx(0.01)
        assert relative_difference(0.0, 0.0) == 0.0
        assert relative_difference(0.0, 1.0) == float("inf")

    @pytest.mark.parametrize("df, tabulated", [
        (1, 12.706), (4, 2.776), (10, 2.228), (30, 2.042),
    ])
    def test_t_critical_matches_tables(self, df, tabulated):
        assert _t_critical(df) == pytest.approx(tabulated, abs=1e-3)

    def test_interval_uses_student_t(self):
        # 5 runs, as in the Presta bench: t(0.975, 4) = 2.776, not the
        # normal quantile 1.960 (which would give 3 +/- 1.386)
        cmp = paired_difference([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert cmp.mean_diff == 3.0
        assert cmp.ci_high - cmp.mean_diff == pytest.approx(1.963, abs=1e-3)
        assert cmp.mean_diff - cmp.ci_low == pytest.approx(1.963, abs=1e-3)


class TestDependencies:
    def test_sanitizer_and_analysis_import_no_scipy(self):
        code = ("import sys, repro.sanitizer.run, repro.analysis; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        ).stdout
        assert out.strip() == "[]"

    def test_third_party_imports_are_declared(self):
        text = (ROOT / "pyproject.toml").read_text()
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
        declared = {
            re.split(r"[<>=!~;\[ ]", dep, maxsplit=1)[0].lower()
            for dep in re.findall(r'"([^"]+)"', block.group(1))
        }
        undeclared = set()
        for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top in sys.stdlib_module_names or top == "repro":
                        continue
                    if top.lower() not in declared:
                        undeclared.add(f"{path.relative_to(ROOT)}: {top}")
        assert not undeclared, sorted(undeclared)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(("A", "Bee"), [("xx", 1), ("y", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("A ")
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_render_table1_contains_all_metrics(self):
        from repro.core.metrics import RMA_METRIC_NAMES

        text = render_table1()
        for metric in RMA_METRIC_NAMES:
            assert metric in text

    def test_render_table2_marks_mismatches(self):
        rows = [
            Verdict(program="p", impl="lam", passed=True, tool_result="Pass"),
            Verdict(program="q", impl="lam", passed=False, tool_result="Fail"),
        ]
        text = render_table2(rows)
        assert "match" in text and "MISMATCH" in text

    def test_render_comparisons(self):
        text = render_comparisons(
            "Fig X",
            [PaperComparison("bytes", "100", "99", True, note="2% off")],
        )
        assert "Fig X" in text and "Shape holds" in text


class TestVerdicts:
    def test_hot_procedure_verdict_passes(self):
        verdict = verify_program("hot_procedure", "lam")
        assert verdict.tool_result == "Pass"
        assert verdict.passed
        assert any("bottleneckProcedure" in d for d in verdict.details)

    def test_system_time_verdict_is_paper_fail(self):
        verdict = verify_program("system_time", "lam")
        assert verdict.tool_result == "Fail"
        assert verdict.paper_result == "Fail"
        assert verdict.passed  # reproduction matches the paper's row
