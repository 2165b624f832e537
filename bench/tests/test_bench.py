"""The benchmark's own tests, on a tiny size of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

run.import_program()

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# what the traced pass must show about each workload's layers
CONTROLS = {
    "certify": {"search.search.calls": 0, "rewrite.normalize.calls": 0},
    "corpus": {"rewrite.normalize.calls": 0},
    "sweep": {"algebra.product.calls": 0, "search.search.calls": 0,
              "rewrite.normalize.calls": 0},
    "rewrite": {"search.search.calls": 0},
}


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def _tiny(workload, trace):
    proc = _run([str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
                 "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    lines, result = _tiny(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in SPEC[section])
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln for ln in lines if ln.startswith(f"{workload} {m['name']} = ")]
        assert printed and printed[0].split(" = ")[1].split()[1] == m["unit"]
    assert any(ln.startswith(f"{workload} fail_ratio = 0 ") for ln in lines)
    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        for name, want in CONTROLS[workload].items():
            assert values[name] == want, name
        if workload == "certify":
            assert values["verify.identity_per_file"] > 1
        if workload == "rewrite":
            assert values["rewrite.normalize.calls"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_corrupted_expected_value_is_counted_as_failed(workload, tmp_path):
    wl = workloads.build(workload, 3, "tiny", tmp_path, workloads.load_golden())
    victim = wl.items[0]
    expected = victim.expected() if callable(victim.expected) else victim.expected
    victim.expected = ("corrupted", expected)
    res = run.measure(wl, 0.0, False)
    assert res["failed"] == [victim.label]
    assert res["attempted"] == len(wl.items)


def test_calibration_follows_the_kernel_speed_around_each_item():
    lat = [0.01] * 30
    fast = [reference.REF_MS / 1e3] * 30
    half_speed = fast[:15] + [2 * k for k in fast[15:]]  # the host slows down halfway
    assert reference.calibrate(lat, fast) == pytest.approx([10.0] * 30)
    cal = reference.calibrate(lat, half_speed)
    assert cal[:10] == pytest.approx([10.0] * 10)
    assert cal[20:] == pytest.approx([5.0] * 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run([str(tmp_path / "bench" / "run.py"), "--workload", "sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
