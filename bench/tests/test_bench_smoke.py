"""One short run of the real command, both ways: the output has the
shape ``BENCHMARK.json`` promises and nothing fails verification."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_quick_run_matches_the_contract(trace, section, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    spans_path = tmp_path / "spans.json"
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}          # run.py finds src/ itself
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", "mc_bin_hot", "--seed", "5", "--quick",
         "--trace", str(trace), "--trace-out", str(spans_path)],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 1000
    declared = {entry["name"]: entry["unit"]
                for entry in contract[section]}
    assert {name: entry["unit"] for name, entry
            in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    spans = json.loads(spans_path.read_text())
    assert (len(spans["mc_bin_hot"]) > 100) if trace else (spans == {})
    assert os.listdir(str(tmp_path)) == ["spans.json"]
