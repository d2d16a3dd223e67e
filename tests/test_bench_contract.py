"""The benchmark's tracing contract, checked on tiny inputs.

``perfbench/tracing.py`` wraps named layers at their module bindings and the
benchmark fails a traced run in which a layer its workload lists records no
call.  A refactor that moves a wrapped call site out of reach would only show
there; these tests run the same traced command on a scaled-down log of each
workload, in a child process because the tracer patches module globals.
They also check that tracing leaves every report but the manifest unchanged.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # keep perfbench/ clean
from gen import write_log  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

# small enough for a few seconds per run, large enough that sampling 100
# negatives still fits the catalog and a one-day time split has a test side
TINY = {"entities": 600, "events_per_entity": 12, "items": 900, "days": 10}


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECAUDIT_")}
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def report_digests(outdir):
    return {
        name: hashlib.sha256(open(os.path.join(outdir, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(outdir))
        if name != "manifest.json"
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reaches_every_layer_and_keeps_report_bytes(name, tmp_path):
    workload = WORKLOADS[name]
    spans = tmp_path / "spans.json"
    outputs = {}
    for label, prefix in (
        ("plain", [sys.executable, "-m", "recaudit.cli"]),
        ("traced", [sys.executable, os.path.join(PERFBENCH, "tracing.py"), str(spans)]),
    ):
        # same relative paths in both runs: resolved_config.json records them
        workdir = tmp_path / label
        workdir.mkdir()
        write_log(dataclasses.replace(workload.log, **TINY), 7, str(workdir / "events.csv"))
        argv = [*prefix, *workload.args, "--input", "events.csv", "--output-dir", "out",
                "--seed", "7", "--threads", "1"]
        done = subprocess.run(argv, cwd=workdir, env=child_env(), capture_output=True)
        stderr = done.stderr.decode()
        assert "Traceback" not in stderr, stderr
        assert done.returncode == workload.exit_code, stderr
        outputs[label] = report_digests(workdir / "out")

    document = json.loads(spans.read_text())
    idle = sorted(workload.layers - set(document["names"]))
    assert not idle, f"layers that recorded no call: {idle}"
    _, exact = layer_metrics(document)
    assert exact["events.rows"] == TINY["entities"] * TINY["events_per_entity"]
    assert exact["preprocess.collapse_calls"] >= 1
    assert outputs["traced"] == outputs["plain"]
