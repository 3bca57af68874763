"""The benchmark's per-layer view still finds every layer boundary.

`perfbench/tracing.py` wraps named functions of the package and lists a
boundary it cannot find in `Tracer.absent`, so a rename would otherwise make
per-layer metrics silently disappear.  `install` rebinds the package in
place, hence the child process.
"""

import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import json, sys
from fractions import Fraction
sys.path.insert(0, sys.argv[1])
import bernint, bernint.verify
import run, tracing

tracer = tracing.Tracer()
tracing.install(tracer)
bernint.verify.verify_oracle(max_sum=3, max_r=4)
bernint.verify.verify_carlitz4(max_sum=4)
bernint.closed_form_integral((2, 3, 1), Fraction(2, 7))
bernint.oracle_integral((2, 3, 1), Fraction(2, 7))
tracing.table_entries(tracer)
layers = sorted({name.rsplit(".", 1)[0] for name in run.PER_LAYER})
print(json.dumps({"absent": sorted(tracer.absent), "calls": tracer.calls, "layers": layers}))
"""


def test_every_layer_is_traced():
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(PERFBENCH)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout)
    assert result["absent"] == []
    assert len(result["layers"]) >= 10
    for layer in result["layers"]:
        assert result["calls"].get(layer, 0) >= 1, layer
