"""Golden outputs: the SHA-256 of ``compare.csv`` for two fixed comparisons.

The CSVs are the package's contract, and refactors of the solve and
metering paths must keep them byte-identical. A change that means to move
an output updates a hash here and says why.
"""

import hashlib

import pytest

from jcorm import harness
from jcorm.config import ScenarioConfig

GOLDEN = {
    # every algorithm at the defaults (U=6): 1-D runs and small stacks
    "four-algorithms": (dict(), ["jcorm", "atsm", "ga", "no-offload"], range(5),
                        "e0a484eaeb288718d02a642fa20c0dcb185caf82ad3011b08d241d6c06983951"),
    # two stacks of ten 96-UAV cells
    "fleet-96": (dict(num_uavs=96), ["atsm", "no-offload"], range(10),
                 "c7c9782c9cc694c3aef6d10fa8eab28f1ab31743d7bbe70687df740707507c34"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compare_csv_is_byte_identical(case, tmp_path):
    overrides, algorithms, seeds, digest = GOLDEN[case]
    result = harness.run_compare(ScenarioConfig(**overrides), algorithms, seeds)
    (path,) = harness.write_sweep_outputs(result, str(tmp_path), ("csv",))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
