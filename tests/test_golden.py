"""Golden outputs: the SHA-256 of the CSV of fixed comparisons and sweeps.

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
    # the strict deadline bound, through check_feasible and the settle step
    "strict": (dict(solver_mode="strict"), ["jcorm", "atsm", "no-offload"], range(5),
               "8d6f53995aa5ee48549ab8aac95aad9764deb868ead103127dd303ac7333e506"),
    # two stacks of ten 96-UAV cells
    "fleet-96": (dict(num_uavs=96), ["atsm", "no-offload"], range(10),
                 "c7c9782c9cc694c3aef6d10fa8eab28f1ab31743d7bbe70687df740707507c34"),
}

GOLDEN_SWEEPS = {
    # buffers that bind in some slots of some cells only: the rows a stack
    # solved ahead of its buffer chain are solved again where they bind
    "storage-binds-in-some-slots": (
        "storage_initial_free_bits", [0.0, 4e9, 8e9, 12e9], ["jcorm", "atsm", "no-offload"],
        range(4), "68fdc44a88a44312010e389b2d1b06f1b8a85c7a9a3b3f59f28ac8ccb886e9d8"),
}


# ``jcorm run``'s CSV over seeds 0-4, one digest per algorithm: each cell
# runs on its own, a stack of one for the slot solvers
GOLDEN_RUNS = {
    ("defaults", "jcorm"): "02dbab345175c71611faac9fa8d76274f17dfc8fbff955b103688461a602e426",
    ("defaults", "atsm"): "3e86a877128346402c8585b192da9ef067b009179c57ebce1e6b6e3869882182",
    ("defaults", "ga"): "21963cc30796e412fae381544d2874b16583c63184993d1bb8da0fec2d2b945d",
    ("defaults", "no-offload"): "3efbc239ef4142f0ecbf94a394856c340d3b306e4b2fb361cf1d3a2fa76a0718",
    # bounds that bind in (nearly) every slot: one solve call per slot
    ("tight-buffer", "jcorm"): "d0937df79058b26dc9d757994ad46950ffbf5d15b5d191ac01a50bac1529fbc5",
    ("tight-buffer", "atsm"): "40e9d26cf7f9220ca387ea4d9a9f7f5af5ccfc0ad8f970f66afba84d5e986d0c",
    ("tight-buffer", "no-offload"):
        "9443daa098b621c06c0c0a248c4036b264c564c0c461c4cdbe235c1b14e5a01f",
}
RUN_CONFIGS = {"defaults": dict(),
               "tight-buffer": dict(storage_capacity_bits=2e9, storage_initial_free_bits=1e8)}


def csv_digest(result, tmp_path) -> str:
    (path,) = harness.write_sweep_outputs(result, str(tmp_path), ("csv",))
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_compare_csv_is_byte_identical(case, tmp_path):
    overrides, algorithms, seeds, digest = GOLDEN[case]
    result = harness.run_compare(ScenarioConfig(**overrides), algorithms, seeds)
    assert csv_digest(result, tmp_path) == digest


@pytest.mark.parametrize("case", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_is_byte_identical(case, tmp_path):
    axis, values, algorithms, seeds, digest = GOLDEN_SWEEPS[case]
    result = harness.run_sweep(ScenarioConfig(), axis, values, seeds, algorithms)
    assert csv_digest(result, tmp_path) == digest


@pytest.mark.parametrize("case, algo", sorted(GOLDEN_RUNS))
def test_run_csv_is_byte_identical(case, algo, tmp_path):
    # the rows and file that ``jcorm run`` writes, one seed after another
    digest = hashlib.sha256()
    for seed in range(5):
        result = harness.run_experiment(ScenarioConfig(algo=algo, seed=seed, **RUN_CONFIGS[case]))
        rows = harness.result_rows(result)
        rows.extend(harness.aggregate_rows(rows))
        path = tmp_path / f"run_{algo}_seed{seed}.csv"
        harness.write_csv(rows, str(path))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == GOLDEN_RUNS[case, algo]
