"""The python examples of README.md run, in order, in one namespace, its
command lines parse, and the package root exports exactly the names the
README documents."""

import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace: dict = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)


def test_readme_commands_parse(monkeypatch):
    import sinegordon.harness

    for command in ("run", "converge", "compare"):
        monkeypatch.setattr(sinegordon.harness, f"cmd_{command}", lambda cfg, *rest: 0)
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("sinegordon ")]
    assert sorted(argv[0] for argv in commands) == ["compare", "converge", "run"]
    for argv in commands:
        assert sinegordon.harness.main(argv) == 0, argv


ROOT_EXPORTS = [
    "Boundary", "NonConvergenceError", "NumericalError", "SchemeState", "SystemOperator",
    "TimeGrid", "__version__", "convergence_orders", "coupling", "delta_x",
    "ep_fds_step", "error_vs_exact", "get_problem",
    "global_energy_modified", "global_energy_original", "init_state", "laplacian",
    "li_leps_first_step", "li_leps_step", "local_law_residual", "make_grid",
    "original_law_residual", "pcg_solve", "run",
]


def test_package_root_exports_the_documented_names():
    import sinegordon

    assert sorted(sinegordon.__all__) == ROOT_EXPORTS
    assert all(hasattr(sinegordon, name) for name in ROOT_EXPORTS)
