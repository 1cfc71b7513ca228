"""The README's CLI and library examples and the package's public names."""

import re
import shlex
from pathlib import Path

import bayesglasso
from bayesglasso.cli import build_parser
from bayesglasso.matrixcore import pd_check

README = Path(__file__).resolve().parents[1] / "README.md"

# The example at desk scale: p=6, burn_in=5, draws=10.
DESK_SCALE = {
    'true_model("ar1", 30)': 'true_model("ar1", 6)',
    "burn_in=5000": "burn_in=5",
    "draws=10000": "draws=10",
}


def library_example():
    text = README.read_text()
    section = text.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_every_public_name_resolves():
    for name in bayesglasso.__all__:
        assert getattr(bayesglasso, name) is not None, name


def test_readme_library_example_runs():
    code = library_example()
    assert "from bayesglasso import" in code
    for old, new in DESK_SCALE.items():
        assert code.count(old) == 1, old
        code = code.replace(old, new)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    out = namespace["out"]
    assert out.omega_mean.shape == (6, 6)
    assert out.sweeps_run == 15
    pd_check(out.omega_mean)
    assert out.audit.violations == 0  # the example runs hrs


def cli_examples():
    section = README.read_text().split("## CLI", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```\n(.*?)```", section, re.S)
    return [shlex.split(b.replace("\\\n", " ")) for b in blocks
            if b.startswith("bayesglasso ")]


def test_readme_cli_examples_parse():
    sim, one, fit = (build_parser().parse_args(argv[1:]) for argv in cli_examples())
    assert (sim.command, sim.p, sim.replications) == ("simulate", 30, 50)
    assert (one.command, one.sampler, one.replications, one.burn_in, one.draws) == \
        ("simulate", "bgs", 1, 0, 1000)
    assert (fit.command, fit.data_path, fit.standardize) == ("fit", "returns.csv", True)
