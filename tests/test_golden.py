"""The CLI examples of the README reproduce their recorded outputs byte for
byte. The files under tests/golden/ were written by these same commands; a
change that moves any digit of them has to say why and record them again."""

import pathlib

import pytest

from hyperdirichlet.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

README_EXAMPLES = {
    "phi.csv": "phi --d 3 --lambda 0:10:5 --chi 0.2:2:4",
    "cfunc.json": "cfunc --d 4 --lambda 0.5:20:8 --format json",
    "kernel.csv": "kernel --d 3 --M 10 --chi 0.5:2.5:5 --method closed",
    "transform-forward.csv":
        "transform --d 3 --action forward --f bump --a 1 --lambda 0:20:41",
    "transform-parseval.csv": "transform --d 3 --action parseval --f bump --lambda 0:40:2",
    "transform-mehler-fock.csv":
        "transform --d 2 --action mehler-fock --f exp-decay --mu 0:10:11",
    "converge-d3.json": "converge --d 3 --f linear-ramp --schedule 25,50,100,200",
    "converge-d2.json": "converge --d 2 --f exp-decay --schedule 10,20,40,80 --tol 2e-2",
    "limits.csv": "limits --mode bessel --d 3 --p 1 --r 1 --Rgrid 10:40:3",
}


@pytest.mark.parametrize("name", sorted(README_EXAMPLES))
def test_readme_example_matches_golden(name, tmp_path):
    out = tmp_path / name
    assert main(README_EXAMPLES[name].split() + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
