import json
import math

import pytest

from hyperdirichlet.cli import main, make_test_function, _parse_grid

GOLDEN_CONFIGS = [
    ["phi", "--d", "3", "--lambda", "0:10:5", "--chi", "0.2:2:4"],
    ["kernel", "--d", "3", "--R", "1", "--M", "10", "--chi", "0.5:2.5:5",
     "--method", "closed"],
    ["cfunc", "--d", "4", "--lambda", "0.5:20:8", "--format", "json"],
]


class TestGridSpec:
    def test_single_value(self):
        assert _parse_grid("2.5") == [2.5]

    def test_three_part(self):
        assert _parse_grid("0:1:5") == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_count_one(self):
        assert _parse_grid("1:1:1") == [1.0]

    def test_invalid(self):
        with pytest.raises(ValueError):
            _parse_grid("1:0:5")
        with pytest.raises(ValueError):
            _parse_grid("0:1:0")
        with pytest.raises(ValueError):
            _parse_grid("0:1")


class TestDeterminism:
    @pytest.mark.parametrize("config", GOLDEN_CONFIGS, ids=("phi", "kernel", "cfunc"))
    def test_byte_identical_reruns(self, config, tmp_path):
        outs = []
        for i in range(2):
            path = tmp_path / f"run{i}.out"
            rc = main(config + ["--output", str(path)])
            assert rc == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].endswith(b"\n")
        assert b"\r" not in outs[0]

    def test_converge_honours_format(self, capsys):
        rc = main(["converge", "--d", "3", "--f", "linear-ramp",
                   "--schedule", "25,50,100", "--format=csv"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("M,partial_sum,abs_error\n25,")


class TestGoldenValues:
    def test_phi_d3_closed_value(self, capsys):
        rc = main(["phi", "--d", "3", "--lambda", "1", "--chi", "1:1:1"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "lambda,chi,phi"
        val = float(lines[1].split(",")[2])
        assert val == pytest.approx(math.sin(1.0) / math.sinh(1.0), rel=1e-12)

    def test_kernel_closed_matches_library(self, capsys):
        rc = main(["kernel", "--d", "3", "--M", "10", "--chi", "0.5:2.5:5",
                   "--method", "closed"])
        assert rc == 0
        out = capsys.readouterr().out
        rows = out.splitlines()[1:]
        assert len(rows) == 5
        from hyperdirichlet.kernel import KernelParams, dirichlet_closed
        from hyperdirichlet.spherical import SpectralParams
        kp = KernelParams(SpectralParams(3), 10.0)
        for row in rows:
            chi, D = (float(tok) for tok in row.split(","))
            assert D == pytest.approx(dirichlet_closed(kp, chi), rel=1e-15)

    def test_method_cross_agreement(self, capsys):
        base = ["kernel", "--d", "3", "--M", "20", "--chi", "0.5:2:4"]
        outs = {}
        for method in ("closed", "quadrature", "recursion"):
            rc = main(base + ["--method", method])
            assert rc == 0
            outs[method] = [float(r.split(",")[1])
                            for r in capsys.readouterr().out.splitlines()[1:]]
        for a, b in zip(outs["closed"], outs["quadrature"]):
            assert abs(a - b) < 1e-7
        for a, b in zip(outs["closed"], outs["recursion"]):
            assert abs(a - b) < 1e-7

    def test_converge_json_report(self, capsys):
        rc = main(["converge", "--d", "3", "--f", "linear-ramp", "--a", "1",
                   "--schedule", "25,50,100,200"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verdict"] == "converged"
        assert data["target"] == 1.0
        assert len(data["M_schedule"]) == 4

    def test_limits_bessel(self, capsys):
        rc = main(["limits", "--mode", "bessel", "--d", "3", "--p", "1",
                   "--r", "1", "--Rgrid", "10:40:3"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]


class TestErrorRecord:
    def test_domain_error_exit_code(self, capsys):
        rc = main(["kernel", "--d", "3", "--M", "-5", "--chi", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DomainError"
        assert "band limit" in record["message"]

    def test_bad_grid_spec(self, capsys):
        rc = main(["phi", "--d", "3", "--lambda", "5:1:3", "--chi", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"


class TestNamedFunctions:
    def test_all_names_construct(self):
        for name in ("linear-ramp", "bump", "poly-vanish", "exp-decay", "one-jump"):
            f = make_test_function(name, 1.0)
            assert f.support_bound == 1.0

    def test_one_jump_has_declared_limits(self):
        f = make_test_function("one-jump", 2.0)
        assert f.breakpoints == (0.0, 1.0, 2.0)
        assert f.one_sided_limits[1.0][0] == (1.0, 0.5)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_test_function("sawtooth", 1.0)
