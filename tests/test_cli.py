import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

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

    def test_kernel_closed_toward_the_origin(self, capsys):
        # the d = 5 closed form cancelled here and printed 0, 4 and 4.125
        rc = main(["kernel", "--d", "5", "--M", "3", "--chi", "1e-9:1e-7:3",
                   "--method", "closed"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert float(row.split(",")[1]) == pytest.approx(4.0743665431525, rel=1e-12)

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

    def test_kernel_recursion_near_origin(self, capsys):
        rc = main(["kernel", "--d", "9", "--M", "25", "--chi", "0.002",
                   "--method", "recursion"])
        assert rc == 0
        D = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert D == pytest.approx(2.518226058924e7, rel=1e-10)

    def test_phi_large_lambda(self, capsys):
        rc = main(["phi", "--d", "4", "--lambda", "1000", "--chi", "1"])
        assert rc == 0
        val = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        with mp.workdps(40):
            ref = float(mp.re(mp.hyp2f1(0.75 + 500j, 0.75 - 500j, 2, -mp.sinh(1) ** 2)))
        assert val == pytest.approx(ref, rel=1e-9, abs=0.0)

    def test_converge_d7_bump(self, capsys):
        rc = main(["converge", "--d", "7", "--f", "bump",
                   "--schedule", "23,46,92,184"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["M_schedule"] == [23.0, 46.0, 92.0, 184.0]

    def test_limits_bessel(self, capsys):
        rc = main(["limits", "--mode", "bessel", "--d", "3", "--p", "1",
                   "--r", "1", "--Rgrid", "10:40:3"])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        errs = [float(r.split(",")[1]) for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_transform_inverse_matches_library(self, capsys):
        # --lambda of inverse is read only for its end
        from hyperdirichlet.spherical import SpectralParams
        from hyperdirichlet.transform import fh_inverse
        rc = main(["transform", "--d", "3", "--action", "inverse", "--f", "bump",
                   "--lambda", "0:20:81", "--chi", "0.2:1:3"])
        assert rc == 0
        rows = [[float(tok) for tok in r.split(",")]
                for r in capsys.readouterr().out.splitlines()[1:]]
        f = make_test_function("bump", 1.0)
        assert rows == [[chi, fh_inverse(f, SpectralParams(3), chi, 20.0)]
                        for chi in _parse_grid("0.2:1:3")]

    def test_transform_forward_d2_wide_support(self, capsys):
        # fh_forward(exp-decay, d = 2, lambda = 0) at a = 100; the part past
        # chi = 100 is below 1e-19
        rc = main(["transform", "--d", "2", "--action", "forward", "--f", "exp-decay",
                   "--a", "700", "--lambda", "0"])
        assert rc == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[1])
        assert value == pytest.approx(1.9452796579790868, rel=1e-12, abs=0.0)

    def test_limits_density_matches_library(self, capsys):
        from hyperdirichlet.cfunction import density_euclid_constant, density_euclid_limit
        from hyperdirichlet.spherical import SpectralParams
        rc = main(["limits", "--mode", "density", "--d", "4", "--p", "1.5",
                   "--Rgrid", "10:40:3"])
        assert rc == 0
        rows = [[float(tok) for tok in r.split(",")]
                for r in capsys.readouterr().out.splitlines()[1:]]
        pa = SpectralParams(4)
        limit = density_euclid_constant(pa, 1.5)
        values = density_euclid_limit(pa, 1.5, [10.0, 25.0, 40.0])
        assert rows == [[R, v, abs(v - limit)] for R, v in zip((10.0, 25.0, 40.0), values)]


class TestErrorRecord:
    def test_domain_error_exit_code(self, capsys):
        rc = main(["kernel", "--d", "3", "--M", "-5", "--chi", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DomainError"
        assert "band limit" in record["message"]

    @pytest.mark.parametrize("argv", [
        ["phi", "--d", "4", "--lambda", "1", "--chi", "400"],
        ["kernel", "--d", "4", "--M", "5", "--chi", "720", "--method", "quadrature"],
        ["kernel", "--d", "4", "--M", "5", "--chi", "400", "--method", "recursion"],
        ["kernel", "--d", "2", "--M", "5", "--chi", "720", "--method", "recursion"],
    ], ids=("phi-d4", "quadrature-d4", "recursion-d4", "recursion-d2"))
    def test_past_the_overflow_of_sinh_squared(self, argv, capsys, far_band_kernel_reference):
        # -sinh^2 chi, the argument of the series about chi = 0, overflows
        # from chi = 354.9; the Harish-Chandra series answers there. The
        # d = 4 kernel at 720 is of order e^{-1080}, below the subnormals.
        assert main(argv) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[-1])
        d, chi = int(argv[2]), float(argv[argv.index("--chi") + 1])
        if argv[0] == "phi":
            with mp.workdps(60):
                ref = float(mp.re(mp.hyp2f1(0.75 + 0.5j, 0.75 - 0.5j, 2, -mp.sinh(chi) ** 2)))
            assert value == pytest.approx(ref, rel=1e-12, abs=0.0)
        else:
            ref = far_band_kernel_reference(d, 5, chi)
            assert value == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("argv,error", [
        (["limits", "--mode", "density", "--Rgrid", "40:10:3"], "ValueError"),
    ], ids=("limits-density",))
    def test_bad_grid_record(self, argv, error, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == error

    @pytest.mark.parametrize("argv", [
        ["phi", "--d", "4", "--lambda", "1", "--chi", "inf"],
        ["phi", "--d", "4", "--lambda", "nan", "--chi", "1"],
        ["phi", "--d", "3", "--lambda", "1", "--chi", "inf"],
        ["kernel", "--d", "3", "--M", "inf", "--chi", "1"],
        ["kernel", "--d", "4", "--R", "inf", "--M", "1", "--chi", "1", "--method", "quadrature"],
        ["cfunc", "--d", "4", "--lambda", "inf"],
        ["cfunc", "--d", "4", "--lambda", "1e300"],
        ["transform", "--d", "2", "--action", "mehler-fock", "--f", "exp-decay", "--mu", "nan"],
        ["kernel", "--d", "4", "--M", "1e300", "--chi", "1", "--method", "quadrature"],
        ["kernel", "--d", "20", "--M", "1e300", "--chi", "1", "--method", "asymptotic"],
        ["kernel", "--d", "5", "--M", "1e300", "--chi", "1", "--method", "closed"],
        ["kernel", "--d", "9", "--M", "1e200", "--chi", "1", "--method", "recursion"],
        ["limits", "--mode", "density", "--d", "3", "--Rgrid", "0:1:2"],
        ["limits", "--mode", "density", "--d", "3", "--Rgrid", "-1"],
        ["transform", "--d", "2", "--action", "forward", "--f", "bump", "--a", "800",
         "--lambda", "1"],
        ["transform", "--d", "3", "--action", "forward", "--f", "bump", "--a", "711",
         "--lambda", "1"],
        ["converge", "--d", "5", "--f", "bump", "--a", "200"],
        ["converge", "--d", "6", "--f", "bump", "--a", "300"],
        ["transform", "--d", "3", "--R", "1e100", "--action", "parseval", "--f", "bump",
         "--lambda", "0:5:9"],
        ["converge", "--d", "4", "--f", "bump", "--a", "100"],
        ["converge", "--d", "4", "--f", "poly-vanish", "--a", "470", "--schedule", "1,2,3"],
    ], ids=("phi-chi-inf", "phi-lambda-nan", "phi-d3-chi-inf", "kernel-M-inf",
            "kernel-R-inf", "cfunc-lambda-inf", "cfunc-overflow", "mehler-fock-mu-nan",
            "quadrature-M-1e300", "asymptotic-overflow", "closed-overflow",
            "recursion-overflow", "density-R-zero",
            "density-R-negative", "forward-d2-cosh-a", "forward-d3-sinh-squared",
            "converge-d5-sinh-fourth", "converge-d6-abel-kernel", "parseval-fhat-squared",
            "converge-d4-past-the-cell-cap", "converge-d4-abel-rows"))
    def test_unrepresentable_input_record(self, argv, capsys):
        # non-finite inputs, cuts without bound, overflow and R <= 0 end in a
        # DomainError record, not a traceback, a hang or a nan on stdout
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    @pytest.mark.parametrize("argv", [
        ["transform", "--d", "2", "--action", "mehler-fock", "--f", "exp-decay", "--mu", "1e7"],
        ["transform", "--d", "2", "--action", "forward", "--f", "bump", "--lambda", "1e7"],
        ["transform", "--d", "3", "--action", "forward", "--f", "linear-ramp", "--lambda", "1e5"],
    ], ids=("mehler-fock", "forward-d2", "forward-d3"))
    def test_cosine_moment_past_the_node_cap(self, argv, capsys):
        # the index 1e7 would need a rule of about 1e8 nodes, and 1e5 one of
        # 3.3e5 at a = 1; each is refused before any of them is allocated
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "DomainError"

    def test_bad_grid_spec(self, capsys):
        rc = main(["phi", "--d", "3", "--lambda", "5:1:3", "--chi", "1"])
        assert rc == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"


def _kernel_value(capsys, d, chi, method):
    rc = main(["kernel", "--d", str(d), "--M", "5", "--chi", str(chi), "--method", method])
    assert rc == 0
    return float(capsys.readouterr().out.splitlines()[1].split(",")[1])


def _kernel_reference(d, chi):
    """D_5^{(d)}(chi) for d = 3, 5 from the closed forms in 40-digit mpmath."""
    with mp.workdps(40):
        x = mp.mpf(chi)
        delta = lambda t: mp.sin(5 * t) / (mp.pi * t)
        d1 = mp.diff(delta, x)
        if d == 3:
            return float(-2 * d1 / mp.sinh(x))
        d2 = mp.diff(delta, x, 2)
        return float(mp.mpf(2) / 3 * (d2 / mp.sinh(x) ** 2 - mp.cosh(x) * d1 / mp.sinh(x) ** 3))


class TestPastTheOverflowOfSinh:
    """Where sinh chi (past 710.47) or a power of it overflows, the kernels
    either give the value, correctly rounded or underflowed, or exit 1."""

    @pytest.mark.parametrize("method", ["closed", "recursion", "quadrature"])
    def test_d3_kernel_at_720(self, method, capsys):
        # the kernel is -1.73e-315 there, subnormal
        ref = _kernel_reference(3, 720)
        assert _kernel_value(capsys, 3, 720, method) == pytest.approx(ref, rel=0, abs=1e-322)

    def test_d3_asymptotic_at_720(self, capsys):
        ref = _kernel_reference(3, 720)
        assert _kernel_value(capsys, 3, 720, "asymptotic") == pytest.approx(ref, rel=1e-3)

    @pytest.mark.parametrize("method", ["closed", "recursion"])
    def test_d5_kernel_past_the_overflow_of_sinh_cubed(self, method, capsys):
        ref = _kernel_reference(5, 300)
        assert _kernel_value(capsys, 5, 300, method) == pytest.approx(ref, rel=1e-12)

    def test_d7_recursion_underflows(self, capsys):
        # of order e^{-3 chi}: far below the smallest subnormal
        assert _kernel_value(capsys, 7, 720, "recursion") == 0.0

    def test_phi_just_below_the_overflow(self, capsys):
        rc = main(["phi", "--d", "4", "--lambda", "1", "--chi", "354"])
        assert rc == 0
        val = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        with mp.workdps(40):
            ref = float(mp.re(mp.hyp2f1(0.75 + 0.5j, 0.75 - 0.5j, 2, -mp.sinh(354) ** 2)))
        assert val == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_phi_d3_at_720(self, capsys):
        rc = main(["phi", "--d", "3", "--lambda", "1", "--chi", "720"])
        assert rc == 0
        val = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        with mp.workdps(40):
            ref = float(mp.sin(720) / mp.sinh(720))
        assert val == pytest.approx(ref, rel=0, abs=1e-322)


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

    def test_bump_second_derivative(self):
        # against a central difference of the declared first derivative
        a = 1.5
        f = make_test_function("bump", a)
        h = 1e-6
        for x in (0.0, 0.3, 0.75, 1.1, 1.4):
            diff = (f.derivative(x + h) - f.derivative(x - h)) / (2.0 * h)
            assert f.second_derivative(x) == pytest.approx(diff, rel=1e-7, abs=1e-8)
        assert f.second_derivative(a) == 0.0


def _assert_contract(argv):
    """The CLI error contract: exit 0 with finite numbers on stdout, or exit 1
    with nothing on stdout and a JSON {"error", "message"} record on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        values = [float(tok) for line in out.getvalue().splitlines()[1:]
                  for tok in line.split(",")]
        assert values and all(math.isfinite(v) for v in values), (argv, values)
        assert err.getvalue() == ""
    else:
        assert rc == 1 and out.getvalue() == ""
        assert set(json.loads(err.getvalue())) == {"error", "message"}


# derandomized and at most 50 examples each, so the suite stays fast and
# every run draws the same cases
_FUZZ = settings(max_examples=50, derandomize=True, deadline=None)
# --R, --Rgrid and --mu log-uniform on [1e-300, 1e300]
_RADII = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
# --a log-uniform on [1e-2, 1e3]
_SUPPORTS = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)
_PROFILES = st.sampled_from(["linear-ramp", "poly-vanish", "bump", "exp-decay", "one-jump"])


class TestErrorContractProperties:
    @_FUZZ
    @given(d=st.integers(2, 20), lam=st.floats(0.0, 1e3), chi=st.floats(0.0, 1e3))
    def test_phi(self, d, lam, chi):
        _assert_contract(["phi", "--d", str(d), "--lambda", repr(lam), "--chi", repr(chi)])

    @_FUZZ
    @given(d=st.integers(1, 20), lam=st.floats(0.0, 1e300))
    def test_cfunc(self, d, lam):
        _assert_contract(["cfunc", "--d", str(d), "--lambda", repr(lam)])

    @_FUZZ
    @given(method=st.sampled_from(["closed", "recursion"]),
           d=st.sampled_from(range(1, 22, 2)),
           M=st.floats(0.0, 1e300, exclude_min=True),
           chi=st.floats(0.0, 10.0, exclude_min=True))
    def test_kernel(self, method, d, M, chi):
        _assert_contract(["kernel", "--d", str(d), "--M", repr(M), "--chi", repr(chi),
                          "--method", method])

    @_FUZZ
    @given(action=st.sampled_from(["forward", "inverse", "parseval", "mehler-fock"]),
           d=st.integers(1, 7), R=_RADII, f=_PROFILES, mu=_RADII, a=_SUPPORTS)
    def test_transform(self, action, d, R, f, mu, a):
        _assert_contract(["transform", "--d", str(d), "--R", repr(R), "--action", action,
                          "--f", f, "--a", repr(a), "--lambda", "0:5:9", "--chi", "0.5",
                          "--mu", repr(mu)])

    @_FUZZ
    @given(d=st.integers(1, 3), f=_PROFILES, a=_SUPPORTS,
           lam_max=st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))
    def test_forward(self, d, f, a, lam_max):
        # the band up to 1e6: every route of d <= 3 answers or refuses at the
        # node cap of its moments
        _assert_contract(["transform", "--d", str(d), "--action", "forward", "--f", f,
                          "--a", repr(a), "--lambda", f"0:{lam_max!r}:9"])

    @_FUZZ
    @given(d=st.integers(2, 7), R=_RADII, f=_PROFILES, a=_SUPPORTS)
    def test_converge(self, d, R, f, a):
        _assert_contract(["converge", "--d", str(d), "--R", repr(R), "--f", f, "--a", repr(a),
                          "--schedule", "5,10,20", "--format", "csv"])

    @_FUZZ
    @given(mode=st.sampled_from(["bessel", "density"]), d=st.integers(1, 20), R=_RADII,
           Rgrid=_RADII)
    def test_limits(self, mode, d, R, Rgrid):
        _assert_contract(["limits", "--mode", mode, "--d", str(d), "--R", repr(R),
                          "--Rgrid", repr(Rgrid)])
