import inspect
import math
import shlex
import shutil

import numpy as np
import pytest

from boxweights import (
    ClassKind,
    GridMeasure,
    WeightGrid,
    naive_characteristic,
    power_weight_grid,
    theorem_conclusion_check,
    write_grid,
)
from boxweights.bellman import refinement_gaps
from boxweights.cli import DEFAULTS, _text, main
from boxweights.grids import uniform_measure

from conftest import FIXTURE_DIR, MALFORMED_FILES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_value_formatter():
    # numpy 2 scalars repr as np.float64(...), so a float is written as repr(float(v))
    values = (None, 0.1, np.float64(0.1), np.float32(0.5), 1e-300, 3, np.int64(3), "0:2;1:3", True)
    assert [_text(v) for v in values] == ["", "0.1", "0.1", "0.5", "1e-300", "3", "3", "0:2;1:3", "True"]


class TestExponentsCommand:
    def test_muckenhoupt_example(self, capsys):
        code, out, _ = run(
            capsys, "exponents", "--class", "ap", "--p", "2", "--Q", "1.3333333333"
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["a_lower"]) == pytest.approx(1.5, abs=1e-8)
        assert float(fields["rh_upper"]) == pytest.approx(2.0, abs=1e-8)

    def test_reverse_holder_example(self, capsys):
        code, out, _ = run(
            capsys, "exponents", "--class", "rh", "--p", "2", "--Q", "1.1547005384"
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["a_lower"]) == pytest.approx(2.0, abs=1e-5)
        assert float(fields["rh_upper"]) == pytest.approx(3.0, abs=1e-5)

    def test_q_one_is_precondition_error(self, capsys):
        code, _, err = run(capsys, "exponents", "--class", "ap", "--p", "2", "--Q", "1")
        assert code == 2
        assert "must exceed 1" in err

    def test_csv_written(self, capsys, tmp_path):
        path = tmp_path / "exp.csv"
        code, _, _ = run(
            capsys,
            "exponents", "--class", "ap", "--p", "2", "--Q", "2", "--csv", str(path),
        )
        assert code == 0
        assert path.read_text().splitlines()[:6] == [
            "# boxweights 0.1.0",
            "# param Q=2.0",
            "# param class=ap",
            "# param command=exponents",
            "# param p=2.0",
            "class,p,Q,s_minus,s_plus,a_lower,rh_upper",
        ]


class TestCharacteristicCommand:
    def test_two_cell_fixture(self, capsys, tmp_path):
        grid = tmp_path / "two.txt"
        write_grid(grid, uniform_measure(2), WeightGrid(np.array([1.0, 4.0])))
        code, out, _ = run(
            capsys, "characteristic", "--class", "ap", "--p", "2", "--grid", str(grid)
        )
        assert code == 0
        assert "value=1.5625" in out
        assert "argmax=0:2" in out

    def test_constant_fixture(self, capsys, tmp_path):
        grid = tmp_path / "const.txt"
        code, _, _ = run(
            capsys,
            "make-grid", "--generator", "constant", "--cells", "6",
            "--value", "3.5", "--out", str(grid),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "characteristic", "--class", "rh", "--p", "2", "--grid", str(grid)
        )
        assert code == 0
        assert "value=1.0" in out

    def test_power_fixture_rh(self, capsys, tmp_path):
        grid = tmp_path / "power.txt"
        run(
            capsys,
            "make-grid", "--generator", "power", "--alpha", "1", "--cells", "4096",
            "--out", str(grid),
        )
        code, out, _ = run(
            capsys, "characteristic", "--class", "rh", "--p", "2", "--grid", str(grid)
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["value"]) == pytest.approx(2.0 / math.sqrt(3.0), rel=0.01)

    @pytest.mark.parametrize("shape", [(3, 4, 2), (2, 3, 1, 3)])
    def test_multi_dimensional_grid(self, capsys, tmp_path, shape):
        rng = np.random.default_rng(41)
        bps = tuple(np.sort(rng.uniform(0.0, 1.0, m + 1)) for m in shape)
        measure = GridMeasure(bps, rng.uniform(0.1, 1.0, shape))
        weight = WeightGrid(rng.uniform(0.5, 3.0, shape))
        grid = tmp_path / "cube.txt"
        write_grid(grid, measure, weight)
        code, out, _ = run(
            capsys, "characteristic", "--class", "rh", "--p", "2.5", "--grid", str(grid)
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        value, box, count = naive_characteristic(measure, weight, ClassKind.REVERSE_HOLDER, 2.5)
        assert float(fields["value"]) == value
        assert fields["argmax"] == str(box)
        assert int(fields["boxes_scanned"]) == count


class TestSharpnessCommand:
    def test_table_and_determinism(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "sharpness", "--class", "ap", "--p", "2", "--Q", "1.3333333333",
            "--side", "minus", "--cells", "256,1024",
        ]
        code, _, _ = run(capsys, *args, "--out", str(out1))
        assert code == 0
        code, _, _ = run(capsys, *args, "--out", str(out2))
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "cells,critical_q,critical_value,inside_q,inside_value"
        assert len(rows) == 3
        # divergent column grows with refinement
        first = rows[1].split(",")
        second = rows[2].split(",")
        assert float(second[2]) > float(first[2])

    def test_prints_gaps_and_increment_ratios(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        args = ["sharpness", "--class", "ap", "--p", "2", "--Q", "1.3333333333", "--side", "minus"]
        code, text, _ = run(capsys, *args, "--cells", "64,128,256,512", "--out", str(out))
        assert code == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        lines = text.splitlines()
        for label, col, line in (("critical", 2, lines[-2]), ("inside", 4, lines[-1])):
            gaps, ratios = refinement_gaps([float(r[col]) for r in rows])
            assert len(gaps) == 3 and len(ratios) == 2
            assert line == (
                f"{label}: rel gaps {['%.4f' % g for g in gaps]}, "
                f"increment ratios {['%.3f' % r for r in ratios]}"
            )

    def test_one_table_set_per_grid(self, capsys, tmp_path, table_builds):
        args = ["sharpness", "--class", "rh", "--p", "2", "--Q", "1.5", "--side", "plus"]
        code, _, _ = run(capsys, *args, "--cells", "64,128,256", "--out", str(tmp_path / "s.csv"))
        assert code == 0
        # the critical and the inside scan share the tables of their grid
        assert [m.shape for m in table_builds] == [(64,), (128,), (256,)]

    def test_near_unit_bound_gives_near_constant_columns(self, capsys, tmp_path):
        """Q near 1: the inside column is near 1, the critical one only barely grows.

        The extremal weight is w = x**a on N uniform cells, each cell value
        v_j the exact average of x**a over [(j-1)/N, j/N].  The critical
        exponent is q = 1 + a, so the dual power is v**(-1/a), the discrete
        image of x**(-1), which is not integrable at 0: the critical column
        is unbounded in N for every Q > 1, however close to 1.  It grows like
        (ln N)**a, squeezed between two closed forms, with c = (1+a)**(1/a)
        (so c**a = 1 + a, and the first cell gives v_1**(-1/a) = N*c exactly):

        * lower, the full box: x**a is concave, so v_j <= ((j-1/2)/N)**a and
          v_j**(-1/a) >= N/(j-1/2) for j >= 2, giving
          value >= (c + sum_{j=2..N} 1/(j-1/2))**a / (1+a).
        * upper, any box of cells 1..k touching the origin: t**(-1/a) is
          convex, so v_j**(-1/a) <= N*ln(j/(j-1)) for j >= 2; with
          <v> = (k/N)**a/(1+a) this gives (c + ln k)**a/(1+a), largest at k = N.
        * upper, any box of cells i+1..k with i >= 1: by the same convexity its
          value is at most the continuum characteristic of x**a on
          [i/N, k/N], which by scaling is F(r) on [r, 1] with r = i/k >= 1/k.
          Put L = ln(1/r) <= ln N and s = r*L/(1-r) = L/(e**L - 1) <= 1; then
          (1+a)*F(r) = A * (L/(1-r))**a with A = (1-r**(1+a))/(1-r) <= 1+a*s
          (from r**a >= 1 - a*L), and L/(1-r) = L + s.  Since (1+a*s)**(1/a)
          is convex in s for a <= 1, A**(1/a) <= 1 + (c-1)*s, hence
          A**(1/a) * (L+s) <= L + s + (c-1)*s*(L+s) <= L + c, because
          s*(L+s) = ((L/2)/sinh(L/2))**2 <= 1.  So F(r) <= (c + L)**a/(1+a),
          under the origin-box bound.

        At N = 256 the envelope is 4.5e-5 wide around a value of 1.0112; the
        lower bound already exceeds 1.002 at N = 2, so no exact scan can put
        this column within 1e-3 of 1.
        The slack of 1e-9 relative covers rounding in the cell values,
        magnified 1/a = 100 times by the dual power.
        """
        out = tmp_path / "flat.csv"
        code, _, _ = run(
            capsys,
            "sharpness", "--class", "ap", "--p", "2", "--Q", "1.0001",
            "--side", "minus", "--cells", "256", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        params = dict(
            l.removeprefix("# param ").split("=", 1)
            for l in lines
            if l.startswith("# param ")
        )
        row = [l for l in lines if not l.startswith("#")][1]
        cells, _, critical_value, _, inside_value = row.split(",")
        assert float(inside_value) == pytest.approx(1.0, abs=1e-3)

        n = int(cells)
        a = float(params["alpha"])
        assert float(params["critical_q"]) == pytest.approx(1.0 + a, rel=1e-12)
        c = (1.0 + a) ** (1.0 / a)
        harmonic = math.fsum(1.0 / (j - 0.5) for j in range(2, n + 1))
        lower = (c + harmonic) ** a / (1.0 + a)
        upper = (c + math.log(n)) ** a / (1.0 + a)
        slack = 1e-9
        assert lower * (1.0 - slack) <= float(critical_value) <= upper * (1.0 + slack)
        assert float(critical_value) > float(inside_value)


    @pytest.mark.parametrize(
        "klass, side, flag, error",
        [("ap", "minus", "--critical-q", "Muckenhoupt exponent must exceed 1, got 0.0"),
         ("ap", "minus", "--inside-q", "Muckenhoupt exponent must exceed 1, got 0.0"),
         ("rh", "plus", "--critical-q", "Reverse Holder exponent must be >= 1, got 0.0"),
         ("rh", "plus", "--inside-q", "Reverse Holder exponent must be >= 1, got 0.0")],
    )
    def test_zero_exponent_is_refused_not_defaulted(self, capsys, klass, side, flag, error):
        code, _, err = run(
            capsys, "sharpness", "--class", klass, "--p", "2", "--Q", "1.5", "--side", side,
            "--cells", "64", flag, "0",
        )
        assert code == 2
        assert err == f"error: {error}\n"


class TestSplitCommand:
    def test_uniform_trace(self, capsys, tmp_path):
        grid = tmp_path / "u.txt"
        write_grid(grid, uniform_measure(8), WeightGrid(np.ones(8)))
        trace = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "split", "--class", "ap", "--p", "2", "--grid", str(grid),
            "--Q", "1.0001", "--levels", "3", "--trace", str(trace),
        )
        assert code == 0
        rows = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
        header, body = rows[0], rows[1:]
        assert header.split(",")[:3] == ["level", "box", "axis"]
        assert len(body) == 15
        ratios = {r.split(",")[4] for r in body if r.split(",")[4]}
        assert ratios == {"0.5"}

    def test_trace_rows_cover_all_nodes(self, capsys, tmp_path):
        # one row per node, breadth first; leaves leave axis, breakpoint,
        # ratio and segment_max empty
        grid = tmp_path / "u.txt"
        write_grid(grid, uniform_measure(8), WeightGrid(np.ones(8)))
        trace = tmp_path / "trace.csv"
        code, _, _ = run(
            capsys,
            "split", "--class", "ap", "--p", "2", "--grid", str(grid),
            "--Q", "1.0001", "--Q1", "1.05", "--levels", "3", "--trace", str(trace),
        )
        assert code == 0
        lines = [l for l in trace.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "level,box,axis,breakpoint,ratio,x1,x2,segment_max,diameter"
        rows = [dict(zip(lines[0].split(","), l.split(","))) for l in lines[1:]]
        assert len(rows) == 2**4 - 1
        assert [r["level"] for r in rows] == ["0"] + ["1"] * 2 + ["2"] * 4 + ["3"] * 8
        leaf_rows = [r for r in rows if r["axis"] == ""]
        assert len(leaf_rows) == 8
        assert all(r["level"] == "3" for r in leaf_rows)
        for r in leaf_rows:
            assert r["breakpoint"] == r["ratio"] == r["segment_max"] == ""
            assert r["x1"] and r["x2"] and r["diameter"]
        assert rows[0]["box"] == "0:8" and rows[0]["breakpoint"] == "0.5"

    def test_infeasible_exit_code(self, capsys, tmp_path):
        grid = tmp_path / "skew.txt"
        measure = GridMeasure(
            (np.linspace(0, 1, 5),), np.array([0.7, 0.1, 0.1, 0.1])
        )
        write_grid(grid, measure, WeightGrid(np.ones(4)))
        code, _, err = run(
            capsys,
            "split", "--class", "ap", "--p", "2", "--grid", str(grid),
            "--Q", "1.5", "--c", "0.4", "--levels", "2",
        )
        assert code == 4
        assert "best ratio" in err

    def test_characteristic_above_bound_is_precondition(self, capsys, tmp_path):
        grid = tmp_path / "two.txt"
        write_grid(grid, uniform_measure(2), WeightGrid(np.array([1.0, 4.0])))
        code, _, err = run(
            capsys,
            "split", "--class", "ap", "--p", "2", "--grid", str(grid),
            "--Q", "1.2", "--levels", "1",
        )
        assert code == 2
        assert "exceeds" in err


    @pytest.mark.parametrize(
        "flag, error",
        [("--Q", "grid characteristic 1.290598104075477 exceeds the requested bound Q=0.0"),
         ("--Q1", "need Q1 > Q > 1, got Q=1.290598104075477, Q1=0.0")],
    )
    def test_zero_bound_is_refused_not_defaulted(self, capsys, tmp_path, flag, error):
        grid = tmp_path / "w.txt"
        write_grid(grid, *power_weight_grid(0.5, 64))
        code, _, err = run(
            capsys, "split", "--class", "ap", "--p", "2", "--grid", str(grid), "--levels", "2", flag, "0",
        )
        assert code == 2
        assert err == f"error: {error}\n"

    def test_one_table_set(self, capsys, tmp_path, table_builds):
        # the Q check and the tree read the same mass, w and w**s2 tables
        grid = tmp_path / "w.txt"
        write_grid(grid, *power_weight_grid(0.5, 64))
        code, _, _ = run(
            capsys,
            "split", "--class", "ap", "--p", "2", "--grid", str(grid),
            "--Q", "1.3333334", "--Q1", "1.4", "--levels", "4",
        )
        assert code == 0
        assert [m.shape for m in table_builds] == [(64,)]

    def test_lost_moment_cell_is_named(self, capsys, tmp_path):
        # w**10 underflows in every cell; characteristic rescales w, the
        # splitter does not and says so
        grid = tmp_path / "tiny.txt"
        weight = WeightGrid(np.random.default_rng(0).uniform(1.0, 2.0, 64) * 1e-40)
        write_grid(grid, uniform_measure(64), weight)
        code, _, err = run(
            capsys,
            "split", "--class", "rh", "--p", "10", "--grid", str(grid),
            "--Q", "3", "--Q1", "3.5", "--levels", "3",
        )
        assert code == 2
        assert "cell moment of w**10.0 is 0.0 at positive-mass cell (0,)" in err


class TestBellmanVerifyCommand:
    def test_builtin_linear_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "bellman-verify", "--class", "ap", "--p", "2", "--Q", "2",
            "--candidate", "builtin:linear",
        )
        assert code == 0
        assert "verdict=pass" in out
        assert "c_hat=1" in out

    def test_negative_control_table(self, capsys, tmp_path):
        report = tmp_path / "report.csv"
        code, out, _ = run(
            capsys,
            "bellman-verify", "--class", "ap", "--p", "2", "--Q", "2",
            "--candidate", str(FIXTURE_DIR / "candidate_control_x13.txt"),
            "--x1-range", "0.5,2.0", "--segments", "60",
            "--report", str(report),
        )
        assert code == 0
        assert "verdict=fail" in out
        assert "violation at lam" in out
        text = report.read_text()
        assert "violation" in text

    def test_shipped_majorant_passes_at_lattice_tolerance(self, capsys):
        code, out, _ = run(
            capsys,
            "bellman-verify", "--class", "ap", "--p", "2", "--Q", "2",
            "--candidate", str(FIXTURE_DIR / "candidate_ap_p2_r12_Q2.txt"),
            "--x1-range", "0.5,2.0", "--segments", "200", "--tol", "1e-3",
        )
        assert code == 0
        assert "verdict=pass" in out


class TestConclusionCheckCommand:
    def test_power_weight_probe(self, capsys, tmp_path):
        out_csv = tmp_path / "cc.csv"
        code, out, _ = run(
            capsys,
            "conclusion-check", "--class", "ap", "--p", "2",
            "--Q", "1.3333333334", "--q", "1.5", "--alpha", "0.5",
            "--cells", "256", "--levels", "2", "--out", str(out_csv),
        )
        assert code == 0
        assert "verdict=divergent-trend" in out
        rows = [l for l in out_csv.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "cells,value"
        assert rows[-1].startswith("verdict")

    def test_grid_file_param_block(self, capsys, tmp_path, monkeypatch):
        # the grid path stands for --alpha and --cells, which are left out
        monkeypatch.chdir(tmp_path)
        write_grid("g.txt", *power_weight_grid(0.5, 16))
        code, _, _ = run(
            capsys,
            "conclusion-check", "--class", "ap", "--p", "2", "--Q", "1.3333333334", "--q", "1.5",
            "--grid", "g.txt", "--levels", "2", "--out", "cc.csv",
        )
        assert code == 0
        assert (tmp_path / "cc.csv").read_text().splitlines()[:13] == [
            "# boxweights 0.1.0",
            "# param Q=1.3333333334",
            "# param class=ap",
            "# param command=conclusion-check",
            "# param grid=g.txt",
            "# param levels=2",
            "# param p=2.0",
            "# param probe_class=ap",
            "# param q=1.5",
            "# param refine_factor=4",
            "# param stability_rtol=0.01",
            "cells,value",
            "16,1.4899739909026695",
        ]

    def test_requires_grid_or_alpha(self, capsys):
        code, _, err = run(
            capsys,
            "conclusion-check", "--class", "ap", "--p", "2",
            "--Q", "2", "--q", "1.5",
        )
        assert code == 2
        assert "provide either" in err


    def test_refine_defaults_are_the_library_defaults(self):
        params = inspect.signature(theorem_conclusion_check).parameters
        assert DEFAULTS["refine_factor"] == params["refine_factor"].default
        assert DEFAULTS["refine_levels"] == params["levels"].default


class TestExportCsv:
    def test_cell_table(self, capsys, tmp_path):
        # one row per cell: index and bounds per axis, then mass and value
        grid = tmp_path / "g.txt"
        write_grid(grid, *power_weight_grid(1.0, 4))
        out_csv = tmp_path / "g.csv"
        code, out, _ = run(capsys, "export-csv", "--grid", str(grid), "--out", str(out_csv))
        assert code == 0
        assert out == f"wrote {out_csv}\n"
        lines = out_csv.read_text().splitlines()
        assert lines[:2] == ["# boxweights 0.1.0", f"# param grid={grid}"]
        assert lines[2] == "i0,lo0,hi0,mass,value"
        assert len(lines) == 7
        assert lines[3] == "0,0.0,0.25,0.25,0.125"

    def test_round_trip(self, capsys, tmp_path):
        grid = tmp_path / "g.txt"
        run(capsys, "make-grid", "--generator", "power", "--alpha", "1",
            "--cells", "4", "--out", str(grid))
        out_csv = tmp_path / "g.csv"
        code, _, _ = run(capsys, "export-csv", "--grid", str(grid), "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[-1].split(",")[-1] == "0.875"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "export-csv", "--grid", "/no/such/file", "--out", "/tmp/x.csv")
        assert code == 2


@pytest.mark.parametrize(
    "flag, command",
    [
        ("--cells", "sharpness --class ap --p 2 --Q 1.3 --side minus --cells 256,abc"),
        ("--x1-range", "bellman-verify --class ap --p 2 --Q 2 --candidate builtin:linear --x1-range 1,2,3"),
        ("--candidate", "bellman-verify --class ap --p 2 --Q 2 --candidate builtin:power:abc"),
    ],
    ids=["cells", "x1-range", "candidate"],
)
def test_malformed_option_value_exits_2(capsys, flag, command):
    code, out, err = run(capsys, *shlex.split(command))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: bad {flag} ")


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(capsys, tmp_path, case):
    kind, text, _ = MALFORMED_FILES[case]
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    if kind == "grid":
        command = ["characteristic", "--class", "ap", "--p", "2", "--grid", str(path)]
    else:
        command = ["bellman-verify", "--class", "ap", "--p", "2", "--Q", "2", "--candidate", str(path)]
    code, out, err = run(capsys, *command)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# Golden outputs of grids of more than one axis, written by the CLI before
# every output went through one writer.  Each command runs in a fresh
# directory holding the two grid files, with the same relative paths.
MULTI_AXIS = FIXTURE_DIR / "multi_axis"
MULTI_AXIS_COMMANDS = {
    "export-csv-2d": ("export-csv --grid grid2d.txt --out cells2d.csv", "cells2d.csv"),
    "export-csv-3d": ("export-csv --grid grid3d.txt --out cells3d.csv", "cells3d.csv"),
    "split-2d": ("split --class ap --p 2 --grid grid2d.txt --levels 3 --trace trace2d.csv", "trace2d.csv"),
    "characteristic-3d": ("characteristic --class rh --p 1.5 --grid grid3d.txt --csv char3d.csv", "char3d.csv"),
}


@pytest.mark.parametrize("name", sorted(MULTI_AXIS_COMMANDS))
def test_multi_axis_outputs_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    command, written = MULTI_AXIS_COMMANDS[name]
    for grid in ("grid2d.txt", "grid3d.txt"):
        shutil.copy(MULTI_AXIS / grid, tmp_path / grid)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == (MULTI_AXIS / f"{name}.stdout").read_text()
    assert (tmp_path / written).read_bytes() == (MULTI_AXIS / written).read_bytes()


# One process, many main() calls: the parser is built once and reused, so
# every call, an error exit included, must print and write what a call with
# a freshly built parser does.
PARSER_REUSE_COMMANDS = [
    "make-grid --generator power --alpha 0.5 --cells 16 --out g.txt",
    "characteristic --class ap --p 2 --grid g.txt --csv c.csv",
    "characteristic --class ap --grid g.txt",  # missing --p: argparse exits 2
    "exponents --class ap --p 2 --Q 1",  # precondition error: exit code 2
    "characteristic --class rh --p 1.5 --grid g.txt --csv c.csv",
    "export-csv --grid g.txt --out cells.csv",
    "sharpness --class ap --p 2 --Q 1.3 --side minus --cells 16,32 --out s.csv",
]


def _call_all(capsys, monkeypatch, workdir):
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    results = []
    for command in PARSER_REUSE_COMMANDS:
        try:
            code = main(shlex.split(command))
        except SystemExit as exc:
            code = ("exit", exc.code)
        out = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        results.append((command, code, out.out, out.err, files))
    return results


def test_parser_is_built_once_and_reused(tmp_path, monkeypatch, capsys):
    from boxweights import cli

    assert cli.build_parser() is cli.build_parser()
    cached = [_call_all(capsys, monkeypatch, tmp_path / f"cached{i}") for i in range(2)]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = _call_all(capsys, monkeypatch, tmp_path / "fresh")
    assert cached[0] == cached[1] == fresh
    codes = [r[1] for r in fresh]
    assert codes == [0, 0, ("exit", 2), 2, 0, 0, 0]
    assert "required: --p" in fresh[2][3] and "must exceed 1" in fresh[3][3]
