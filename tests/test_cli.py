import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from entcert import BipartiteShape, ppt_min_eigenvalue
from entcert.cli import _EXIT, _build_parser, main
from entcert.dmfile import (
    DmParseError,
    format_density,
    format_scan_csv,
    parse_density,
    read_density,
    write_density,
)
from entcert.search import SCAN_FAMILIES, SearchConfig, scan_1d
from entcert.states import FAMILY_PARAMS
from entcert.witness import PptVerdict, Verdict, valid_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_shipped_files(data_dir):
    files = sorted(data_dir.glob("*.dm"))
    assert files, "shipped example files missing"
    for path in files:
        text = path.read_text(encoding="ascii")
        assert format_density(parse_density(text)) == text


def test_make_state_and_parse_back(tmp_path, capsys):
    out = tmp_path / "w.dm"
    code, _, _ = run(capsys, "make-state", "werner", "--a", "0.5", "--out", str(out))
    assert code == 0
    rho = read_density(out)
    assert abs(rho.mat.trace() - 1) < 1e-12
    assert rho.shape == BipartiteShape(2, 2)
    # rewrite is byte-identical (canonical float repr)
    assert format_density(rho) == out.read_text(encoding="ascii")


def test_make_state_horodecki_ppt_roundtrip(tmp_path, capsys):
    out = tmp_path / "h.dm"
    code, _, _ = run(capsys, "make-state", "horodecki33", "--alpha", "3.5", "--out", str(out))
    assert code == 0
    assert ppt_min_eigenvalue(read_density(out)) >= -1e-10


def test_make_state_rejects_bad_params(tmp_path, capsys):
    code, _, err = run(capsys, "make-state", "werner", "--a", "1.5", "--out", str(tmp_path / "x.dm"))
    assert code == 3
    assert "must be in [0, 1]" in err


def test_detect_exit_codes_cover_verdicts(tmp_path, capsys):
    w = tmp_path / "w.dm"
    run(capsys, "make-state", "werner", "--a", "0.5", "--out", str(w))
    code, out, _ = run(capsys, "detect", str(w))
    assert code == 0
    assert "entangled_certified" in out
    assert abs(float(out.split("best_f:")[1].splitlines()[0]) - 0.1875) < 1e-9

    mm = tmp_path / "mm.dm"
    run(capsys, "make-state", "iso23", "--a", "0", "--out", str(mm))
    code, out, _ = run(capsys, "detect", str(mm))
    assert code == 2
    assert "separable" in out

    h = tmp_path / "h.dm"
    run(capsys, "make-state", "horodecki33", "--alpha", "3.5", "--out", str(h))
    code, out, _ = run(capsys, "detect", str(h))
    assert code == 1
    assert "inconclusive" in out


def test_cli_takes_search_defaults_and_exit_codes_from_one_place():
    # --seed and --restarts default to SearchConfig's own values, and one
    # table maps every verdict of either enum to its documented exit code.
    args = _build_parser().parse_args(["detect", "x.dm"])
    assert (args.seed, args.restarts) == (SearchConfig().seed, SearchConfig().restarts)
    assert {v: _EXIT[v] for v in Verdict} == {
        Verdict.ENTANGLED_CERTIFIED: 0, Verdict.INCONCLUSIVE: 1, Verdict.SEPARABLE: 2}
    assert {v: _EXIT[v] for v in PptVerdict} == {
        PptVerdict.ENTANGLED: 0, PptVerdict.INCONCLUSIVE: 1, PptVerdict.SEPARABLE: 2}


def test_detect_optimize_flips_iso23(tmp_path, capsys):
    iso = tmp_path / "iso.dm"
    run(capsys, "make-state", "iso23", "--a", "1", "--out", str(iso))
    code, out, _ = run(capsys, "detect", str(iso))
    assert code == 1  # identity unitaries miss it
    code, out, _ = run(
        capsys, "detect", str(iso), "--optimize", "--restarts", "6", "--seed", "1"
    )
    assert code == 0


def test_detect_optimize_weakly_entangled_shipped_state(data_dir, capsys):
    # just past the a = 1/4 threshold: optimum is only ~6.8e-3
    path = data_dir / "iso23_0.26.dm"
    assert run(capsys, "detect", str(path))[0] == 1
    code, out, _ = run(capsys, "detect", str(path), "--optimize", "--json")
    assert code == 0
    assert json.loads(out)["best_f"] > 1e-9


def test_detect_json_contains_full_report(tmp_path, capsys):
    w = tmp_path / "w.dm"
    run(capsys, "make-state", "werner", "--a", "0.5", "--out", str(w))
    code, out, _ = run(capsys, "detect", str(w), "--json")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {
        "verdict", "best_f", "best_pair", "best_params", "y_values",
        "ppt_min", "ppt_verdict", "evaluations",
    }
    assert rec["verdict"] == "entangled_certified"
    assert abs(rec["best_f"] - 0.1875) < 1e-9
    assert rec["best_pair"] == [1, 2]
    assert set(rec["y_values"]) == {"y1", "y2", "y3", "f"}
    assert len(rec["best_params"]["theta_a"]) == 3


def test_detect_pair_flag(tmp_path, capsys):
    h = tmp_path / "h.dm"
    run(capsys, "make-state", "horodecki33", "--alpha", "5", "--out", str(h))
    code, out, _ = run(capsys, "detect", str(h), "--pair", "2", "3", "--json")
    rec = json.loads(out)
    assert rec["best_pair"] == [2, 3]
    code, _, err = run(capsys, "detect", str(h), "--pair", "1", "7")
    assert code == 4
    assert "not valid" in err


def test_ppt_command(tmp_path, capsys):
    w1 = tmp_path / "w1.dm"
    run(capsys, "make-state", "werner", "--a", "1", "--out", str(w1))
    code, out, _ = run(capsys, "ppt", str(w1))
    assert code == 0
    assert abs(float(out.split("ppt_min_eigenvalue:")[1].splitlines()[0]) - (-0.5)) < 1e-10

    boundary = tmp_path / "wb.dm"
    run(capsys, "make-state", "werner", "--a", str(1 / 3), "--out", str(boundary))
    code, out, _ = run(capsys, "ppt", str(boundary))
    assert abs(float(out.split("ppt_min_eigenvalue:")[1].splitlines()[0])) < 1e-10

    mm = tmp_path / "mm.dm"
    run(capsys, "make-state", "iso23", "--a", "0", "--out", str(mm))
    assert run(capsys, "ppt", str(mm))[0] == 2

    h45 = tmp_path / "h45.dm"
    run(capsys, "make-state", "horodecki33", "--alpha", "4.5", "--out", str(h45))
    code, out, _ = run(capsys, "ppt", str(h45))
    assert code == 0  # NPT, free entangled
    assert float(out.split("ppt_min_eigenvalue:")[1].splitlines()[0]) < 0


def test_basis_command(tmp_path, capsys):
    out = tmp_path / "b2.txt"
    code, _, _ = run(capsys, "basis", "--dim", "2", "--out", str(out))
    assert code == 0
    text = out.read_text(encoding="ascii").splitlines()
    assert text[0] == "ggm v1" and text[1] == "dim 2"
    assert text[2] == "s:1,2" and text[5] == "a:1,2" and text[8] == "d:1"
    # blocks are sigma_x, sigma_y, diag(1,-1)
    assert text[3].split() == ["0.0,0.0", "1.0,0.0"]
    assert text[6].split() == ["0.0,0.0", "0.0,-1.0"]
    assert text[9].split() == ["1.0,0.0", "0.0,0.0"]

    code, _, _ = run(capsys, "basis", "--dim", "1", "--out", str(tmp_path / "bad.txt"))
    assert code == 3


def test_basis_dim3_traceless(tmp_path, capsys):
    out = tmp_path / "b3.txt"
    run(capsys, "basis", "--dim", "3", "--out", str(out))
    lines = out.read_text(encoding="ascii").splitlines()
    labels = [l for l in lines if ":" in l and "," not in l.split(":")[0]]
    assert len(labels) == 8
    # re-parse each block and check the trace
    idx = 2
    while idx < len(lines):
        assert ":" in lines[idx]
        block = lines[idx + 1 : idx + 4]
        mat = np.array(
            [[complex(*map(float, tok.split(","))) for tok in row.split()] for row in block]
        )
        assert abs(np.trace(mat)) < 1e-14
        idx += 4


def test_scan_deterministic_and_correct(tmp_path, capsys):
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["scan", "iso23", "--param-steps", "11", "--p-steps", "11"]
    assert run(capsys, *args, "--out", str(out1))[0] == 0
    assert run(capsys, *args, "--out", str(out2))[0] == 0
    b1 = out1.read_bytes()
    assert b1 == out2.read_bytes()
    lines = b1.decode("ascii").splitlines()
    assert lines[0] == "param,p,f"
    assert len(lines) == 1 + 11 * 11
    for line in lines[1:]:
        a, p, f = map(float, line.split(","))
        ref = (1 + 2 * a) * (6 * a * np.sin(p) ** 2 - 2 * a - 1) / 9
        assert abs(f - ref) < 1e-9
        # values re-parse to exactly what was written
        assert ",".join(f"{v:.16e}" for v in (a, p, f)) == line


def _per_row_csv(rows) -> str:
    return "".join(["param,p,f\n"] + [f"{a:.16e},{p:.16e},{f:.16e}\n" for a, p, f in rows])


def test_scan_csv_matches_per_row_formatting(tmp_path, capsys):
    """The writer formats each distinct param and p once; the text must equal
    formatting every entry, on real scans and on rows no scan produces."""
    p_values = np.linspace(0.0, np.pi, 101)
    for family, (_, shape) in SCAN_FAMILIES.items():
        params = np.linspace(*FAMILY_PARAMS[family].domain, 101)
        pairs = valid_pairs(shape) if family == "horodecki33" else ((1, 2),)
        texts = {}
        for pair in pairs:
            rows = scan_1d(family, params, p_values, pair)
            texts[pair] = _per_row_csv(rows)
            assert format_scan_csv(rows) == texts[pair], (family, pair)
        out = tmp_path / f"{family}.csv"
        assert run(capsys, "scan", family, "--out", str(out))[0] == 0
        assert out.read_bytes() == texts[(1, 2)].encode("ascii")

    nan_a, nan_b = float("nan"), float("nan")
    odd = [nan_a, nan_b, -nan_a, np.float64("nan"), np.inf, -np.inf, 5e-324, -5e-324,
           np.float64(0.25), 0.25, np.float64(-0.0), 1, 1.0, np.float64(1.0), 2.0**-1074]
    cases = [[], [(nan_a, nan_a, nan_a), (nan_b, nan_a, nan_b), (-nan_a, nan_b, -nan_b)]]
    for col in range(3):
        for zeros in ((0.0, -0.0), (-0.0, 0.0), (np.float64(-0.0), 0.0, -0.0, 0)):
            rows = []
            for z in zeros:
                row = [1.5, 1.5, 1.5]
                row[col] = z
                rows.append(tuple(row))
            cases.append(rows + [(z, z, z) for z in zeros])
    cases.append([(a, p, f) for a in odd for p in odd for f in odd[::4]])
    cases.append([(a, p, a) for a in odd + [0.0, -0.0] for p in (-0.0, 0.0, 0.25, np.float64(0.25))])
    for rows in cases:
        assert format_scan_csv(rows) == _per_row_csv(rows), rows
    assert format_scan_csv([]) == "param,p,f\n"


def test_scan_csv_rejects_rows_that_are_not_triples():
    for rows in ([(1.0, 2.0)], [(1.0, 2.0, 3.0, 4.0)], [(1.0, 2.0, 3.0), (1.0, 2.0)],
                 [(1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0)]):
        with pytest.raises(ValueError):
            format_scan_csv(rows)


def test_scan_rejects_bad_grid(tmp_path, capsys):
    code, _, err = run(
        capsys, "scan", "werner", "--param-min", "-1", "--out", str(tmp_path / "x.csv")
    )
    assert code == 3
    assert "domain" in err
    out = tmp_path / "backwards.csv"
    code, _, err = run(
        capsys, "scan", "werner", "--param-min", "0.5", "--param-max", "0.2", "--out", str(out)
    )
    assert code == 3
    assert err == (
        "entcert scan: error: parameter grid [0.5, 0.2] runs backwards: need param-min <= param-max\n"
    )
    assert not out.exists()
    for pair in (("1", "3"), ("2", "1")):  # no input file is read, so a usage error
        code, _, err = run(capsys, "scan", "werner", "--pair", *pair, "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "level pair" in err
    for steps in (("--param-steps", "0"), ("--p-steps", "1")):
        out = tmp_path / "steps.csv"
        code, _, err = run(capsys, "scan", "werner", *steps, "--out", str(out))
        assert code == 3
        assert err == "entcert scan: error: need param-steps >= 1 and p-steps >= 2\n"
        assert not out.exists()


def test_parse_error_reports_line_and_column(tmp_path, capsys):
    bad = tmp_path / "bad.dm"
    bad.write_text("dm v1\ndims 2 2\n" + "0.25,0.0 0,0 0,0 0,0\n" * 3 + "0,0 0,0 oops 0.25,0\n")
    code, _, err = run(capsys, "detect", str(bad))
    assert code == 4
    assert "line 6" in err and "column 9" in err

    with pytest.raises(DmParseError) as exc_info:
        parse_density("dm v2\n")
    assert exc_info.value.line == 1

    # A byte that is not ASCII is a syntax error at its own line and column,
    # with CRLF line ends and far past the decoder's first chunk too.
    row = "0.25,0.0 0,0 0,0 0,0"
    for name, raw, line, col, byte in (
        ("latin1.dm", b"dm v1\ndims 2 2\n0.25,0\xa8 0,0 0,0 0,0\n", 3, 7, 0xA8),
        ("crlf.dm", b"dm v1\r\ndims 2 2\r\n" + f"{row}\r\n".encode() * 2 + b"0,0 \xff\r\n", 5, 5, 0xFF),
        ("long.dm", b"dm v1\ndims 2 2\n" + f"{row}{' ' * 5000}\n".encode() * 3
         + b"0,0 0,0 0,0 0.25,\xc3\xa9\n", 6, 18, 0xC3),
    ):
        bad = tmp_path / name
        bad.write_bytes(raw)
        with pytest.raises(DmParseError) as exc_info:
            read_density(bad)
        assert (exc_info.value.line, exc_info.value.col) == (line, col), name
        code, _, err = run(capsys, "ppt", str(bad))
        assert code == 4
        assert f"line {line}, column {col}: non-ASCII byte 0x{byte:02x}" in err, name

    # a header asking for more rows than the file has fails before the
    # matrix is allocated (9e6 x 9e6 here), as an input error
    huge = tmp_path / "huge.dm"
    huge.write_text("dm v1\ndims 3000 3000\n1,0\n")
    code, _, err = run(capsys, "ppt", str(huge))
    assert code == 4
    assert "expected 9000000 matrix rows, got 1" in err
    # a file one row short keeps its message and position
    with pytest.raises(DmParseError, match="line 6, column 1: expected 4 matrix rows, got 3"):
        parse_density("dm v1\ndims 2 2\n" + "0.25,0 0,0 0,0 0,0\n" * 3)


_ROWS = ("0.25,0 0,0 0,0 0,0", "0,0 0.25,0 0,0 0,0", "0,0 0,0 0.25,0 0,0", "0,0 0,0 0,0 0.25,0")


def _dm_2x2(row1=_ROWS[0], row2=_ROWS[1]) -> str:
    return "dm v1\ndims 2 2\n" + "\n".join((row1, row2) + _ROWS[2:]) + "\n"


def test_dm_reader_extra_rows_and_line_ends(tmp_path):
    rows, lf = _ROWS, _dm_2x2()
    # a non-blank row past the M*N matrix rows is an error at its own line
    with pytest.raises(DmParseError, match="line 8, column 1: expected 4 matrix rows, found more"):
        parse_density(lf + "\n" + rows[0] + "\n")
    # a malformed row among the matrix rows is reported before an extra row
    for tok in ("oops", "0,0,0", "0,"):
        bad = lf.replace(rows[1], f"0,0 {tok} 0,0 0,0")
        with pytest.raises(DmParseError, match=f"line 4, column 5: expected 're,im' pair, got '{tok}'"):
            parse_density(bad + rows[0] + "\n")
    # CRLF, lone-CR and form-feed line breaks read as the LF file does
    (tmp_path / "lf.dm").write_bytes(lf.encode())
    want = read_density(tmp_path / "lf.dm").mat.tobytes()
    for name, brk in (("crlf", "\r\n"), ("cr", "\r"), ("ff", "\f")):
        path = tmp_path / f"{name}.dm"
        path.write_bytes(lf.replace("\n", brk).encode())
        assert read_density(path).mat.tobytes() == want, name
        path.write_bytes((lf + rows[0] + "\n").replace("\n", brk).encode())
        with pytest.raises(DmParseError, match="line 7, column 1: .* found more"):
            read_density(path)


@pytest.mark.parametrize("text, message, line, col", [
    ("dm v1\n", "missing 'dims M N' line", 2, 1),
    ("dm v1\nsize 2 2\n", "expected 'dims M N'", 2, 1),
    ("dm v1\ndims  2 x\n", "dimensions must be integers", 2, 7),
    ("dm v1\n dims 1 2\n", "dimensions must be >= 2, got 1 2", 2, 7),
    # too many entries: the column of the first extra token
    (_dm_2x2(row1=_ROWS[0] + " 9,9"), "expected 4 entries in row 1, got 5", 3, 20),
    # too few: one past the end of the line
    (_dm_2x2(row2="0,0 0.25,0  0,0"), "expected 4 entries in row 2, got 3", 4, 16),
    (_dm_2x2(row2="0,0 0.25,0 0,1e 0,0"), "bad float in '0,1e'", 4, 12),
])
def test_dm_syntax_errors(text, message, line, col):
    with pytest.raises(DmParseError) as exc_info:
        parse_density(text)
    err = exc_info.value
    assert (str(err), err.line, err.col) == (f"line {line}, column {col}: {message}", line, col)


def test_invalid_density_file_rejected(tmp_path, capsys):
    # valid syntax, not a density matrix (trace 2)
    bad = tmp_path / "trace2.dm"
    bad.write_text(
        "dm v1\ndims 2 2\n"
        "1.0,0.0 0.0,0.0 0.0,0.0 0.0,0.0\n"
        "0.0,0.0 1.0,0.0 0.0,0.0 0.0,0.0\n"
        "0.0,0.0 0.0,0.0 0.0,0.0 0.0,0.0\n"
        "0.0,0.0 0.0,0.0 0.0,0.0 0.0,0.0\n"
    )
    code, _, err = run(capsys, "ppt", str(bad))
    assert code == 4
    assert "trace" in err


def test_missing_file_and_usage_errors(tmp_path, capsys, data_dir):
    assert run(capsys, "detect", str(tmp_path / "nope.dm"))[0] == 4
    assert run(capsys, "frobnicate")[0] == 3
    assert run(capsys, "make-state", "werner", "--out", "x.dm")[0] == 3  # missing --a
    # bad search arguments are usage errors even when the file is fine
    shipped = str(data_dir / "werner_1.0.dm")
    for bad in (("--restarts", "0"), ("--seed", "-1")):
        code, _, err = run(capsys, "detect", shipped, "--optimize", *bad)
        assert code == 3
        assert "must be >= " in err
    # a pair no file can hold is a usage error; one the file cannot hold is not
    for pair in (("2", "1"), ("0", "1"), ("1", "1")):
        for extra in ((), ("--optimize",)):
            code, _, err = run(capsys, "detect", shipped, "--pair", *pair, *extra)
            assert code == 3
            assert "1 <= j < k" in err
        assert run(capsys, "detect", str(tmp_path / "nope.dm"), "--pair", *pair)[0] == 3
    assert run(capsys, "detect", shipped, "--pair", "1", "3")[0] == 4


def _no_room(*args, **kwargs):
    raise MemoryError("no room")


# One rule over every command: a refusal before the command starts reading
# its input file is a usage error, exit 3; from the read on, an input error,
# exit 4. Each row: argv, the function patched to raise MemoryError (or
# None), exit code, exact stderr.
@pytest.mark.parametrize("argv, no_room, code, stderr", [
    ("detect {data}/werner_1.0.dm --seed -1", None, 3,
     "entcert detect: error: seed must be >= 0, got -1\n"),
    # refused before the missing file is opened
    ("detect {tmp}/missing.dm --restarts 0", None, 3,
     "entcert detect: error: restarts must be >= 1, got 0\n"),
    ("scan werner --out {tmp}/s.csv", "entcert.cli.scan_1d", 3,
     "entcert scan: error: no room\n"),
    ("detect {tmp}/non_hermitian.dm", None, 4,
     "entcert: input error: density matrix not Hermitian (deviation 1.000e-03)\n"),
    ("detect {data}/horodecki33_3.5.dm --pair 1 7", None, 4,
     "entcert: input error: level pair (1, 7) is not valid for shape "
     "BipartiteShape(dim_a=3, dim_b=3)\n"),
    ("ppt {data}/werner_1.0.dm", "entcert.dmfile.read_density", 4,
     "entcert: input error: no room\n"),
], ids=["seed", "restarts-missing-file", "scan-no-room", "non-hermitian", "pair-1-7",
        "read-no-room"])
def test_refusals_exit_by_whether_the_read_has_started(
        argv, no_room, code, stderr, tmp_path, data_dir, capsys, monkeypatch):
    (tmp_path / "non_hermitian.dm").write_text(_dm_2x2(row1="0.25,0 0.001,0 0,0 0,0"))
    if no_room:  # never a real allocation: an overcommitting host kills, not refuses
        monkeypatch.setattr(no_room, _no_room)
    args = [a.format(data=data_dir, tmp=tmp_path) for a in argv.split()]
    assert run(capsys, *args) == (code, "", stderr)
    assert not (tmp_path / "s.csv").exists()


def test_console_entry_subprocess(tmp_path):
    out = tmp_path / "w.dm"
    r = subprocess.run(
        [sys.executable, "-m", "entcert", "make-state", "werner", "--a", "0.9", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0
    r = subprocess.run(
        [sys.executable, "-m", "entcert", "detect", str(out)], capture_output=True, text=True
    )
    assert r.returncode == 0
    assert "entangled_certified" in r.stdout


def test_write_density_roundtrip_values(tmp_path):
    from entcert import random_density

    rho = random_density(BipartiteShape(2, 3), seed=99)
    path = tmp_path / "r.dm"
    write_density(rho, path)
    back = read_density(path)
    assert np.array_equal(back.mat, rho.mat)
    assert back.shape == rho.shape


_SCIPY_FREE = """
import contextlib, io, json, sys
if sys.argv[3] == "scipy-first":
    import scipy.optimize
import entcert, entcert.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entcert.cli.main(list(argv))
    return code, out.getvalue()

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

data, tmp = sys.argv[1], sys.argv[2]
codes = [
    run(*argv)[0]
    for argv in (
        ("ppt", data + "/werner_1.0.dm"),
        ("detect", data + "/horodecki33_3.5.dm"),
        ("detect", data + "/iso23_0.26.dm", "--json"),
        ("scan", "werner", "--param-steps", "3", "--p-steps", "5", "--out", tmp + "/s.csv"),
        ("basis", "--dim", "3", "--out", tmp + "/b.txt"),
        ("make-state", "iso23", "--a", "0.5", "--out", tmp + "/i.dm"),
    )
]
before = scipy_modules()
code, report = run("detect", data + "/werner_1.0.dm", "--optimize", "--json")
print(json.dumps({"codes": codes + [code], "before": before,
                  "after": scipy_modules(), "report": report}))
"""


def _scipy_free_run(data_dir, tmp_path, mode):
    """Run _SCIPY_FREE in a fresh interpreter on the package under src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-c", _SCIPY_FREE, str(data_dir), str(tmp_path), mode],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(r.stdout)


def test_no_command_imports_scipy(data_dir, tmp_path):
    # The search's optimizer is entcert's own, so not even a search loads
    # scipy; a process that imported it first gets the same report.
    plain = _scipy_free_run(data_dir, tmp_path, "plain")
    assert plain["before"] == []
    assert plain["after"] == []
    assert plain["codes"] == [0, 1, 1, 0, 0, 0, 0]
    eager = _scipy_free_run(data_dir, tmp_path, "scipy-first")
    assert "scipy.optimize" in eager["before"]
    assert plain["report"] == eager["report"]
