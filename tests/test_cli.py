import hashlib
import math
import re

import pytest

from quadcong import charsum, cli, errors
from quadcong.charsum import clear_tables, table_stats
from quadcong.cli import (
    ExperimentConfig,
    FitResult,
    build_config,
    fit_exponent,
    main,
    nearest_odd_squarefree,
    parse_config_file,
    render_report,
    run,
)
from quadcong.errors import FitError


def read(path):
    with open(path) as fh:
        return fh.read()


def test_fit_exponent_exact_line():
    rows = [(10, 10.0**0.5), (100, 100.0**0.5), (1000, 1000.0**0.5)]
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(0.5, abs=1e-12)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-9)


def test_fit_exponent_known_offset():
    rows = [(q, 3.0 * q**0.7) for q in (11, 101, 1009, 9973)]
    fit = fit_exponent(rows)
    assert fit.slope == pytest.approx(0.7, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)


def test_fit_exponent_guards():
    with pytest.raises(FitError):
        fit_exponent([(10, 1.0), (10, 2.0), (10, 3.0)])  # one distinct q
    with pytest.raises(FitError):
        fit_exponent([(10, 1.0), (20, 2.0)])  # too few
    with pytest.raises(FitError):
        fit_exponent([(10, 1.0), (20, -2.0), (30, 1.0)])  # nonpositive value


def test_nearest_odd_squarefree():
    assert nearest_odd_squarefree(15) == 15
    assert nearest_odd_squarefree(9) == 7  # ties toward smaller
    assert nearest_odd_squarefree(1) == 3
    assert nearest_odd_squarefree(49) == 47


def test_nearest_odd_squarefree_passes_factoring_failures_on(monkeypatch):
    # only even, non-square-free and too-small candidates are skipped: a
    # square-free candidate that cannot be factored is an error, not a gap
    def make_modulus(q):
        if q == 17:
            raise errors.FactoringExhausted(f"Pollard rho found no factor of {q}")
        return real(q)

    real = cli.make_modulus
    monkeypatch.setattr(cli, "make_modulus", make_modulus)
    assert nearest_odd_squarefree(15) == 15
    with pytest.raises(errors.FactoringExhausted, match="no factor of 17"):
        nearest_odd_squarefree(17)


def test_parse_config_file(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("# comment\ncommand=solve\nq=15,21\nsamples=4\n\nseed=z\n")
    cfg = parse_config_file(str(p))
    assert cfg == {"command": "solve", "q": "15,21", "samples": "4", "seed": "z"}
    bad = tmp_path / "bad.conf"
    bad.write_text("command solve\n")
    with pytest.raises(ValueError):
        parse_config_file(str(bad))
    unknown = tmp_path / "unk.conf"
    unknown.write_text("verbosity=3\n")
    with pytest.raises(ValueError):
        parse_config_file(str(unknown))


def test_build_config_precedence(tmp_path):
    p = tmp_path / "c.conf"
    p.write_text("command=solve\nq=15\nsamples=4\nseed=filed\n")
    cfg = build_config(["--config", str(p), "--samples", "9"])
    assert cfg.command == "solve"
    assert cfg.qs == (15,)
    assert cfg.samples == 9  # flag beats file
    assert cfg.seed == "filed"  # file beats default
    cfg2 = build_config(["oracle", "--config", str(p)])
    assert cfg2.command == "oracle"  # positional beats file


def test_build_config_defaults():
    cfg = build_config(["solve"])
    assert cfg.qs == (15, 105, 1155)
    assert cfg.samples == 3
    assert cfg.jobs == 1


def test_build_config_rejects_garbage():
    with pytest.raises(ValueError):
        build_config(["--samples", "3"])  # no command anywhere
    with pytest.raises(ValueError):
        build_config(["solve", "--q-range", "9:3"])
    with pytest.raises(ValueError):
        build_config(["solve", "--jobs", "0"])


def test_main_exit_codes(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["solve", "--q", "15", "--samples", "1", "--out", str(out)]) == 0
    text = read(out)
    assert text.startswith("# quadcong solve")
    assert text.endswith("\n")
    assert main(["solve", "--q", "9"]) == 2  # not square-free
    assert main(["weil-scan", "--q", "15"]) == 2  # not prime
    assert main(["--config", str(tmp_path / "missing.conf")]) == 2
    capsys.readouterr()


def test_unwritable_out_is_a_config_error(tmp_path, capsys):
    # the report is written after the whole run; a path that cannot be
    # written is a configuration error (exit 2), named on one line
    for command, out in (("grid-vanish", tmp_path), ("solve", tmp_path / "missing" / "x.csv")):
        assert main([command, "--q", "15", "--samples", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(out) in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_empty_q_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    assert main(["solve", "--q", "", "--out", str(out)]) == 0
    lines = read(out).strip().splitlines()
    assert lines[-1].startswith("q,")  # header row, no data
    assert all(ln.startswith("#") for ln in lines[:-1])


def test_solve_report_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["solve", "--q", "15,105", "--samples", "2", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert read(a) == read(b)


def test_jobs_do_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["grid-vanish", "--q", "15,21,33,35", "--samples", "3", "--seed", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--jobs", "3", "--out", str(b)]) == 0
    assert read(a) == read(b)


def test_jobs_start_no_more_workers_than_tasks_or_cpus(tmp_path, monkeypatch):
    # a pool starts every worker it is given at once, so --jobs 5000 over 4
    # moduli must ask for no more than 4 (and no more than the CPUs); the pool
    # here records what it is asked for and runs the tasks in this process
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["grid-vanish", "--q", "15,21,33,35", "--samples", "3", "--seed", "4"]
    assert main(argv + ["--out", str(a)]) == 0
    for cpus, want in ((64, 4), (2, 2), (None, 1)):
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(argv + ["--jobs", "5000", "--out", str(b)]) == 0
        assert asked[-1] == want and read(a) == read(b)


def test_weil_scan_columns(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["weil-scan", "--q-range", "3:7", "--samples", "2", "--out", str(out)]) == 0
    lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
    assert lines[0] == "q,p,r,tuple-hash,delta-gcd,sum,bound,ok"
    for ln in lines[1:]:
        parts = ln.split(",")
        assert len(parts) == 8
        q, p, r = int(parts[0]), int(parts[1]), int(parts[2])
        assert q == p and r in (2, 3)
        assert abs(int(parts[5])) <= int(parts[6])
        assert parts[7] == "1"


def _weil_scan_primes(q_range, out):
    clear_tables()
    assert main(["weil-scan", "--q-range", q_range, "--samples", "1", "--out", str(out)]) == 0
    return sorted({int(ln.split(",")[0]) for ln in read(out).splitlines()[4:]})


def _held(d=None):
    """Bytes the table store holds, of every modulus or of d's tables only."""
    return sum(size for (_, m, _), (_, size) in charsum._tables.items() if d in (None, m))


def test_weil_scan_table_cache_stays_bounded(tmp_path):
    # each prime needs three tables' planes (split companion; inert
    # companion, which is the norm form, for the direct grid; the half-width
    # norm table for the norm route), so the store builds each once per
    # prime and holds no more bytes than its cap
    primes = _weil_scan_primes("3:101", tmp_path / "w.csv")
    assert len(primes) == 25
    stats = table_stats()
    assert stats["planes"].builds == 3 * len(primes)
    assert sum(s.bytes for s in stats.values()) == _held() <= charsum.TABLE_BYTES


def test_weil_scan_builds_each_table_once_per_prime_past_the_cap(tmp_path, monkeypatch):
    # each prime's tables together pass the cap, yet they never evict one
    # another: each is built once per prime, and at the end the store holds
    # the last prime's tables and nothing else
    monkeypatch.setattr(charsum, "TABLE_BYTES", 64 << 10)
    primes = _weil_scan_primes("600:700", tmp_path / "w.csv")
    assert len(primes) == 16
    stats = table_stats()
    assert {kind: s.builds for kind, s in stats.items()} == {
        "legendre_planes": 16, "legendre_table": 16, "log_tables": 16, "planes": 48
    }
    assert stats["planes"].evictions > 0
    assert _held() == _held(primes[-1]) > charsum.TABLE_BYTES


def test_weil_scan_csv_frozen(tmp_path):
    # the CSV the shifted-sum kernels feed, byte for byte
    out = tmp_path / "w.csv"
    assert main(["weil-scan", "--q-range", "3:101", "--samples", "2", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "859d702db87939ae7326c703d186ef95c05ed325b41a8ce4ccbafdf8c9bad64e"


DEFAULT_CSV_SHA256 = {
    "solve": "3bd568ec1538d5ea084089c07aeebba7ef5df71c1a9bd6ec0d771e2a6d116ad2",
    "oracle": "ffd54836f1bb876fb75b5280de7ef6b3940bc42f03d04a795cbd133efd8ac718",
    "weil-scan": "12331a9a55b6e36e17b35f220938cdc5818f8d198775a0354e05e541aa79c72c",
    "grid-vanish": "b73c5d47cd0b6ab266abe3b913882bc82d9a67faff3acd955b8de20f259d7579",
    "exponent-fit": "cc13d076a40d23174fdb7c0fb5d8987b8d21146dc71950bb0938b3302c08da23",
    "cop-count": "c135736bd679d39951bd5f674ac39dfa498d218f6d8cf3820e8c2abc88a50c7b",
    "second-moment": "6fe13c41ce01a0d358a6c9bc5b2ec01017ca60ed69dba7538712eb0347f30fd3",
}


@pytest.mark.parametrize("command", DEFAULT_CSV_SHA256)
def test_default_csv_frozen(command, tmp_path, capsys):
    # every command at its defaults, byte for byte, with nothing on stderr
    out = tmp_path / "d.csv"
    assert main([command, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DEFAULT_CSV_SHA256[command]
    assert capsys.readouterr().err == ""


def test_weil_scan_sorts_and_dedupes_explicit_primes(tmp_path):
    # as every other command does with --q: each prime once, in increasing order
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["weil-scan", "--q", "7,5,7", "--samples", "1", "--out", str(a)]) == 0
    assert main(["weil-scan", "--q", "5,7", "--samples", "1", "--out", str(b)]) == 0
    assert read(a) == read(b)
    rows = [ln.split(",")[0] for ln in read(a).splitlines() if ln[:1].isdigit()]
    assert rows == sorted(rows, key=int) and set(rows) == {"5", "7"}


def test_weil_scan_refuses_grid_above_point_budget(capsys):
    # the direct check needs a 10007 x 10007 grid, just above 10^8 points
    assert main(["weil-scan", "--q", "10007", "--samples", "1"]) == 1
    assert "RegionTooLarge" in capsys.readouterr().err


def test_oracle_report_contains_witness(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["oracle", "--q", "15", "--samples", "2", "--out", str(out)]) == 0
    lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    assert header[:7] == ["q", "f11", "f22", "f33", "f12", "f13", "f23"]
    assert "min_zero_norm_sq" in header and "w1" in header
    assert all(ln.split(",")[-1] == "1" for ln in lines[1:])


def test_oracle_failure_names_a_typed_error(capsys):
    # q = 3 * 5 * ... * 43; its zero scan outgrows the point budget
    assert main(["oracle", "--q", "6541380665835015", "--samples", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    name = re.match(r"FAILED: (\w+): ", err).group(1)
    assert issubclass(getattr(errors, name), errors.QuadCongError)


def test_exponent_fit_report(tmp_path):
    out = tmp_path / "f.csv"
    assert main([
        "exponent-fit", "--q-range", "1001:4001", "--samples", "5", "--out", str(out),
    ]) == 0
    text = read(out)
    assert "fit pipeline: slope=" in text
    assert "series,q,value" in text


def test_exponent_fit_family_primes_once(tmp_path):
    # a one-point range maps every log-spaced target to the same q and the
    # same family prime: each series gets one row, and neither is fitted
    out = tmp_path / "f.csv"
    assert main(["exponent-fit", "--q-range", "1001:1001", "--out", str(out)]) == 0
    rows = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
    assert rows == ["series,q,value", "pipeline,1001,14.212670", "rank2-family,1009,100.503731"]


def test_exponent_fit_samples_zero_prints_no_rows(capsys):
    # --samples 0 asks for no log-spaced targets: a header-only report, and
    # explicit moduli get their pipeline rows but no family rows
    assert main(["exponent-fit", "--samples", "0", "--out", "-"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert rows == ["series,q,value"]
    assert main(["exponent-fit", "--q", "1009,1013,1019", "--samples", "0", "--out", "-"]) == 0
    rows = [ln for ln in capsys.readouterr().out.splitlines() if not ln.startswith("#")]
    assert [row.split(",")[0] for row in rows[1:]] == ["pipeline"] * 3


def test_exponent_fit_validates_explicit_moduli(capsys):
    assert main(["exponent-fit", "--q", "1001,9"]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_cop_count_box_below_one_is_a_config_error(capsys):
    assert main(["cop-count", "--q", "15", "--samples", "0"]) == 2
    assert capsys.readouterr().err == "config error: cop-count box edge (--samples) must be at least 1, got 0\n"
    with pytest.raises(ValueError, match="samples must be at least 0 and jobs at least 1"):
        build_config(["cop-count", "--samples", "-1"])


def test_second_moment_exact_totals(tmp_path):
    out = tmp_path / "m.csv"
    assert main(["second-moment", "--q", "15,21", "--samples", "2", "--out", str(out)]) == 0
    lines = [ln for ln in read(out).splitlines() if not ln.startswith("#")]
    for ln in lines[1:]:
        parts = ln.split(",")
        pairs, moment = int(parts[-3]), int(parts[-2])
        assert moment >= pairs  # sum of squares dominates the sum when counts are 0/1+
        assert parts[-1] == "1"


def test_second_moment_flags_a_moment_below_the_total(monkeypatch, capsys):
    # a moment below the pair total breaks c^2 >= c for some cell count c
    monkeypatch.setattr(charsum, "second_moment", lambda counts: int(counts.sum()) - 1)
    assert main(["second-moment", "--q", "15", "--out", "-"]) == 1
    out, err = capsys.readouterr()
    bad = [ln for ln in out.splitlines() if ln.startswith("15,")][0]
    assert err == f"FAILED: 1 row(s), first: ({bad.replace(',', ', ')})\n"


def test_run_accepts_config_object(tmp_path):
    cfg = ExperimentConfig(
        command="grid-vanish", qs=(15,), samples=2, seed="s", out=str(tmp_path / "g.csv")
    )
    assert run(cfg) == 0
    assert "must vanish" in read(tmp_path / "g.csv")


def test_fit_result_type():
    assert FitResult(0.5, 0.0, 0.0).slope == 0.5
