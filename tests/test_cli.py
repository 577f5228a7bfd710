import json
import os
import subprocess
import sys

import pytest

import syzlab

from syzlab import SCHEMA, betti
from syzlab.betti import ResultStore, cell_result, make_config
from syzlab.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kpq_json(capsys):
    code, out, err = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3",
                         "--p", "2", "--q", "1", "--no-cache")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == SCHEMA
    assert payload["result"]["dim"] == 2
    assert payload["result"]["agreement"] is True
    assert "wall_time_ms" not in payload["result"]
    assert "wall_time_ms" in err  # timing goes to stderr only


def test_stdout_is_byte_reproducible(capsys):
    args = ("kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "1", "--q", "1",
            "--no-cache")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_cache_round_trip_is_byte_identical(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = ("betti", "--n", "1", "--b", "0", "--d", "3", "--cache-dir", cache)
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)  # all cells served from the store
    assert code1 == code2 == EXIT_OK
    assert first == second
    assert os.path.exists(os.path.join(cache, "results.jsonl"))


KPQ_253 = ("kpq", "--n", "2", "--b", "0", "--d", "3", "--p", "5", "--q", "1")


EXACT_0_1 = ("--mode", "exact", "--prime-seeds", "0", "1")


@pytest.mark.parametrize("first,then", [((), EXACT_0_1), (EXACT_0_1, ())],
                         ids=["two-prime-then-exact", "exact-then-two-prime"])
def test_store_never_answers_one_mode_with_another(capsys, tmp_path, first, then):
    # a request after another mode's run on the same store prints what it
    # prints on a fresh store; the two modes print different levels here
    cache = str(tmp_path / "cache")
    code, fresh, _ = run(capsys, *KPQ_253, *then, "--cache-dir", cache)
    assert code == EXIT_OK
    os.remove(os.path.join(cache, ResultStore.FILENAME))
    code, other, _ = run(capsys, *KPQ_253, *first, "--cache-dir", cache)
    assert code == EXIT_OK
    assert json.loads(other)["result"]["level"] != json.loads(fresh)["result"]["level"]
    assert run(capsys, *KPQ_253, *then, "--cache-dir", cache)[:2] == (EXIT_OK, fresh)


def test_two_prime_mode_refuses_a_repeated_prime(capsys):
    # one prime listed twice is one field: it would certify nothing
    code, out, err = run(capsys, *KPQ_253, "--prime-seeds", "5", "5", "--no-cache")
    assert (code, out) == (EXIT_USAGE, "")
    assert "two distinct primes" in err


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("SYZ_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "2",
                       "--p", "1", "--q", "1")
    assert code == EXIT_OK
    assert (cache / "results.jsonl").exists()


KPQ_121 = ("kpq", "--n", "1", "--b", "0", "--d", "2", "--p", "1", "--q", "1")


@pytest.mark.parametrize("flags,env,resolved", [
    (("--no-cache", "--cache-dir", "flag"), "env", None),
    (("--cache-dir", "flag"), "env", "flag"),
    ((), "env", "env"),
    ((), None, ".syzcache"),
], ids=["no-cache", "flag", "env", "default"])
def test_cache_dir_precedence_and_echo(capsys, tmp_path, monkeypatch, flags, env, resolved):
    # --no-cache beats --cache-dir, which beats $SYZ_CACHE_DIR, which beats
    # ./.syzcache; the echo holds the directory used, and none under --no-cache
    monkeypatch.chdir(tmp_path)
    where = {"flag": str(tmp_path / "flag"), "env": str(tmp_path / "env"),
             ".syzcache": ".syzcache", None: None}
    if env is None:
        monkeypatch.delenv("SYZ_CACHE_DIR", raising=False)
    else:
        monkeypatch.setenv("SYZ_CACHE_DIR", where[env])
    code, out, _ = run(capsys, *KPQ_121, *(where.get(f, f) for f in flags))
    assert code == EXIT_OK
    config = json.loads(out)["config"]
    assert config.get("cache_dir") == where[resolved]
    assert "no_cache" not in config
    made = sorted(os.listdir(tmp_path))
    assert made == ([] if resolved is None else [os.path.basename(where[resolved])])
    if resolved is not None:
        assert os.path.exists(os.path.join(where[resolved], ResultStore.FILENAME))


def _run_module(*argv, flags=()):
    src = os.path.dirname(os.path.dirname(os.path.abspath(syzlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *flags, "-m", "syzlab.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_exits_with_the_command_code(capsys):
    proc = _run_module(*KPQ_253, "--prime-seeds", "5", "5", "--no-cache")
    assert (proc.returncode, proc.stdout) == (EXIT_USAGE, "")
    assert "two distinct primes" in proc.stderr
    args = ("bounds", "--n", "1", "--b", "0", "--d", "3")
    proc = _run_module(*args)
    assert proc.returncode == EXIT_OK
    assert proc.stdout == run(capsys, *args)[1]


def test_betti_table_json(capsys):
    code, out, _ = run(capsys, "betti", "--n", "1", "--b", "0", "--d", "3",
                       "--no-cache")
    assert code == EXIT_OK
    table = json.loads(out)["table"]
    dims = {(e["p"], e["q"]): e["dim"] for e in table["entries"]}
    assert dims[(0, 0)] == 1 and dims[(1, 1)] == 3 and dims[(2, 1)] == 2
    assert table["infeasible"] == []


def test_betti_m2_format(capsys):
    code, out, _ = run(capsys, "betti", "--n", "1", "--b", "0", "--d", "3",
                       "--format", "m2", "--no-cache")
    assert code == EXIT_OK
    assert out.startswith(f"-- schema: {SCHEMA}")
    assert "q\\p" in out
    body = [l for l in out.splitlines() if not l.startswith("--")]
    assert body[1].split() == ["0", "1", ".", ".", "."]


def test_betti_csv_format(capsys):
    code, out, _ = run(capsys, "betti", "--n", "1", "--b", "0", "--d", "2",
                       "--format", "csv", "--no-cache")
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("# schema:")
    assert lines[2] == "p,q,dim,level,agreement"
    assert "1,1,1,exact,true" in lines


def test_window_flags(capsys):
    code, out, _ = run(capsys, "betti", "--n", "1", "--b", "0", "--d", "4",
                       "--p-min", "1", "--p-max", "2", "--q-min", "1",
                       "--q-max", "1", "--no-cache")
    assert code == EXIT_OK
    table = json.loads(out)["table"]
    assert [(e["p"], e["q"]) for e in table["entries"]] == [(1, 1), (2, 1)]


def test_window_ends_not_given_are_the_full_tables(capsys):
    # b >= d: the full table starts at the q = -(b // d) strand, not at q = 0
    base = ("betti", "--n", "1", "--b", "2", "--d", "2", "--format", "m2", "--no-cache")
    _, full, _ = run(capsys, *base)
    code, window, _ = run(capsys, *base, "--q-max", "2")
    assert code == EXIT_OK
    assert window.splitlines()[2:] == full.splitlines()[2:]
    assert window.splitlines()[3].split() == ["-1", "1", ".", "."]


def test_prime_is_checked_when_first_ranked_modulo(capsys, monkeypatch):
    # 20 bits is outside the 31-62 a prime field takes; every unreduced map
    # of K_{0,0} is zero, so no map is ranked modulo the primes there
    monkeypatch.setattr(betti, "DEFAULT_PRIME_BITS", 20)
    args = ("kpq", "--n", "1", "--b", "0", "--d", "2", "--no-cache")
    code, out, _ = run(capsys, *args, "--p", "0", "--q", "0")
    assert code == EXIT_OK
    assert json.loads(out)["result"]["dim"] == 1
    code, out, err = run(capsys, *args, "--p", "1", "--q", "1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "31-62 bits" in err


def test_verify_clean_table(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--b", "0", "--d", "3",
                       "--no-cache")
    assert code == EXIT_OK
    rep = json.loads(out)["verify"]
    assert rep["ok"] is True
    assert rep["euler"]["ok"] is True
    assert rep["duality"]["ok"] is True      # companion b' = 1 computed on the fly
    assert rep["duality"]["b_dual"] == 1
    assert rep["bounds"]["ok"] is True


def test_verify_skips_duality_outside_regime(capsys):
    code, out, _ = run(capsys, "verify", "--n", "1", "--b", "1", "--d", "2",
                       "--no-cache")
    assert code == EXIT_OK
    rep = json.loads(out)["verify"]
    assert "skipped" in rep["duality"]


def test_verify_fails_on_poisoned_cache(capsys, tmp_path):
    # plant a wrong dim under the exact key the CLI will look up
    cache = str(tmp_path / "poisoned")
    config = make_config()
    rec = cell_result(1, 0, 3, 1, 1, config).to_record()
    rec["dim"] = 7
    rec["wall_time_ms"] = 0
    ResultStore(cache).put([(ResultStore.key_of(1, 0, 3, 1, 1, config), rec)])
    code, out, err = run(capsys, "verify", "--n", "1", "--b", "0", "--d", "3",
                         "--cache-dir", cache)
    assert code == EXIT_VERIFY
    rep = json.loads(out)["verify"]
    assert rep["ok"] is False
    assert rep["euler"]["ok"] is False


def test_bounds_listing(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "2", "--b", "0", "--d", "3")
    assert code == EXIT_OK
    ranges = json.loads(out)["ranges"]
    by_source = {r["source"]: r for r in ranges}
    assert by_source["sharp"]["q"] in (1, 2)
    assert by_source["kpn1"]["empty"] is True
    assert by_source["surface_q2_anchor"]["lo"] == 7


def test_bounds_q_filter(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "2", "--b", "0", "--d", "3",
                       "--q", "2")
    assert code == EXIT_OK
    assert all(r["q"] == 2 for r in json.loads(out)["ranges"])


def test_schur_command(capsys):
    code, out, _ = run(capsys, "schur", "--n", "2", "--b", "0", "--d", "2",
                       "--p", "1", "--q", "1", "--no-cache")
    assert code == EXIT_OK
    schur = json.loads(out)["schur"]
    assert schur["total_dim"] == 6
    assert schur["components"] == [
        {"partition": [2, 2], "multiplicity": 1, "weyl_dim": 6}
    ]


@pytest.mark.parametrize("b, d, q", [(0, 3, -2), (3, 2, -5)])
def test_schur_on_a_negative_weight_total_is_empty(b, d, q):
    # (p + q) d + b < 0: no partition, so no weight and no irreducible,
    # with the asserts in src/ and without them
    args = ("schur", "--n", "1", "--b", str(b), "--d", str(d), "--p", "1", "--q", str(q),
            "--no-cache")
    outs = []
    for flags in ((), ("-O",)):
        proc = _run_module(*args, flags=flags)
        assert proc.returncode == EXIT_OK, (flags, proc.stderr)
        schur = json.loads(proc.stdout)["schur"]
        assert (schur["components"], schur["total_dim"]) == ([], 0), flags
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_cycle_command(capsys):
    code, out, _ = run(capsys, "cycle", "--n", "1", "--b", "1", "--d", "3",
                       "--p", "1")
    assert code == EXIT_OK
    cyc = json.loads(out)["cycle"]
    assert cyc["text"] == "-(x^3) (x) y + (x^2*y) (x) x"
    assert cyc["certifies_nonvanishing"] is True


def test_negative_p_cycle_is_usage_error(capsys):
    # p = -1 would build an empty chain and fail verification (exit 3)
    code, out, err = run(capsys, "cycle", "--n", "1", "--b", "0", "--d", "3",
                         "--p", "-1")
    assert (code, out) == (EXIT_USAGE, "")
    assert "p must be >= 0, got -1" in err


def test_explore_csv(capsys):
    code, out, _ = run(capsys, "explore", "--n", "1", "--b", "0",
                       "--d-min", "2", "--d-max", "4", "--q-min", "1",
                       "--no-cache")
    assert code == EXIT_OK
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "q,d,min_nonzero_p,r_d"
    assert rows[1:] == ["1,2,1,2", "1,3,1,3", "1,4,1,4"]


def test_render_to_stdout(capsys):
    code, out, _ = run(capsys, "render", "--n", "1", "--b", "0", "--d", "3",
                       "--no-cache")
    assert code == EXIT_OK
    assert out.startswith('<?xml version="1.0"')
    assert "</svg>" in out


def test_render_to_file(capsys, tmp_path):
    import hashlib
    target = str(tmp_path / "diagram.svg")
    code, out, _ = run(capsys, "render", "--n", "1", "--b", "0", "--d", "3",
                       "--out", target, "--no-cache")
    assert code == EXIT_OK
    status = json.loads(out)["render"]
    with open(target, "rb") as fh:
        blob = fh.read()
    assert status["bytes"] == len(blob)
    assert status["sha256"] == hashlib.sha256(blob).hexdigest()


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    target = str(tmp_path / "missing" / "diagram.svg")
    code, out, err = run(capsys, "render", "--n", "1", "--b", "0", "--d", "3",
                         "--out", target, "--no-cache")
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("syzlab: usage error: ") and err.count("\n") == 1
    assert target in err


@pytest.mark.parametrize("where", ["missing/diagram.svg", "file/diagram.svg", "."])
def test_unwritable_out_is_refused_before_any_cell(capsys, tmp_path, where):
    # the store gains no line: no cell of the table was computed
    cache = str(tmp_path / "store")
    (tmp_path / "file").write_text("")
    run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "1", "--q", "1",
        "--cache-dir", cache)
    store_file = os.path.join(cache, ResultStore.FILENAME)
    with open(store_file, "rb") as fh:
        before = fh.read()
    target = str(tmp_path / where)
    code, out, err = run(capsys, "render", "--n", "1", "--b", "0", "--d", "3",
                         "--out", target, "--cache-dir", cache)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith(f"syzlab: usage error: cannot write --out {target!r}: ")
    with open(store_file, "rb") as fh:
        assert fh.read() == before


def test_narrow_width_is_refused_before_any_cell(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("betti_table was called")

    monkeypatch.setattr(syzlab.cli, "betti_table", no_table)
    code, out, err = run(capsys, "render", "--n", "2", "--b", "0", "--d", "3",
                         "--width-px", "50", "--no-cache")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "syzlab: usage error: width_px too small: 50\n"


@pytest.mark.parametrize("how", ["flag", "env"])
def test_store_path_that_is_a_file_is_usage_error(capsys, tmp_path, monkeypatch, how):
    path = tmp_path / "not-a-directory"
    path.write_text("")
    args = ["kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "1", "--q", "1"]
    if how == "flag":
        args += ["--cache-dir", str(path)]
    else:
        monkeypatch.setenv("SYZ_CACHE_DIR", str(path))
    code, out, err = run(capsys, *args)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("syzlab: usage error: ") and err.count("\n") == 1
    assert str(path) in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3",
                       "--p", "1")
    assert code == EXIT_USAGE
    assert "usage error" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate", "--n", "1")
    assert code == EXIT_USAGE


def test_bad_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "kpq", "--n", "0", "--b", "0", "--d", "3",
                       "--p", "1", "--q", "1", "--no-cache")
    assert code == EXIT_USAGE


def test_retired_engine_flags_are_usage_errors(capsys):
    args = ("kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "1", "--q", "1",
            "--no-cache")
    for retired in (("--backend", "wiedemann"), ("--threads", "2"),
                    ("--exact-threshold", "0"), ("--prime-bits", "62"),
                    ("--mode", "one-prime")):
        code, out, err = run(capsys, *args, *retired)
        assert (code, out) == (EXIT_USAGE, ""), retired
        assert "usage error" in err
    code, out, _ = run(capsys, *args)
    config = json.loads(out)["config"]
    assert code == EXIT_OK and "mode" in config
    assert not {"backend", "threads", "exact_threshold", "prime_bits"} & set(config)


def test_memory_cap_zero_is_infeasible(capsys):
    code, _, err = run(capsys, "kpq", "--n", "2", "--b", "0", "--d", "3",
                       "--p", "4", "--q", "1", "--memory-cap-mb", "0",
                       "--no-cache")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


def test_negative_memory_cap_is_usage_error(capsys):
    with pytest.raises(ValueError, match="negative memory cap -1"):
        make_config(memory_cap=-1)
    assert make_config(memory_cap=0).memory_cap == 0
    code, out, err = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3",
                         "--p", "1", "--q", "1", "--memory-cap-mb", "-5", "--no-cache")
    assert (code, out) == (EXIT_USAGE, "")
    assert "usage error: negative memory cap" in err


@pytest.mark.parametrize("n,b,d", [(0, 0, 1), (1, 0, 0), (1, -3, 2)])
def test_out_of_range_nbd_is_refused_before_any_answer(capsys, tmp_path, n, b, d):
    # q = 5 is above the top strand, so a vanishing theorem would answer 0;
    # the range check comes first, and nothing reaches the store
    cache = str(tmp_path / "cache")
    code, out, err = run(capsys, "kpq", "--n", str(n), "--b", str(b), "--d", str(d),
                         "--p", "0", "--q", "5", "--cache-dir", cache)
    assert (code, out) == (EXIT_USAGE, "")
    assert "need n >= 1, d >= 1, b >= 0" in err
    # nor is an empty window of a table answered with no cell
    code, out, _ = run(capsys, "betti", "--n", str(n), "--b", str(b), "--d", str(d),
                       "--q-min", "5", "--q-max", "4", "--cache-dir", cache)
    assert (code, out) == (EXIT_USAGE, "")
    store = os.path.join(cache, "results.jsonl")
    assert not os.path.exists(store) or os.path.getsize(store) == 0


@pytest.mark.parametrize("command", ["verify", "render"])
def test_refused_cells_stop_whole_table_commands(capsys, command):
    # verify would misreport them as missing, render would draw them as zeros
    code, out, err = run(capsys, command, "--n", "1", "--b", "0", "--d", "3",
                         "--memory-cap-mb", "0", "--no-cache")
    assert (code, out) == (EXIT_INFEASIBLE, "")
    assert "infeasible: the memory cap refused cells (p, q) = [(0, 0), (0, 1)" in err


def test_explore_without_degrees_is_usage_error(capsys):
    code, _, err = run(capsys, "explore", "--n", "1", "--b", "0", "--no-cache")
    assert code == EXIT_USAGE
    assert "explore needs --d" in err


def test_one_prime_schur_is_usage_error(capsys):
    code, _, err = run(capsys, "schur", "--n", "2", "--b", "0", "--d", "2",
                       "--p", "1", "--q", "1", "--mode", "one-prime",
                       "--no-cache")
    assert code == EXIT_USAGE


@pytest.mark.parametrize("n,b,d", [(1, 2, 2), (1, 3, 2), (2, 3, 2), (1, 4, 3)])
def test_verify_passes_when_b_at_least_d(capsys, n, b, d):
    # the Euler series starts at the q = -(b // d) strand, not at q = 0
    code, out, _ = run(capsys, "verify", "--n", str(n), "--b", str(b),
                       "--d", str(d), "--no-cache")
    rep = json.loads(out)["verify"]
    assert rep["euler"] == {"ok": True, "nonzero_residuals": {}}
    assert rep["bounds"]["ok"] is True
    assert code == EXIT_OK


def _store_after_two_kpq(capsys, cache):
    for p in (1, 2):
        code, _, _ = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3",
                         "--p", str(p), "--q", "1", "--cache-dir", cache)
        assert code == EXIT_OK
    return os.path.join(cache, "results.jsonl")


def _untimed(line):
    """A store line's key and record without wall_time_ms, as put() compares
    records."""
    row = json.loads(line)
    return row["key"], ResultStore._payload(row["record"])


def _tear_last_line(path):
    """Cut the store's second and last line in half, as a crash mid-append
    would; (first line, whole second line)."""
    with open(path, encoding="utf-8") as fh:
        good, second = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good + second[: len(second) // 2])
    return good, second


def test_torn_last_store_line_is_skipped(capsys, tmp_path, caplog):
    cache = str(tmp_path / "cache")
    path = _store_after_two_kpq(capsys, cache)
    good, second = _tear_last_line(path)
    args = ("kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "2", "--q", "1",
            "--cache-dir", cache)
    code, out, _ = run(capsys, *args)
    assert code == EXIT_OK
    assert json.loads(out)["result"]["dim"] == 2
    assert "torn last line 2" in caplog.text
    # the recomputed record replaced the torn line, and the store reads clean;
    # only its wall_time_ms (and with it the CRC) may differ from the first
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    assert len(lines) == 2 and lines[0] == good and lines[1].endswith("\n")
    assert _untimed(lines[1]) == _untimed(second)
    key = json.loads(second)["key"]
    assert ResultStore(cache).get(key)["dim"] == 2     # CRC checked on read
    caplog.clear()
    assert run(capsys, *args)[0] == EXIT_OK
    assert "torn" not in caplog.text


def test_torn_last_store_line_warns_on_stderr(capsys, tmp_path):
    # a fresh process configures no logging: the warning, whose path loads
    # logging itself, still reaches its stderr
    cache = str(tmp_path / "cache")
    path = _store_after_two_kpq(capsys, cache)
    _tear_last_line(path)
    proc = _run_module("kpq", "--n", "1", "--b", "0", "--d", "3", "--p", "2", "--q", "1",
                       "--cache-dir", cache)
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["result"]["dim"] == 2
    assert proc.stderr.startswith(
        f"skipping torn last line 2 of {path} (no newline at the end)\n")


def test_malformed_middle_store_line_is_corruption(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    path = _store_after_two_kpq(capsys, cache)
    with open(path, encoding="utf-8") as fh:
        first, second = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(first[: len(first) // 2] + "\n" + second)
    code, out, err = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "3",
                         "--p", "2", "--q", "1", "--cache-dir", cache)
    assert code == EXIT_VERIFY
    assert out == ""
    assert "line 1" in err and "not a store record" in err
