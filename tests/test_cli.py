import json
import os

import pytest

from syzlab import SCHEMA
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


def test_cache_dir_env_var(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("SYZ_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "kpq", "--n", "1", "--b", "0", "--d", "2",
                       "--p", "1", "--q", "1")
    assert code == EXIT_OK
    assert (cache / "results.jsonl").exists()


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


@pytest.mark.parametrize("mode", ["one-prime", "two-prime"])
def test_prime_is_checked_when_first_ranked_modulo(capsys, mode):
    # 20 bits is outside the 31-62 a prime field takes; every unreduced map
    # of K_{0,0} is zero, so no map is ranked modulo the prime there
    args = ("kpq", "--n", "1", "--b", "0", "--d", "2", "--mode", mode,
            "--prime-bits", "20", "--no-cache")
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
    ResultStore(cache).put(rec)
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


def test_cycle_command(capsys):
    code, out, _ = run(capsys, "cycle", "--n", "1", "--b", "1", "--d", "3",
                       "--p", "1")
    assert code == EXIT_OK
    cyc = json.loads(out)["cycle"]
    assert cyc["text"] == "-(x^3) (x) y + (x^2*y) (x) x"
    assert cyc["certifies_nonvanishing"] is True


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
    for retired in (("--backend", "wiedemann"), ("--threads", "2")):
        code, out, err = run(capsys, *args, *retired)
        assert (code, out) == (EXIT_USAGE, "")
        assert "usage error" in err
    code, out, _ = run(capsys, *args)
    config = json.loads(out)["config"]
    assert code == EXIT_OK and "mode" in config
    assert not {"backend", "threads"} & set(config)


def test_memory_cap_zero_is_infeasible(capsys):
    code, _, err = run(capsys, "kpq", "--n", "2", "--b", "0", "--d", "3",
                       "--p", "4", "--q", "1", "--memory-cap-mb", "0",
                       "--no-cache")
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in err


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


def test_torn_last_store_line_is_skipped(capsys, tmp_path, caplog):
    cache = str(tmp_path / "cache")
    path = _store_after_two_kpq(capsys, cache)
    with open(path, encoding="utf-8") as fh:
        good, second = fh.readlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(good + second[: len(second) // 2])    # crash mid-append
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
