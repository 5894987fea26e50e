"""Structure of the benchmark harness (never absolute timings)."""

import pytest

from dualgrad import bench


def test_rejects_low_reps_and_bad_widths():
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), reps=5)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(0,), reps=10)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), engines=("magic",), reps=10)
    with pytest.raises(ValueError):
        bench.run_bench(widths=(4,), engines=(), reps=10)
    with pytest.raises(ValueError, match="engines must not repeat"):
        bench.run_bench(widths=(2,), engines=("ones", "ones"), reps=10)
    with pytest.raises(ValueError, match="widths must not repeat"):
        bench.run_bench(widths=(4, 4), engines=("ones",), reps=10)


def test_pass_accounting_and_fields():
    results = bench.run_bench(widths=(4, 8), reps=10, seed=1)
    assert len(results) == 6
    by_key = {(r.engine, r.width): r for r in results}
    for n in (4, 8):
        assert by_key[("ones", n)].passes == 1
        assert by_key[("backprop", n)].passes == 1
        assert by_key[("seeded", n)].passes == n + 1  # weights + bias
        for engine in ("ones", "seeded", "backprop"):
            r = by_key[(engine, n)]
            assert r.params == n and r.reps == 10 and r.median_ns > 0


def test_results_sorted_by_engine_then_params():
    results = bench.run_bench(widths=(8, 4), reps=10, seed=2)
    keys = [(r.engine, r.params) for r in results]
    assert keys == sorted(keys)


def test_linear_fit_recovers_exact_line():
    slope, intercept, r2 = bench.linear_fit_r2([1, 2, 3, 4], [3, 5, 7, 9])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_csv_and_table_output(tmp_path):
    results = bench.run_bench(widths=(4,), engines=("seeded",), reps=10, seed=3)
    path = tmp_path / "bench.csv"
    bench.write_csv(results, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "engine,width,P,passes,median_ns"
    assert len(lines) == 2
    assert lines[1].startswith("seeded,4,4,5,")

    table = bench.format_table(results)
    assert "seeded" in table and "ns/param" in table
