"""Workload generation and trace CSV ingestion."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from swarmsched.workload import (
    DEFAULT_SCALE_MI_PER_CORE_S,
    SyntheticSpec,
    TraceParseError,
    generate_synthetic,
    ingest_trace,
    export_trace_csv,
    standard_fleet,
)

from conftest import make_workload

HEADER = "task_id,cpu_request,duration_s"
PINNED_TRACE = Path(__file__).parent / "data" / "pinned_trace.csv"


def write_trace(tmp_path, body, name="trace.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_synthetic_spec_validation():
    with pytest.raises(ValueError, match="n must be"):
        SyntheticSpec(0)
    with pytest.raises(ValueError, match="min_length_mi"):
        SyntheticSpec(5, min_length_mi=0.0)
    with pytest.raises(ValueError, match="min_length_mi"):
        SyntheticSpec(5, min_length_mi=200.0, max_length_mi=100.0)


@pytest.mark.parametrize(
    "lengths, field",
    [
        ((100.0, np.inf), "max_length_mi"),
        ((np.inf, np.inf), "min_length_mi"),
        ((np.nan, 1000.0), "min_length_mi"),
        ((100.0, np.nan), "max_length_mi"),
    ],
)
def test_synthetic_spec_rejects_non_finite_lengths(lengths, field):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SyntheticSpec(5, *lengths)


@pytest.mark.parametrize("name", ["n", "seed"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, np.float64(4.0), "4"])
def test_synthetic_spec_rejects_non_integer_counts(name, value):
    # a float n used to construct and then fail inside generate_synthetic
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SyntheticSpec(**{"n": 5, name: value})


@pytest.mark.parametrize("name", ["n", "seed"])
def test_synthetic_spec_accepts_numpy_integers(name):
    spec = SyntheticSpec(**{"n": 5, name: np.int64(4)})
    assert getattr(spec, name) == 4
    assert len(generate_synthetic(spec)) == spec.n


def test_generate_synthetic_reproducible_and_in_range():
    spec = SyntheticSpec(200, 100.0, 1000.0, seed=42)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    npt.assert_array_equal(a.lengths_mi(), b.lengths_mi())
    assert len(a) == 200
    assert a.lengths_mi().min() >= 100.0
    assert a.lengths_mi().max() <= 1000.0
    different = generate_synthetic(SyntheticSpec(200, 100.0, 1000.0, seed=43))
    assert not np.array_equal(a.lengths_mi(), different.lengths_mi())


def test_generate_synthetic_degenerate_range():
    workload = generate_synthetic(SyntheticSpec(10, 250.0, 250.0, seed=0))
    npt.assert_allclose(workload.lengths_mi(), 250.0)


def test_ingest_trace_converts_core_seconds_to_mi(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.5,10\nj2,1.0,2\n")
    workload = ingest_trace(path, limit=10, scale_mi_per_core_s=1000.0)
    npt.assert_allclose(workload.lengths_mi(), [5000.0, 2000.0])


def test_ingest_trace_default_scale(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,1.0,3\n")
    workload = ingest_trace(path, limit=1)
    npt.assert_allclose(workload.lengths_mi(), [3.0 * DEFAULT_SCALE_MI_PER_CORE_S])


def test_ingest_trace_requires_header(tmp_path):
    path = write_trace(tmp_path, "j1,0.5,10\nj2,1.0,2\n")
    with pytest.raises(TraceParseError, match="row 1") as excinfo:
        ingest_trace(path, limit=10)
    assert excinfo.value.line_number == 1


def test_ingest_trace_rejects_wrong_field_count_with_line(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.5,10\nj2,1.0\n")
    with pytest.raises(TraceParseError, match="row 3") as excinfo:
        ingest_trace(path, limit=10)
    assert excinfo.value.line_number == 3


def test_ingest_trace_rejects_non_numeric_with_line(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.5,10\nj2,high,2\n")
    with pytest.raises(TraceParseError, match="row 3"):
        ingest_trace(path, limit=10)


def test_ingest_trace_skips_out_of_domain_rows_silently(tmp_path):
    body = (
        f"{HEADER}\n"
        "j1,0.5,10\n"
        "j2,0.0,10\n"  # cpu_request must be > 0
        "j3,1.5,10\n"  # cpu_request must be <= 1
        "j4,0.5,-1\n"  # duration must be positive
        "j5,nan,10\n"  # non-finite numbers are skipped, not fatal
        "j6,0.5,inf\n"
        "j7,0.25,4\n"
    )
    workload = ingest_trace(write_trace(tmp_path, body), limit=10, scale_mi_per_core_s=1000.0)
    npt.assert_allclose(workload.lengths_mi(), [5000.0, 1000.0])


def test_ingest_trace_skipped_rows_do_not_consume_limit(tmp_path):
    body = f"{HEADER}\nj1,2.0,10\nj2,0.5,2\nj3,0.5,4\nj4,0.5,6\n"
    workload = ingest_trace(write_trace(tmp_path, body), limit=2, scale_mi_per_core_s=1000.0)
    # j1 is out of range; the two collected records are j2 and j3
    npt.assert_allclose(workload.lengths_mi(), [1000.0, 2000.0])


def test_ingest_trace_limit_gives_stable_prefix(tmp_path):
    rows = "".join(f"j{i},0.5,{i + 1}\n" for i in range(10))
    path = write_trace(tmp_path, HEADER + "\n" + rows)
    first3 = ingest_trace(path, limit=3)
    first7 = ingest_trace(path, limit=7)
    npt.assert_allclose(first3.lengths_mi(), first7.lengths_mi()[:3])


def test_ingest_trace_skips_blank_lines(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\n\nj1,0.5,10\n\nj2,0.5,2\n")
    workload = ingest_trace(path, limit=10)
    assert len(workload) == 2


def test_ingest_trace_accepts_a_utf8_byte_order_mark(tmp_path):
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + PINNED_TRACE.read_bytes())
    assert ingest_trace(bom, limit=100) == ingest_trace(PINNED_TRACE, limit=100)


def test_ingest_trace_errors_on_no_valid_records(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.0,10\n")
    with pytest.raises(ValueError, match="empty trace"):
        ingest_trace(path, limit=10)


def test_ingest_trace_validates_arguments(tmp_path):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.5,10\n")
    with pytest.raises(ValueError, match="limit"):
        ingest_trace(path, limit=0)
    with pytest.raises(ValueError, match="scale"):
        ingest_trace(path, limit=1, scale_mi_per_core_s=0.0)


@pytest.mark.parametrize("scale", [np.inf, np.nan])
def test_ingest_trace_rejects_non_finite_scale(tmp_path, scale):
    path = write_trace(tmp_path, f"{HEADER}\nj1,0.5,10\n")
    with pytest.raises(ValueError, match="scale_mi_per_core_s must be finite"):
        ingest_trace(path, limit=1, scale_mi_per_core_s=scale)


def test_export_then_ingest_round_trips_lengths(tmp_path):
    # (length / scale) * scale rounds twice, so a length may come back one
    # ulp off (6 of these 500 do), but never further
    lengths = np.random.default_rng(4).lognormal(8.0, 1.0, 500)
    path = tmp_path / "out.csv"
    export_trace_csv(make_workload(lengths), path, scale_mi_per_core_s=500.0)
    back = ingest_trace(path, limit=len(lengths), scale_mi_per_core_s=500.0)
    assert [task.id for task in back.tasks] == list(range(len(lengths)))
    npt.assert_allclose(back.lengths_mi(), lengths, rtol=2.0**-52, atol=0.0)


def test_standard_fleet_uniform_mips():
    fleet = standard_fleet(4)
    assert [vm.id for vm in fleet] == [0, 1, 2, 3]
    assert all(vm.mips == 1000.0 for vm in fleet)
    with pytest.raises(ValueError, match="at least one VM"):
        standard_fleet(0)
