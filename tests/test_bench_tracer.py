"""The traced benchmark's wrappers still fit the package: every stage and
kernel that `bench/tracer.py` names exists, and a realization, or the
first item of the tail-field, realize-group or qe-basis workload, under the
installed tracer records its calls and every listed per-layer name and
restores every original.  The probes of the traced cli-fixtures run still
find what they time."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_quickstart_realization():
    tracer = _load_bench("tracer")
    import hahnsat.cli  # noqa: F401  (the tracer wraps cli.main)
    from hahnsat import engine
    from hahnsat.formulas import PartialType, parse_formula
    from hahnsat.series import parse_series

    env = {"g1": parse_series("t")}
    bounds = [parse_formula(s)
              for s in ("g1 < x", "x < 2*g1", "5*g1 < 4*x")]
    tau = PartialType(lambda i: bounds[i] if i < len(bounds) else None,
                      "x", ("g1",))
    t = tracer.Tracer()
    t.install()
    try:
        engine.realize_type(tau, env, mode="group")
    finally:
        t.restore()
    tracer.assert_restored()
    values = t.layer_values()
    assert values["engine.realize_type.calls"] == 1
    assert values["engine.oracle.side_calls"] > 0
    # the verification checks each of the three emissions through
    # eval_formula, which the tracer times as engine.verify
    assert values["engine.verify.calls"] == 3
    assert values["formulas.eval_formula.calls"] == 3


def test_cli_probes_time_the_import_and_sympy():
    # the traced cli-fixtures run calls cli_probes, which raises when the
    # realize child does not import sympy
    run, workloads = _load_bench("run"), _load_bench("workloads")
    import_s, sympy_s = run.cli_probes(workloads.CliFixtures(run.ROOT, 0))
    assert import_s > 0 and sympy_s > 0


def test_traced_qe_basis_item_records_every_listed_layer():
    # the traced qe-basis run reads these kernels; traced_run raises on a
    # per-layer name that the tracer does not record
    tracer, run = _load_bench("tracer"), _load_bench("run")
    workloads = _load_bench("workloads")
    wl = workloads.QeBasis(run.ROOT, 0)
    t = tracer.Tracer()
    t.install()
    try:
        outcome = wl.run(wl.items[0])
    finally:
        t.restore()
    tracer.assert_restored()
    assert wl.check(wl.items[0], outcome) == \
        workloads.Verdict(failed=False, decided=True)
    values = t.layer_values()
    assert values["series.add.calls"] > 0
    assert values["series.scale.calls"] > 0
    # six formulas, each evaluated in 50 environments
    assert values["formulas.eval_formula.calls"] == 6 * 50
    _assert_every_listed_layer(run, values)


def _assert_every_listed_layer(run, values):
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    added_by_run = {"trace.overhead_frac", "cli.import_s",
                    "cli.sympy_import_s"}
    assert [m["name"] for m in listed["per_layer"]
            if m["name"] not in values and m["name"] not in added_by_run] \
        == []


def _traced_first_item(workload):
    """Trace a workload's first item at seed 0 as the traced run does, and
    check that every per-layer name BENCHMARK.json lists is recorded."""
    tracer, run = _load_bench("tracer"), _load_bench("run")
    wl = getattr(_load_bench("workloads"), workload)(run.ROOT, 0)
    t = tracer.Tracer()
    t.install()
    try:
        outcome = wl.run(wl.items[0])
    finally:
        t.restore()
    tracer.assert_restored()
    verdict = wl.check(wl.items[0], outcome)
    assert not verdict.failed and verdict.decided
    t.add_report(verdict.report)
    values = t.layer_values()
    _assert_every_listed_layer(run, values)
    # every stage of one realization, each once, and its verification
    emitted = int(verdict.report.split("emitted: ")[1].split()[0])
    for stage in ("realize_type", "complete_type", "classify_cut",
                  "realize_cut"):
        assert values[f"engine.{stage}.calls"] == 1, stage
    assert values["engine.verify.calls"] == emitted
    assert values["formulas.eval_formula.calls"] == emitted
    assert values["valbasis.valuation_basis.calls"] == 1
    assert values["valbasis.represent.calls"] > 0
    assert values["engine.oracle.side_calls"] > 0
    assert values["series.compare_series.calls"] > 0
    assert values["engine.oracle.queries"] > 0
    assert values["engine.interval_states"] > 0
    return values


def test_traced_tail_field_item_records_every_listed_layer():
    values = _traced_first_item("TailField")
    # the witness past the records, and the straddle probes
    assert values["series.add.calls"] > 0
    assert values["series.subtract.calls"] > 0


def test_traced_realize_group_item_records_every_listed_layer():
    values = _traced_first_item("RealizeGroup")
    # seed 0 draws a residue type first: its digit goes through the
    # candidate search
    assert values["scalars.isolate_real_roots.calls"] > 0
    assert values["series.scale.calls"] > 0
