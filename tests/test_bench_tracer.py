"""The traced benchmark's wrappers still fit the package: every stage and
kernel that `bench/tracer.py` names exists, and a realization or a
qe-basis item under the installed tracer records its calls and restores
every original.  The probes of the traced cli-fixtures run still find what
they time."""

import importlib.util
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
    import json

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
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    added_by_run = {"trace.overhead_frac", "cli.import_s",
                    "cli.sympy_import_s"}
    assert [m["name"] for m in listed["per_layer"]
            if m["name"] not in values and m["name"] not in added_by_run] \
        == []
