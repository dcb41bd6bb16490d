"""The traced benchmark's wrappers still fit the package: every stage and
kernel that `bench/tracer.py` names exists, and a realization under the
installed tracer records its calls and restores every original."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_quickstart_realization():
    tracer = _load_tracer()
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
