"""``qsaf validate`` is clean exactly when ``qsaf run`` succeeds: a run
directive that ``run`` refuses is a blocking finding of ``validate`` that
carries ``run``'s own message."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsaf.cli import main

from reference import VQE_MANIFEST


def _without_runs(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("run "))


BASES = {
    "bell": ('component bell = BellStates(variant="phi_plus")\n'
             "component meas = Measurement(n=2)\n"
             "wire bell.out -> meas.in\n"),
    "vqe": _without_runs(VQE_MANIFEST),
    # the VQE manifest with no Optimizer: its component and both wires
    "vqe_no_optimizer": "".join(
        line for line in _without_runs(VQE_MANIFEST).splitlines(True)
        if "opt" not in line),
}

# option values as manifest text, well-formed and malformed
VALUES = {
    "shots": ["1", "64", "0", "1.5", "-3", "true", '"8"', "100000000"],
    "seed": ["0", "7", "-1", "2.5", '"a"'],
    "max_iters": ["1", "3", "0", "1.5", "true", "100001"],
    "step": ["0.1", "0.5", "0", "-1", '"abc"', "1e999"],
    "tol": ["0", "0.001", "-0.5", "[1]"],
    "min_step": ["0.001", "0.5", "0", "-1"],
    "bogus": ["1"],
}

OPTIONS = st.lists(st.sampled_from(sorted(VALUES)), unique=True,
                   max_size=3).flatmap(
    lambda keys: st.tuples(*(st.sampled_from(VALUES[k]) for k in keys))
    .map(lambda values: " ".join(f"{k}={v}" for k, v in zip(keys, values))))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(base=st.sampled_from(sorted(BASES)),
       verb=st.sampled_from(["simulate", "minimize"]), options=OPTIONS)
def test_validate_is_clean_exactly_when_run_succeeds(tmp_path, capsys, base,
                                                     verb, options):
    text = BASES[base] + f"run {verb} {options}\n"
    line = text.count("\n")
    path = tmp_path / "directive.qsaf"
    path.write_text(text)
    status = main(["validate", str(path)])
    found = capsys.readouterr().out.splitlines()
    code = main(["run", str(path)])
    err = capsys.readouterr().err
    if code == 0:
        assert (status, found, err) == (0, ["validation clean"], "")
        return
    assert code == 2
    message = err.removeprefix("error: ").removesuffix("\n")
    assert (status, found) == (1, [
        f"error [bad_directive] run {verb} on line {line}: {message}",
        "1 finding(s), 1 blocking"])
