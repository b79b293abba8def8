"""The verification report checks the objects the library ships: the
battery's own forms, and the lattices of one corpus; no vector it computes
contradicts a row of its summary table."""

from flagvec import families, forms, lattice
from flagvec.verify import (WITNESS_8, WITNESSES_6_7, TableCell, corpus,
                            run_verification)


def test_the_cd_bound_checks_read_the_battery(monkeypatch):
    shipped = forms.battery

    def battery(d):  # the shipped battery, with f_empty added to one member
        bat = shipped(d)
        for member in bat:
            if member.name == "cd-c2dc2-bound":
                member.form = member.form + forms.FlagForm(d, {(): 1})
        return bat

    monkeypatch.setattr(forms, "battery", battery)
    checks = {c.name: c for c in run_verification().checks}
    assert not checks["cd-bound-tight-on-simplex-6"].passed
    assert checks["cd-bound-tight-on-simplex-6"].computed == "1"
    assert checks["cd-bound-tight-on-simplex-7"].passed


def test_the_report_builds_no_lattice_outside_the_corpus(monkeypatch):
    corpus()

    def build(*args):
        raise AssertionError(f"built a lattice outside the corpus: {args}")

    builders = [name for name in dir(lattice) if name.startswith("build_")]
    assert len(builders) == 5
    for name in builders:
        monkeypatch.setattr(lattice, name, build)
    assert run_verification().passed


def _dims(text: str, top: int) -> range:
    """The dimensions of a table row, "5", "6..7", "<=4" or ">=9", read up
    to ``top``."""
    if text.startswith("<="):
        return range(1, int(text[2:]) + 1)
    if text.startswith(">="):
        return range(int(text[2:]), top + 1)
    lo, _, hi = text.partition("..")
    return range(int(lo), int(hi or lo) + 1)


def _contradicted_rows(table, vectors) -> list[str]:
    """Rows that the f-vectors contradict: a "holds" or "open" row with a
    vector in its range that ``properties`` refutes, and a "fails" row over a
    finite range, citing no literature, with a dimension no vector refutes."""
    reports = [(len(f), families.properties(f)) for f in vectors]
    top = max(d for d, _ in reports)
    bad = []
    for cell in table:
        prop = cell.prop.replace("-", "_")
        refuted = {d for d, rep in reports if not getattr(rep, prop)}
        dims = set(_dims(cell.dims, top))
        if cell.status in ("holds", "open"):
            wrong = bool(dims & refuted)
        else:
            wrong = (cell.status == "fails" and not cell.dims.startswith(">=")
                     and "literature" not in cell.evidence and not dims <= refuted)
        if wrong:
            bad.append(f"{cell.prop} {cell.dims}: {cell.status}")
    return bad


def test_no_computed_vector_contradicts_a_summary_row():
    vectors = [tuple(L.f_vector()) for _, L in corpus() if L.d >= 1]
    vectors += [WITNESS_8] + [f for _, _, _, f in WITNESSES_6_7]
    table = run_verification().table
    assert table
    assert _contradicted_rows(table, vectors) == []
    # the row the table printed before the d = 6, 7 witnesses is flagged
    stale = TableCell("log-convex", "5..7", "open", "no counterexample known")
    assert _contradicted_rows([stale], vectors) == ["log-convex 5..7: open"]
