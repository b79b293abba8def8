"""The verification report checks the objects the library ships: the
battery's own forms, and the lattices of one corpus."""

from flagvec import forms, lattice
from flagvec.verify import corpus, run_verification


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
