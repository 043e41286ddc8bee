"""Acceptance gate: the thirteen headline claim groups, one pass/fail line
each (run with -s or check the captured output).

Each group delegates to the claim-check suite in curvlab.verify so the CLI
command and this gate execute identical code with identical tolerances.
"""

import importlib
import types

import pytest

from curvlab import verify

CRITERIA = [
    ("01 clifford torus curvature sqrt(N)", "clifford"),
    ("02 directional curvature quartic formula", "formula-star"),
    ("03 pentagon design torus sqrt(1.5)", "design-torus"),
    ("04 exact rational designs n=2,3", "hilbert"),
    ("05 veronese curvature and radius", "veronese"),
    ("06 tube curvature max(1/rho, 1/(r-rho))", "tube"),
    ("07 gauss / averaged-curvature identities", "gauss-petrunin"),
    ("08 closed curves turn at least 2*pi", "fenchel"),
    ("09 arm lemma chord monotonicity", "arm"),
    ("10 bow chord inequality", "bow"),
    ("11 height-function counting identity", "crofton"),
    ("12 bessel zeros and bound report", "bessel-bounds"),
    ("13 out-of-scope claims are consistency-only", "scope"),
]


@pytest.mark.parametrize("title,group", CRITERIA,
                         ids=[t for t, _ in CRITERIA])
def test_acceptance(title, group):
    records = list(verify.run_checks(only=group))
    assert records, f"no records for group {group}"
    failed = [r for r in records if not r["pass"]]
    verdict = "PASS" if not failed else "FAIL"
    print(f"{verdict} criterion {title} "
          f"({len(records) - len(failed)}/{len(records)} checks)")
    assert not failed, failed


@pytest.mark.parametrize("module", ["curvlab", "curvlab.bounds", "curvlab.curvature",
                                    "curvlab.curves", "curvlab.designs",
                                    "curvlab.immersions", "curvlab.verify"])
def test_every_exported_name_resolves(module):
    # tracers and star-imports getattr every listed name: a deleted but
    # still-listed name would fail there
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_namespace_is_the_six_modules():
    # callers import a module (from curvlab import curvature); the package copies no names
    import curvlab
    modules = ["bounds", "curvature", "curves", "designs", "immersions", "verify"]
    assert curvlab.__all__ == [*modules, "__version__"]
    assert all(isinstance(getattr(curvlab, m), types.ModuleType) for m in modules)
    assert [k for k, v in vars(curvlab).items() if isinstance(v, (type, types.FunctionType))] == []


def test_all_groups_are_covered():
    assert {g for _, g in CRITERIA} == set(verify.CHECKS)
