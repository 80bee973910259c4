"""The package's public surface: its exported names and the README's examples."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

import mathieu_kit
from mathieu_kit import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
README_TEXT = README.read_text(encoding="utf-8")
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)
# the mathieu-kit lines of the README's sh blocks, continuation lines joined
README_COMMANDS = [
    shlex.split(line)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", README_TEXT, flags=re.MULTILINE | re.DOTALL)
    for line in block.replace("\\\n", " ").splitlines() if line.startswith("mathieu-kit ")
]

# a change to the public API shows up as a change to this list
PUBLIC_NAMES = [
    "ADMISSIBILITY_TOL", "AdjudicationReport", "AdmissibilityError", "BesselValue",
    "ClosedFormSpec", "ConvergenceError", "DampedParams",
    "FloquetSolution", "FluxParams", "GeneralParams",
    "InducedFieldModel", "InvalidParameterError", "LinearODE", "MapDomainError",
    "MathieuKitError", "ModulationResult", "MonodromyResult",
    "RangeLimitError", "ReductionInput", "ReductionResult", "ResidualReport",
    "ResonanceError", "SingularityError", "SinusoidalResponse", "SolutionSample",
    "SpanError", "StiffnessError", "TimeSeries", "Variant",
    "adjudicate", "argument_scale", "bessel_j", "bessel_y", "characteristic_exponent",
    "class_distance", "classify_stability", "closed_form_motion", "coefficients",
    "damped_to_general", "eval_floquet", "eval_floquet_grid", "evaluate", "evaluate_grid",
    "field_from_motion", "full_ode", "fundamental_pair", "general_mathieu_ode",
    "general_solution", "hill_determinant", "homogeneous_ode", "identify_frequencies",
    "index", "induced_field_model", "integrate", "interior_grid",
    "linearized_delta", "mirror", "modulation_analysis",
    "monodromy_exponent", "normalize_exponent", "particular_k0", "pullback", "reduce",
    "residual", "second_solution", "sideband_amplitudes", "simulate_full", "solve",
    "source_ode", "split_ode", "steady_state_modulation", "symmetric_case_solution",
    "validate_tolerance",
]


def test_public_names_are_pinned():
    assert mathieu_kit.__all__ == PUBLIC_NAMES


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 4
    assert len(README_COMMANDS) >= 7


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index):
    # each block on its own, as a reader would paste it
    code = compile(README_EXAMPLES[index], f"README.md python block {index + 1}", "exec")
    exec(code, {"__name__": f"readme_example_{index + 1}"})


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    # --out paths land in tmp_path
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def _unread_imports(path: Path) -> list[str]:
    """Names a module imports and never reads, except lines marked # noqa: F401."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unread.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {name}")
    return unread


def test_no_module_imports_a_name_it_never_reads():
    # package __init__ modules import to re-export, so they are not scanned
    paths = [path for folder in ("src", "tests", "scripts")
             for path in sorted((ROOT / folder).rglob("*.py")) if path.name != "__init__.py"]
    assert len(paths) > 20
    assert [name for path in paths for name in _unread_imports(path)] == []


def test_every_error_class_has_a_raiser():
    # each MathieuKitError subclass is constructed somewhere in src/ outside errors.py
    package = ROOT / "src" / "mathieu_kit"
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    subclasses = {name for name in classes
                  if issubclass(getattr(mathieu_kit.errors, name), mathieu_kit.errors.MathieuKitError)
                  and name != "MathieuKitError"}
    constructed = {node.func.id for path in sorted(package.glob("*.py")) if path.name != "errors.py"
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "SpanError" in subclasses and "MathieuKitError" in classes
    assert sorted(subclasses - constructed) == []
