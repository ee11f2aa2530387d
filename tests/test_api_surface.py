"""The package's surface: its settable values and the reach of its definitions.

Two walks keep the package as small as the commands need. The first lists
every parameter and dataclass field that has a default, in every ``sgcp``
module, so a new knob is added to ``SETTABLE`` on purpose or not at all. The
second checks that every top-level function, class and method in the package
is referenced by name outside its own body and outside ``__init__.py``, so a
definition that only tests reach shows up here unless it is one of the
references the tests compare against. A third walk lists each subcommand's
flags, so a new flag, like a new default, is added to ``FLAGS`` on purpose.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import sgcp
from sgcp.cli import build_parser

SETTABLE = [
    "cli._add_common(out_required)",
    "cli.main(argv)",
    "config.ExperimentConfig.chain",
    "config.ExperimentConfig.ns",
    "config.ExperimentConfig.radius_constant",
    "config.ExperimentConfig.replicates",
    "config.ExperimentConfig.resolution",
    "config.ExperimentConfig.seed",
    "config.ExperimentConfig.truth",
    "config.load_config(overrides)",
    "config.load_config(path)",
    "experiment.run_contraction_experiment(progress)",
    "inference.ChainConfig.n_burn",
    "inference.ChainConfig.n_iter",
    "inference.ChainConfig.thin",
    "priors.LengthScalePriorSpec.rate",
    "priors.LengthScalePriorSpec.shape",
    "priors.MaxIntensityPriorSpec.rate",
    "priors.MaxIntensityPriorSpec.shape",
    "priors.SgcpPrior.ell_prior",
    "priors.SgcpPrior.lam_prior",
]

# each subcommand's option strings, apart from -h and --help
FLAGS = {
    "simulate": ["--config", "--n", "--out", "--resolution", "--seed", "--truth"],
    "fit": ["--config", "--data", "--n-burn", "--n-iter", "--out", "--resolution", "--seed"],
    "bench": ["--baseline", "--config", "--n-burn", "--n-iter", "--ns", "--out", "--replicates",
              "--resolution", "--seed", "--truth", "--verbose"],
    "calibrate": ["--config", "--dim", "--out", "--resolution", "--rounds", "--seed",
                  "--sweeps"],
    "verify-priors": ["--config", "--delta", "--dim", "--out", "--seed"],
}

# definitions no command reaches, kept as what the tests compare against
REFERENCES = {
    "kernels.kernel_eval": "the pairwise covariance that cov_matrix is checked against",
    "kernels.spectral_covariance_quadrature": "acceptance 1's spectral form of the covariance",
    "point_process.log_likelihood": "the likelihood the sampler's statistics are checked against",
    "priors.prior_small_ball_probability": "acceptance 6's prior-mass probe",
}


def _defaults(prefix, signature):
    return [f"{prefix}({p.name})" for p in signature.parameters.values()
            if p.default is not p.empty]


def _settable_values():
    found = []
    for info in pkgutil.iter_modules(sgcp.__path__):
        module = importlib.import_module(f"sgcp.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            prefix = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found += _defaults(prefix, inspect.signature(obj))
            elif inspect.isclass(obj):
                is_dc = dataclasses.is_dataclass(obj)
                if is_dc:
                    found += [f"{prefix}.{f.name}" for f in dataclasses.fields(obj)
                              if f.default is not dataclasses.MISSING
                              or f.default_factory is not dataclasses.MISSING]
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and not (is_dc and attr == "__init__"):
                        found += _defaults(f"{prefix}.{attr}", inspect.signature(member))
    return sorted(found)


def test_settable_values_are_the_committed_list():
    assert _settable_values() == SETTABLE


def test_flags_are_the_committed_table():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: sorted(flag for action in sub._actions
                          if not isinstance(action, argparse._HelpAction)
                          for flag in action.option_strings)
             for name, sub in commands.choices.items()}
    assert found == FLAGS


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (sub for sub in node.body if isinstance(sub, ast.FunctionDef)
                        and not (sub.name.startswith("__") and sub.name.endswith("__")))


def test_every_definition_is_referenced_outside_itself():
    package = Path(sgcp.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    uses = {}  # name -> [(module, line)] of each Name or Attribute spelling it
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((stem, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((stem, node.lineno))
    unreferenced = set()
    for stem, tree in trees.items():
        for node in _definitions(tree):
            if not any(mod != stem or not node.lineno <= line <= node.end_lineno
                       for mod, line in uses.get(node.name, [])):
                unreferenced.add(f"{stem}.{node.name}")
    assert unreferenced == set(REFERENCES)


# the only functions that open a file for writing: the one CSV table writer,
# the one JSON writer, and a forked worker's result pipe, which is not a file
WRITERS = {"point_process.write_table", "point_process.write_json", "_pool._child"}


def _writing_opens(node, owner):
    """The enclosing ``module.function`` of each ``open(…)`` or ``.open(…)`` below
    ``node`` whose mode writes, or is not a string literal."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owner = f"{owner}.{node.name}"
    if isinstance(node, ast.Call):
        by_name = isinstance(node.func, ast.Name) and node.func.id == "open"
        if by_name or isinstance(node.func, ast.Attribute) and node.func.attr == "open":
            position = 1 if by_name else 0  # open(path, mode), path.open(mode)
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[position] if len(node.args) > position else None)
            if mode is not None and not (isinstance(mode, ast.Constant)
                                         and isinstance(mode.value, str)
                                         and not set(mode.value) & set("wax")):
                yield owner
    for child in ast.iter_child_nodes(node):
        yield from _writing_opens(child, owner)


def test_only_the_writers_open_files_for_writing():
    package = Path(sgcp.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        found.update(_writing_opens(ast.parse(path.read_text(encoding="utf-8")), path.stem))
    assert found == WRITERS
