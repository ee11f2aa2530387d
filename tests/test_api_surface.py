"""The package's surface: its settable values and the reach of its definitions.

Two walks keep the package as small as the commands need. The first lists
every parameter and dataclass field that has a default, in every ``sgcp``
module, so a new knob is added to ``SETTABLE`` on purpose or not at all. The
second checks that every top-level function, class and method in the package
is referenced by name outside its own body and outside ``__init__.py``, so a
definition that only tests reach shows up here unless it is one of the
references the tests compare against.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import sgcp

SETTABLE = [
    "cli._add_common(out_required)",
    "cli.main(argv)",
    "config.ExperimentConfig.chain",
    "config.ExperimentConfig.ns",
    "config.ExperimentConfig.radius_constant",
    "config.ExperimentConfig.replicates",
    "config.ExperimentConfig.resolution",
    "config.ExperimentConfig.seed",
    "config.ExperimentConfig.synthetic",
    "config.ExperimentConfig.truth",
    "config.load_config(overrides)",
    "config.load_config(path)",
    "experiment.run_contraction_experiment(prior)",
    "experiment.run_contraction_experiment(progress)",
    "inference.ChainConfig.n_burn",
    "inference.ChainConfig.n_iter",
    "inference.ChainConfig.thin",
    "inference.ChainConfig.update_hyperparameters",
    "inference._Sampler.__init__(mutate_drop_integral)",
    "inference.geweke_joint_test(mutate_drop_integral)",
    "inference.run_chain(init)",
    "metrics.credible_radius(q)",
    "priors.LengthScalePriorSpec.rate",
    "priors.LengthScalePriorSpec.shape",
    "priors.MaxIntensityPriorSpec.rate",
    "priors.MaxIntensityPriorSpec.shape",
    "priors.SgcpPrior.ell_prior",
    "priors.SgcpPrior.lam_prior",
    "priors.validate_length_scale_tail(bounds)",
    "priors.validate_max_intensity_tail(c0)",
    "priors.validate_max_intensity_tail(rate)",
]

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
