"""The public surface, pinned: every name in ``fracctrl.__all__`` and the
parameter names of each public function and class constructor.  Adding a
knob, or dropping a public name, shows up here as an edit to the table."""

import ast
import inspect
from pathlib import Path

import fracctrl

# name -> parameter names for a function or constructor, "exception" for an
# error class, and the type name for a constant
PUBLIC = {
    # errors
    "FracctrlError": "exception",
    "DomainError": "exception",
    "InvalidOrder": "exception",
    "InvalidParams": "exception",
    "NonConvergence": "exception",
    "RankDeficient": "exception",
    "RankDeficientB": "exception",
    "SingularGramian": "exception",
    "SingularKernel": "exception",
    # fraccalc
    "TimeGrid": ["t0", "t1", "steps"],
    "GridFunction": ["grid", "values"],
    "rl_derivative_left": ["f", "alpha"],
    "caputo_derivative": ["f", "alpha"],
    "singular_convolution": ["kernel_smooth", "alpha", "u", "t_eval"],
    # fracsys
    "FracSystem": ["A", "B", "C", "alpha"],
    "ControlSignal": [],
    "SampledControl": ["values"],
    "CuspControl": ["A", "alpha", "T"],
    "MinEnergyControl": ["A", "B", "alpha", "T", "coeff"],
    "PinvControl": ["A", "B_pinv", "alpha", "T", "v"],
    "Trajectory": ["grid", "states", "outputs", "controls"],
    "simulate": ["sys", "a", "u", "grid"],
    "caputo_residual": ["sys", "traj"],
    # mlkernel
    "MLParams": ["alpha", "beta"],
    "SeriesPolicy": ["rel_tol", "max_terms"],
    "DEFAULT_POLICY": "SeriesPolicy",
    "SINGULAR_KERNEL_RCOND": "float",
    "ml_scalar": ["params", "z", "policy"],
    "ml_matrix": ["params", "M", "policy"],
    "ml_matrix_batch": ["A", "alpha", "beta", "s", "policy"],
    "alpha_exp": ["A", "alpha", "t", "policy"],
    "state_transition": ["A", "alpha", "t", "policy"],
    "frac_sin": ["alpha", "t", "policy"],
    "frac_cos": ["alpha", "t", "policy"],
    "cl_truncation": ["L", "t"],
    # controlsyn
    "SteeringProblem": ["sys", "a", "b", "T", "grid"],
    "GramianResult": ["Q", "rcond", "quad_err"],
    "SynthesisResult": ["control", "f_T", "energy", "method", "gramian"],
    "RankData": ["kalman", "rank", "K_blocks"],
    "SINGULAR_GRAMIAN_RCOND": "float",
    "gramian": ["sys", "T"],
    "kalman_rank": ["sys"],
    "synthesize_min_energy": ["prob"],
    "synthesize_pinv": ["prob"],
    "synthesize_rank_based": ["prob", "phi"],
    "modified_energy": ["u", "alpha", "T"],
    "verify_steering": ["prob", "result"],
    "SteeringReport": ["terminal_error_abs", "terminal_error_rel", "energy_quadrature",
                       "energy_reported", "energy_mismatch_rel", "caputo_residual"],
}


def describe(obj):
    if isinstance(obj, type) and issubclass(obj, Exception):
        return "exception"
    if callable(obj):
        return list(inspect.signature(obj).parameters)
    return type(obj).__name__


def test_public_names_and_parameters_match_the_table():
    assert len(set(fracctrl.__all__)) == len(fracctrl.__all__)
    assert {name: describe(getattr(fracctrl, name)) for name in fracctrl.__all__} == PUBLIC


# a public name that nothing in the package uses yet: the benchmark's kernel-eval
# workload and probe call it, so it goes with a change to the benchmark (ROADMAP
# item 12)
UNUSED_ALLOWED = {"singular_convolution"}


def test_every_definition_is_used_in_the_package():
    """Each module-level function or class, and each name in a module's
    ``__all__``, is read somewhere in the package outside its own definition."""
    spans, checked, reads = {}, set(), []
    for path in sorted(Path(fracctrl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                checked.add(node.name)
                spans[node.name] = (path, node.lineno, node.end_lineno)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        spans[target.id] = (path, node.lineno, node.end_lineno)
                if ast.unparse(node.targets[0]) == "__all__" and path.name != "__init__.py":
                    checked.update(ast.literal_eval(node.value))
        reads += [(node.id if isinstance(node, ast.Name) else node.attr, path, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)]

    def outside(name, path, line):
        where, first, last = spans[name]
        return path != where or not first <= line <= last

    used = {name for name, path, line in reads if name in checked and outside(name, path, line)}
    assert checked - used == UNUSED_ALLOWED
