"""The public surface, pinned: every name in ``fracctrl.__all__`` and the
parameter names of each public function and class constructor.  Adding a
knob, or dropping a public name, shows up here as an edit to the table."""

import inspect

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
    "CuspControl": ["A", "alpha", "T", "policy"],
    "MinEnergyControl": ["A", "B", "alpha", "T", "coeff", "policy"],
    "PinvControl": ["A", "B_pinv", "alpha", "T", "v", "policy"],
    "Trajectory": ["grid", "states", "outputs", "controls"],
    "simulate": ["sys", "a", "u", "grid", "policy"],
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
    "inverse_kernel": ["A", "alpha", "t", "policy"],
    # controlsyn
    "SteeringProblem": ["sys", "a", "b", "T", "grid"],
    "GramianResult": ["Q", "rcond", "quad_err"],
    "SynthesisResult": ["control", "f_T", "energy", "method", "gramian", "energy_quad"],
    "RankData": ["kalman", "rank", "K_blocks"],
    "QuadSettings": ["rel_tol"],
    "DEFAULT_QUAD": "QuadSettings",
    "SINGULAR_GRAMIAN_RCOND": "float",
    "gramian": ["sys", "T", "quad", "policy"],
    "kalman_rank": ["sys"],
    "synthesize_min_energy": ["prob", "quad", "policy"],
    "synthesize_pinv": ["prob", "quad", "policy"],
    "synthesize_rank_based": ["prob", "phi", "quad", "policy"],
    "modified_energy": ["u", "alpha", "T", "quad"],
    "verify_steering": ["prob", "result", "quad", "policy"],
    "SteeringReport": ["terminal_error_abs", "terminal_error_rel", "energy_quadrature",
                       "energy_reported", "energy_mismatch_rel", "caputo_residual"],
    "default_shaping_density": ["grid", "alpha"],
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
