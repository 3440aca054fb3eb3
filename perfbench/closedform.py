"""Closed forms of the model, written here apart from the program."""

import numpy as np
from scipy.constants import physical_constants

MU_B = physical_constants["Bohr magneton"][0]
K_B = physical_constants["Boltzmann constant"][0]


def spin_argument(b_field, temperature, g_factor):
    """g mu_B B / (2 k_B T), the argument of both tanh and sech^2."""
    return g_factor * MU_B * np.asarray(b_field) / (2.0 * K_B * temperature)


def flipflop_rate(b_field, params):
    """1/t_long = alpha / (Gamma_s + gamma_s B) * sech^2(g mu_B B / 2 k_B T)."""
    x = spin_argument(b_field, params.temperature, params.g_factor)
    width = params.gamma_spin_static + params.gamma_spin_slope * np.asarray(b_field)
    return params.alpha_ff / width / np.cosh(x) ** 2
