"""A corpus of malformed numbers passed to every public entry point that takes a real number.

Each entry point must refuse each bad value with an EntswapError: never a
raw Python or numpy error, never a warning (a ComplexWarning is an escape
too, so warnings are errors here), and never by reading it as a number.
The library reads a real number by one rule, ``entswap.states._is_real``:
no complex value, text or bool, and arrays only of int or float dtype.
A control table passes each entry point the values it does take.
"""

import math

import numpy as np
import pytest

from entswap import (
    BdsChainQuery,
    BdsParams,
    BlochForm,
    ChainSpec,
    EntswapError,
    NoiseModel,
    SweepConfig,
    WernerChainQuery,
    WernerParams,
    apply_local,
    bell_state,
    chain_swap,
    concurrence_bds,
    concurrence_werner,
    link_generator,
    make_bell_diagonal,
    make_werner,
    max_entangled_swaps,
    noisy_bell_measurement_ops,
    octahedron_separable,
    sample_state,
    subset_sum_normalization,
    swap_once,
    swap_once_povm,
)
from entswap.states import check_visibility
from entswap.sweep import _plan

_STATE = make_werner(0.9)

# one number: ints, floats and numpy scalars, eta and p of 1 included
_NUMBERS = {"1": 1, "np.int64(1)": np.int64(1), "0.9": 0.9, "np.float64(0.9)": np.float64(0.9),
            "np.float32(0.9)": np.float32(0.9)}
# a stack of numbers: int and float arrays, 0-d and 2-d ones included
_STACKS = {"0-d float array": np.array(0.9), "float array": np.array([0.9, 1.0]), "int array": np.array([1, 0]),
           "2-d float array": np.full((2, 3), 0.9)}
_INDICES = {"0": 0, "3": 3, "np.int64(2)": np.int64(2), "np.uint8(1)": np.uint8(1), "0-d int array": np.array(1)}
_VECTORS = {"float vector": np.array([0.0, 0.6, 0.0]), "int vector": np.array([0, 1, 0])}


def _zeros(x):
    """Zeros of x's shape, the other columns of a stack that holds x."""
    return np.zeros(np.shape(x))


# entry point -> (a call that passes the value to one of its number parameters, the values it takes)
ENTRY_POINTS = {
    "WernerParams": (WernerParams, _NUMBERS | _STACKS),
    "check_visibility": (check_visibility, _NUMBERS | _STACKS),
    "concurrence_werner": (concurrence_werner, _NUMBERS | _STACKS),
    "make_werner": (make_werner, _NUMBERS),
    "NoiseModel": (lambda x: NoiseModel((0.9, x)), _NUMBERS),
    "noisy_bell_measurement_ops": (noisy_bell_measurement_ops, _NUMBERS),
    "swap_once": (lambda x: swap_once(_STATE, _STATE, x), _NUMBERS),
    "swap_once_povm": (lambda x: swap_once_povm(_STATE, _STATE, x), _NUMBERS),
    "ChainSpec": (lambda x: ChainSpec((_STATE, _STATE), (x,)), _NUMBERS),
    "max_entangled_swaps-eta": (lambda x: max_entangled_swaps(x, 0.9), _NUMBERS),
    "max_entangled_swaps-p": (lambda x: max_entangled_swaps(0.9, x), _NUMBERS),
    "subset_sum_normalization": (lambda x: subset_sum_normalization((x,)), _NUMBERS),
    "BdsParams": (lambda x: BdsParams(x, 0.0, 0.0), _NUMBERS),
    "BdsParams-stack": (lambda x: BdsParams(_zeros(x), x, _zeros(x)), _STACKS),
    "make_bell_diagonal": (lambda x: make_bell_diagonal((0.0, x, 0.0)), _NUMBERS),
    "concurrence_bds": (lambda x: concurrence_bds((x, 0.0, 0.0)), _NUMBERS),
    "octahedron_separable": (lambda x: octahedron_separable((0.0, 0.0, x)), _NUMBERS),
    "WernerChainQuery-link": (lambda x: WernerChainQuery((x, 0.9), (1.0,)).final, _NUMBERS | _STACKS),
    "WernerChainQuery-eta": (lambda x: WernerChainQuery((0.9, 0.9), (x,)).final, _NUMBERS),
    "BdsChainQuery-link": (lambda x: BdsChainQuery(((x, 0.0, 0.0), (0.0, 0.0, 0.0)), (1.0,)).final, _NUMBERS),
    "BdsChainQuery-stack": (
        lambda x: BdsChainQuery(((_zeros(x), x, _zeros(x)), (_zeros(x),) * 3), (1.0,)).final, _STACKS),
    "BdsChainQuery-eta": (lambda x: BdsChainQuery(((0.9, 0.0, 0.0), (0.9, 0.0, 0.0)), (x,)).final, _NUMBERS),
    "BlochForm-r": (lambda x: BlochForm(x, np.zeros(3), np.zeros((3, 3))), _VECTORS),
    "BlochForm-s": (lambda x: BlochForm(np.zeros(3), x, np.zeros((3, 3))), _VECTORS),
    "apply_local-left": (lambda x: apply_local(_STATE, x, 0), _INDICES),
    "apply_local-right": (lambda x: apply_local(_STATE, 0, x), _INDICES),
}

# values that are not a real number, nor an array of them, of the range every entry point takes
BAD_VALUES = {
    "text": "0.5",
    "bytes": b"0.5",
    "numpy text": np.str_("0.5"),
    "True": True,
    "np.False_": np.False_,
    "0-d bool array": np.array(True),
    "complex": 0.5 + 0j,
    "numpy complex": np.complex128(0.5),
    "0-d complex array": np.array(0.5 + 0j),
    "None": None,
    "list": [0.5],
    "dict": {},
    "nan": math.nan,
    "inf": math.inf,
    "out of range": 2.0,
    "int beyond a float": 10**400,
    "text array": np.array(["0.1", "0.2", "0.3"]),
    "bool array": np.array([True, False, False]),
    "complex array": np.zeros(3, dtype=complex),
    "object array": np.zeros(3, dtype=object),
    "2-d float array": np.full((2, 3), 0.5),
}

# (entry point, bad value) pairs that are accepted, each with its reason
ALLOWED = {
    ("WernerParams", "2-d float array"): "a float array of any shape is a stack of visibilities",
    ("check_visibility", "2-d float array"): "a float array of any shape is a stack of visibilities",
    ("concurrence_werner", "2-d float array"): "a float array of any shape is a stack of visibilities",
    ("BdsParams-stack", "2-d float array"): "three float arrays of one shape are a stack of triples",
    ("WernerChainQuery-link", "2-d float array"): "a float array link makes a stack of chains; a float link is shared",
    ("BdsChainQuery-stack", "2-d float array"): "three float arrays of one shape are a stack of triples",
}


BAD_CASES = [pytest.param(entry, key, id=f"{entry}-{key}") for entry in ENTRY_POINTS for key in BAD_VALUES]
VALID_CASES = [
    pytest.param(entry, key, id=f"{entry}-{key}") for entry, (_, valid) in ENTRY_POINTS.items() for key in valid
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, key", BAD_CASES)
def test_every_entry_point_refuses_what_is_not_a_real_number(entry, key):
    call = ENTRY_POINTS[entry][0]
    if (entry, key) in ALLOWED:
        call(BAD_VALUES[key])
    else:
        with pytest.raises(EntswapError):
            call(BAD_VALUES[key])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, key", VALID_CASES)
def test_every_entry_point_takes_real_numbers(entry, key):
    # control for the corpus: each entry point takes ints, floats and numpy scalars, and int and
    # float arrays where it takes a stack
    call, valid = ENTRY_POINTS[entry]
    call(valid[key])


def _plan_with(field):
    """A call that plans a one-cell Werner sweep whose config field ``field`` holds the value."""
    return lambda x: _plan(SweepConfig(**{"family": "werner", "sample_count": 1, field: x}))


# arguments that name a choice or an index, which the error message prints when it refuses one:
# the config fields _plan checks against a list of choices, a Bell state, a swap mode and a family
CHOICES = {
    **{f"_plan-{field}": _plan_with(field)
       for field in ("family", "mode", "engine", "swap_mode", "entangled_inputs_only")},
    "bell_state": bell_state,
    "chain_swap-mode": lambda x: chain_swap(ChainSpec((_STATE, _STATE), (1.0,)), mode=x),
    "sample_state-family": lambda x: sample_state(x, link_generator(0, 0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", [*ENTRY_POINTS, *CHOICES])
def test_an_int_too_long_to_print_is_refused_as_any_bad_value_is(entry):
    # repr and str of an int beyond sys.get_int_max_str_digits() raise ValueError: an error
    # message that shows the refused value must describe it instead
    call = CHOICES[entry] if entry in CHOICES else ENTRY_POINTS[entry][0]
    with pytest.raises(EntswapError):
        call(10**5000)
