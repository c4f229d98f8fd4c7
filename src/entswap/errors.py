"""Exception types shared across the package, and the printer of the values their messages show."""


class EntswapError(Exception):
    """Base class for all errors raised by entswap."""


class DomainError(EntswapError, ValueError):
    """A scalar argument is outside its allowed range."""


class InvalidParametersError(EntswapError, ValueError):
    """A family parameterization does not describe a physical state."""


class InvalidStateError(EntswapError, ValueError):
    """A matrix fails the density-matrix invariants."""


class ConfigError(EntswapError, ValueError):
    """A sweep configuration is inconsistent or incomplete."""


class ChainSwapError(EntswapError, RuntimeError):
    """A swap inside a chain failed; carries the failing node index."""

    def __init__(self, message: str, node: int):
        super().__init__(message)
        self.node = node


def _shown(value, form=repr) -> str:
    """form(value) for an error message; a value holding an int too long to print is described instead."""
    try:
        return form(value)
    except ValueError:  # an int beyond sys.get_int_max_str_digits()
        return "a value holding an int too long to print"
