"""Quantum-circuit simulation with first-class rewinding, cloning, and
adaptive postselection, plus the protocols built on them: amplitude
mitigation, acceptance-count decision, collision finding with one rewind,
statistical-difference decision, stabilizer rewinding, and brickwork
measurement patterns with retries.

Snapshot labels belong to the circuit language (``snapshot L`` /
``rewind L``); the exported ``rewind(stored, post_state)`` is the paper's
rewinding operator on dense states, which returns the state from before one
measurement given the state after it.

The exported names load their module on first use (PEP 562), so importing
the package, or running ``python -m rwsim`` on the stabilizer or path-sum
backend, does not load NumPy."""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "Circuit": "circuit",
    "parse_circuit": "circuit",
    "sampler": "circuit",
    "serialize_circuit": "circuit",
    "Gate": "gates",
    "gate": "gates",
    "hk": "gates",
    "rz": "gates",
    "SplitMix64": "rng",
    "stream_seed": "rng",
    "PureState": "statevector",
    "apply_gate": "statevector",
    "init": "statevector",
    "measure": "statevector",
    "postselect": "statevector",
    "rewind": "statevector",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
